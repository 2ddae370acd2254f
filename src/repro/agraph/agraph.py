"""The typed a-graph and its primitive operations.

The a-graph has three node kinds:

* ``CONTENT`` — an annotation content (the XML comment document),
* ``REFERENT`` — a marked substructure of a data object,
* ``ONTOLOGY`` — an ontology term a referent or content points at.

:data:`EDGE_TYPES` declares each edge label once, with the node kinds its
source and target may have: a content ``annotates`` each of its referents,
a referent or content ``refers_to`` an ontology term, and a referent links
to each earlier referent of the same data object in its annotation
(``same_object``).  :meth:`AGraph.link` refuses any edge outside it.
Because the same referent can be annotated by two different contents, two
annotations become "indirectly related" — which is exactly the structure
the paper's queries traverse.

The manager keeps one invariant: the edge multiset is the sum, over live
annotations, of :meth:`Annotation.agraph_edges()
<repro.core.annotation.Annotation.agraph_edges>`.  Commit, WAL replay and
snapshot rebuild link that list, a delete unlinks it, an update applies the
difference of its two derivations, and ``check_integrity`` compares the
graph with the sum.

The two primitives are:

* :meth:`AGraph.path` — ``path(node1, node2)``: a path between two nodes,
* :meth:`AGraph.connect` — ``connect(node1, node2, ...)``: a connection
  subgraph intervening a set of nodes.

Traversals expand through the multigraph's one adjacency map (a node's
``(label, direction)`` buckets of neighbour ids), the edges along a
reconstructed path are looked up in the same buckets, and component queries
are answered by the multigraph's incremental union-find instead of a
per-call BFS.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Any, Hashable, Iterable

from repro.agraph.connection import ConnectionSubgraph
from repro.agraph.multigraph import IN, Edge, LabeledMultigraph
from repro.errors import AGraphError, UnknownNodeError

#: Edge label: content --annotates--> referent.
ANNOTATES = "annotates"
#: Edge label: content/referent --refers_to--> ontology term.
REFERS_TO = "refers_to"
#: Edge label: referent --same_object--> referent (share a data object).
SAME_OBJECT = "same_object"

#: The bucket of a referent's incoming ``annotates`` edges: its contents.
_ANNOTATED_BY = (ANNOTATES, IN)


class NodeKind(enum.Enum):
    """The kinds of node in the a-graph."""

    CONTENT = "content"
    REFERENT = "referent"
    ONTOLOGY = "ontology"


#: The a-graph schema: ``label -> (source kinds, target kinds)``, each kind a
#: :class:`NodeKind` value.
EDGE_TYPES: dict[str, tuple[frozenset[str], frozenset[str]]] = {
    ANNOTATES: (frozenset({"content"}), frozenset({"referent"})),
    REFERS_TO: (frozenset({"content", "referent"}), frozenset({"ontology"})),
    SAME_OBJECT: (frozenset({"referent"}), frozenset({"referent"})),
}


class AGraph:
    """The annotation graph: a typed labeled multigraph + primitives.

    The a-graph wraps a :class:`~repro.agraph.multigraph.LabeledMultigraph`
    and adds the node-kind bookkeeping, the edge schema, the two primitive
    operations, and the supporting graph algorithms (BFS path search, BFS-tree
    connection-subgraph construction, component analysis).
    """

    def __init__(self) -> None:
        self._graph = LabeledMultigraph()

    # -- size / access --------------------------------------------------------

    @property
    def graph(self) -> LabeledMultigraph:
        """The underlying multigraph (read-mostly; prefer the typed methods)."""
        return self._graph

    @property
    def node_count(self) -> int:
        """Number of nodes."""
        return self._graph.node_count

    @property
    def edge_count(self) -> int:
        """Number of edges."""
        return self._graph.edge_count

    def __contains__(self, node_id: Hashable) -> bool:
        return node_id in self._graph

    # -- typed node/edge construction -----------------------------------------

    def add_content(self, content_id: Hashable) -> Hashable:
        """Add an annotation-content node (a no-op when it exists)."""
        self._graph.add_node(content_id, kind=NodeKind.CONTENT.value)
        return content_id

    def add_referent(self, referent_id: Hashable) -> Hashable:
        """Add a referent (marked-substructure) node (a no-op when it exists)."""
        self._graph.add_node(referent_id, kind=NodeKind.REFERENT.value)
        return referent_id

    def add_ontology_node(self, term_id: Hashable) -> Hashable:
        """Add an ontology-term node (a no-op when it exists)."""
        self._graph.add_node(term_id, kind=NodeKind.ONTOLOGY.value)
        return term_id

    def check_edge(self, label: str, source: Hashable, target: Hashable) -> None:
        """Raise unless :data:`EDGE_TYPES` admits ``source --label--> target``
        between the two existing nodes."""
        kind = self._graph.kind
        source_kind, target_kind = kind(source), kind(target)
        kinds = EDGE_TYPES.get(label)
        if kinds is None or source_kind not in kinds[0] or target_kind not in kinds[1]:
            raise AGraphError(
                f"edge {(label, source, target)!r} ({source_kind} -> {target_kind}) "
                f"is not in EDGE_TYPES"
            )

    def link(self, label: str, source: Hashable, target: Hashable) -> Edge:
        """Add one ``source --label--> target`` edge after :meth:`check_edge`."""
        self.check_edge(label, source, target)
        self._graph.add_edge(source, target, label=label)
        return Edge(source, target, label)

    def unlink(self, label: str, source: Hashable, target: Hashable) -> bool:
        """Remove one copy of ``source --label--> target``; False when absent.

        Nodes stay: the caller decides whether an endpoint left without edges
        goes (a referent no content annotates does; ontology terms are shared
        vocabulary and never do).
        """
        return self._graph.remove_edge(source, target, label)

    # -- typed accessors -------------------------------------------------------

    def contents(self) -> list[Hashable]:
        """Ids of every annotation-content node."""
        return self._graph.nodes_of_kind(NodeKind.CONTENT.value)

    def referents(self) -> list[Hashable]:
        """Ids of every referent node."""
        return self._graph.nodes_of_kind(NodeKind.REFERENT.value)

    def ontology_nodes(self) -> list[Hashable]:
        """Ids of every ontology node."""
        return self._graph.nodes_of_kind(NodeKind.ONTOLOGY.value)

    def referents_of(self, content_id: Hashable) -> list[Hashable]:
        """Referents annotated by *content_id*."""
        return self._graph.successors(content_id, label=ANNOTATES)

    def contents_annotating(self, referent_id: Hashable) -> list[Hashable]:
        """Contents that annotate *referent_id*."""
        return self._graph.predecessors(referent_id, label=ANNOTATES)

    def annotation_counts(self, referent_ids: Iterable[Hashable]) -> dict[Hashable, int]:
        """For a batch of referents, how many of them each content annotates.

        The one "referents -> annotation counts" step every spatial search
        shares: one read of each referent's ``(annotates, IN)`` bucket,
        counted in a plain dict keyed by content id.  Referent ids absent
        from the graph are skipped, so callers can feed store-level hits
        straight in.
        """
        counts: dict[Hashable, int] = {}
        get = counts.get
        adjacency = self._graph.adjacency
        for referent_id in referent_ids:
            buckets = adjacency.get(referent_id)
            if buckets is None:
                continue
            for source in buckets.get(_ANNOTATED_BY, ()):
                counts[source] = get(source, 0) + 1
        return counts

    def related_annotations(self, content_id: Hashable) -> set[Hashable]:
        """Other contents indirectly related to *content_id* through a shared
        referent.  This is the paper's "two annotations become indirectly
        related" relation."""
        related: set[Hashable] = set()
        graph = self._graph
        for referent_id in graph.successors(content_id, label=ANNOTATES):
            related.update(graph.predecessors(referent_id, label=ANNOTATES))
        related.discard(content_id)
        return related

    def ontology_terms_of(self, node_id: Hashable) -> list[Hashable]:
        """Ontology terms that *node_id* refers to."""
        return self._graph.successors(node_id, label=REFERS_TO)

    # -- primitive: path -------------------------------------------------------

    def path(self, node1: Hashable, node2: Hashable, labels: Iterable[str] | None = None) -> list[Hashable] | None:
        """``path(node1, node2)``: a shortest path between the two nodes.

        Edges are followed ignoring direction (the a-graph's connection
        semantics are symmetric: a content reaches its referents and vice
        versa).  When *labels* is given, only edges with those labels are
        traversed.  Returns the node-id sequence, or ``None`` when no path
        exists.

        The search is a level-synchronous bidirectional BFS over the
        multigraph's adjacency map: the smaller frontier expands one full
        level at a time, and the best meeting node of a level yields a
        provably shortest path while visiting a fraction of the nodes a
        one-sided sweep would touch.
        """
        if node1 not in self._graph:
            raise UnknownNodeError(f"no node {node1!r} in the a-graph")
        if node2 not in self._graph:
            raise UnknownNodeError(f"no node {node2!r} in the a-graph")
        if node1 == node2:
            return [node1]
        # The component index refutes most unreachable pairs without a BFS.
        if labels is None and not self._graph.same_component(node1, node2):
            return None
        allowed = frozenset(labels) if labels is not None else None
        adjacency = self._graph.adjacency
        prev_from_1: dict[Hashable, Hashable] = {node1: node1}
        prev_from_2: dict[Hashable, Hashable] = {node2: node2}
        frontier_1: list[Hashable] = [node1]
        frontier_2: list[Hashable] = [node2]
        while frontier_1 and frontier_2:
            if len(frontier_1) <= len(frontier_2):
                frontier, prev_here, prev_other = frontier_1, prev_from_1, prev_from_2
                expanding_from_1 = True
            else:
                frontier, prev_here, prev_other = frontier_2, prev_from_2, prev_from_1
                expanding_from_1 = False
            next_frontier: list[Hashable] = []
            meets: list[Hashable] = []
            for current in frontier:
                buckets = adjacency[current]
                if allowed is None:
                    groups = buckets.values()
                else:
                    groups = [ids for (label, _), ids in buckets.items() if label in allowed]
                for ids in groups:
                    for neighbor in ids:
                        if neighbor not in prev_here:
                            prev_here[neighbor] = current
                            if neighbor in prev_other:
                                meets.append(neighbor)
                            else:
                                next_frontier.append(neighbor)
            if meets:
                # Every meet closes a path at this level; the one whose chain
                # on the *other* side is shortest closes the shortest path.
                other_root = node2 if expanding_from_1 else node1
                meet = min(
                    meets,
                    key=lambda node: len(self._reconstruct(prev_other, other_root, node)),
                )
                left = self._reconstruct(prev_from_1, node1, meet)
                right = self._reconstruct(prev_from_2, node2, meet)
                right.reverse()
                return left + right[1:]
            if expanding_from_1:
                frontier_1 = next_frontier
            else:
                frontier_2 = next_frontier
        return None

    # -- multi-source traversal ------------------------------------------------

    def multi_source_distances(
        self,
        sources: Iterable[Hashable],
        max_depth: int | None = None,
        labels: Iterable[str] | None = None,
    ) -> dict[Hashable, int]:
        """Hop distance from the nearest of *sources* to every reachable node.

        One breadth-first sweep seeded with the whole source set (undirected
        edge semantics, optional label filter, optional depth bound).  This is
        the building block that lets the query executor evaluate a path
        constraint with two BFS passes instead of one BFS per
        (source, target) pair.  Unknown source ids are ignored.
        """
        allowed = frozenset(labels) if labels is not None else None
        graph = self._graph
        distances: dict[Hashable, int] = {}
        frontier: list[Hashable] = []
        for source in sources:
            if source in graph and source not in distances:
                distances[source] = 0
                frontier.append(source)
        depth = 0
        adjacency = graph.adjacency
        while frontier and (max_depth is None or depth < max_depth):
            depth += 1
            next_frontier: list[Hashable] = []
            for current in frontier:
                buckets = adjacency[current]
                if allowed is None:
                    groups = buckets.values()
                else:
                    groups = [ids for (label, _), ids in buckets.items() if label in allowed]
                for ids in groups:
                    for neighbor in ids:
                        if neighbor not in distances:
                            distances[neighbor] = depth
                            next_frontier.append(neighbor)
            frontier = next_frontier
        return distances

    def bfs_tree(
        self,
        root: Hashable,
        stop_nodes: Iterable[Hashable] | None = None,
        labels: Iterable[str] | None = None,
    ) -> dict[Hashable, Hashable]:
        """Predecessor map of an undirected BFS from *root*.

        The returned mapping sends every reached node to its BFS parent (the
        root maps to itself); :meth:`path_from_tree` reconstructs the shortest
        root-to-node path.  When *stop_nodes* is given the search ends early
        once every stop node has been reached — ``connect`` uses this to grow
        one tree that serves all terminals instead of one BFS per terminal.
        """
        if root not in self._graph:
            raise UnknownNodeError(f"no node {root!r} in the a-graph")
        pending = set(stop_nodes) if stop_nodes is not None else None
        if pending is not None:
            pending.discard(root)
        allowed = frozenset(labels) if labels is not None else None
        adjacency = self._graph.adjacency
        previous: dict[Hashable, Hashable] = {root: root}
        queue: deque[Hashable] = deque([root])
        while queue:
            if pending is not None and not pending:
                break
            current = queue.popleft()
            buckets = adjacency[current]
            if allowed is None:
                groups = buckets.values()
            else:
                groups = [ids for (label, _), ids in buckets.items() if label in allowed]
            for ids in groups:
                for neighbor in ids:
                    if neighbor not in previous:
                        previous[neighbor] = current
                        if pending is not None:
                            pending.discard(neighbor)
                        queue.append(neighbor)
        return previous

    def path_from_tree(
        self, tree: dict[Hashable, Hashable], root: Hashable, node: Hashable
    ) -> list[Hashable] | None:
        """The root-to-*node* path recorded in a :meth:`bfs_tree` result."""
        if node not in tree:
            return None
        return self._reconstruct(tree, root, node)

    # -- primitive: connect ----------------------------------------------------

    def connect(self, *node_ids: Hashable, hub: Hashable | None = None) -> ConnectionSubgraph:
        """``connect(node1, node2, ...)``: a connection subgraph.

        Builds a subgraph that intervenes the requested terminals by joining
        them through shortest paths.  When *hub* is given, every terminal is
        connected to the hub; otherwise the first terminal acts as the hub and
        every other terminal is linked to it (a star of shortest paths, which
        is the connection structure the paper's query results render as a
        result page).  A single BFS tree grown from the anchor serves every
        terminal.
        """
        terminals = tuple(node_ids)
        if len(terminals) < 2:
            raise AGraphError("connect() requires at least two nodes")
        for terminal in terminals:
            if terminal not in self._graph:
                raise UnknownNodeError(f"no node {terminal!r} in the a-graph")
        if hub is not None and hub not in self._graph:
            raise UnknownNodeError(f"no hub node {hub!r} in the a-graph")
        anchor = hub if hub is not None else terminals[0]
        others = [terminal for terminal in terminals if terminal != anchor]
        result = ConnectionSubgraph(terminals=terminals, nodes={anchor})
        tree = self.bfs_tree(anchor, stop_nodes=others)
        for terminal in others:
            path = self.path_from_tree(tree, anchor, terminal)
            if path is None:
                continue
            edges = self._edges_along(path)
            result.add_path(path, edges)
        return result

    # -- component analysis -----------------------------------------------------

    def connected_component(self, node_id: Hashable) -> set[Hashable]:
        """All nodes reachable from *node_id* ignoring edge direction.

        Answered from the multigraph's incremental component index; no
        per-call BFS.
        """
        if node_id not in self._graph:
            raise UnknownNodeError(f"no node {node_id!r} in the a-graph")
        return self._graph.component_members(node_id)

    def connected_components(self) -> list[set[Hashable]]:
        """Partition the a-graph into connected components."""
        return self._graph.components()

    def component_root(self, node_id: Hashable) -> Hashable:
        """Canonical representative of *node_id*'s component (O(alpha))."""
        return self._graph.component_root(node_id)

    # -- internals --------------------------------------------------------------

    def _edges_along(self, path: list[Hashable]) -> list[Edge]:
        find_edge = self._graph.find_edge
        edges: list[Edge] = []
        for source, target in zip(path, path[1:]):
            edge = find_edge(source, target)
            if edge is not None:
                edges.append(edge)
        return edges

    @staticmethod
    def _reconstruct(previous: dict[Hashable, Hashable], start: Hashable, end: Hashable) -> list[Hashable]:
        path = [end]
        while path[-1] != start:
            path.append(previous[path[-1]])
        path.reverse()
        return path

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible representation of the whole a-graph."""
        return self._graph.to_dict()

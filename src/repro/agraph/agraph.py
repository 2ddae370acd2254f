"""The typed a-graph and its primitive operations.

The a-graph has three node kinds:

* ``CONTENT`` — an annotation content (the XML comment document),
* ``REFERENT`` — a marked substructure of a data object,
* ``ONTOLOGY`` — an ontology term a referent or content points at.

Directed edges connect a content to each of its referents (label
``annotates``) and referents/contents to ontology nodes (label
``refers_to``).  Because the same referent can be annotated by two different
contents, two annotations become "indirectly related" — which is exactly the
structure the paper's queries traverse.

The two primitives are:

* :meth:`AGraph.path` — ``path(node1, node2)``: a path between two nodes,
* :meth:`AGraph.connect` — ``connect(node1, node2, ...)``: a connection
  subgraph intervening a set of nodes.

Traversals expand through the multigraph's zero-copy ``iter_incident``
adjacency index, edge lookup along a reconstructed path uses the pair index,
and component queries are answered by the multigraph's incremental union-find
instead of a per-call BFS.
"""

from __future__ import annotations

import enum
import heapq
from collections import deque
from typing import Any, Hashable, Iterable

from repro.agraph.connection import ConnectionSubgraph
from repro.agraph.multigraph import Edge, LabeledMultigraph
from repro.errors import AGraphError, UnknownNodeError

#: Edge label: content --annotates--> referent.
ANNOTATES = "annotates"
#: Edge label: content/referent --refers_to--> ontology term.
REFERS_TO = "refers_to"
#: Edge label: referent --same_object--> referent (share a data object).
SAME_OBJECT = "same_object"
#: Edge label: referent --relates--> referent (inter-substructure relation).
RELATES = "relates"


class NodeKind(enum.Enum):
    """The kinds of node in the a-graph."""

    CONTENT = "content"
    REFERENT = "referent"
    ONTOLOGY = "ontology"


class AGraph:
    """The annotation graph: a typed labeled multigraph + primitives.

    The a-graph wraps a :class:`~repro.agraph.multigraph.LabeledMultigraph`
    and adds the node-kind bookkeeping, the two primitive operations, and the
    supporting graph algorithms (BFS/Dijkstra path search, BFS-tree
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

    def add_content(self, content_id: Hashable, **attributes: Any) -> Hashable:
        """Add (or update) an annotation-content node."""
        self._graph.add_node(content_id, kind=NodeKind.CONTENT.value, **attributes)
        return content_id

    def add_referent(self, referent_id: Hashable, **attributes: Any) -> Hashable:
        """Add (or update) a referent (marked-substructure) node."""
        self._graph.add_node(referent_id, kind=NodeKind.REFERENT.value, **attributes)
        return referent_id

    def add_ontology_node(self, term_id: Hashable, **attributes: Any) -> Hashable:
        """Add (or update) an ontology-term node."""
        self._graph.add_node(term_id, kind=NodeKind.ONTOLOGY.value, **attributes)
        return term_id

    def link_annotation(self, content_id: Hashable, referent_id: Hashable, **attributes: Any) -> Edge:
        """Add the ``content --annotates--> referent`` edge."""
        self._require_kind(content_id, NodeKind.CONTENT)
        self._require_kind(referent_id, NodeKind.REFERENT)
        return self._graph.add_edge(content_id, referent_id, label=ANNOTATES, **attributes)

    def link_ontology(self, source_id: Hashable, term_id: Hashable, **attributes: Any) -> Edge:
        """Add a ``source --refers_to--> ontology`` edge."""
        if term_id not in self._graph or self._graph.node(term_id).kind != NodeKind.ONTOLOGY.value:
            raise AGraphError(f"{term_id!r} is not an ontology node")
        return self._graph.add_edge(source_id, term_id, label=REFERS_TO, **attributes)

    def link_referents(self, left_id: Hashable, right_id: Hashable, label: str = RELATES, **attributes: Any) -> Edge:
        """Add an inter-referent edge (e.g. sub-sequence to sequence)."""
        self._require_kind(left_id, NodeKind.REFERENT)
        self._require_kind(right_id, NodeKind.REFERENT)
        return self._graph.add_edge(left_id, right_id, label=label, **attributes)

    def unlink_annotation(self, content_id: Hashable, referent_id: Hashable) -> int:
        """Remove the ``content --annotates--> referent`` edge(s).

        The update path uses this when an annotation drops a referent: the
        edge goes, the referent node's survival is decided separately (it
        stays while any *other* content still annotates it).
        """
        return self._graph.remove_edges(content_id, referent_id, label=ANNOTATES)

    def unlink_ontology(self, source_id: Hashable, term_id: Hashable) -> int:
        """Remove the ``source --refers_to--> ontology`` edge(s).

        Ontology nodes themselves are never dropped here — they are shared
        vocabulary, and an unreferenced term node is harmless (and cheap).
        """
        return self._graph.remove_edges(source_id, term_id, label=REFERS_TO)

    def _require_kind(self, node_id: Hashable, kind: NodeKind) -> None:
        if node_id not in self._graph:
            raise UnknownNodeError(f"no node {node_id!r} in the a-graph")
        actual = self._graph.node(node_id).kind
        if actual != kind.value:
            raise AGraphError(f"node {node_id!r} has kind {actual!r}, expected {kind.value!r}")

    # -- typed accessors -------------------------------------------------------

    def contents(self) -> list[Hashable]:
        """Ids of every annotation-content node."""
        return [node.node_id for node in self._graph.nodes_of_kind(NodeKind.CONTENT.value)]

    def referents(self) -> list[Hashable]:
        """Ids of every referent node."""
        return [node.node_id for node in self._graph.nodes_of_kind(NodeKind.REFERENT.value)]

    def ontology_nodes(self) -> list[Hashable]:
        """Ids of every ontology node."""
        return [node.node_id for node in self._graph.nodes_of_kind(NodeKind.ONTOLOGY.value)]

    def referents_of(self, content_id: Hashable) -> list[Hashable]:
        """Referents annotated by *content_id*."""
        return self._graph.successors(content_id, label=ANNOTATES)

    def contents_annotating(self, referent_id: Hashable) -> list[Hashable]:
        """Contents that annotate *referent_id*."""
        return self._graph.predecessors(referent_id, label=ANNOTATES)

    def annotation_counts(self, referent_ids: Iterable[Hashable]) -> dict[Hashable, int]:
        """For a batch of referents, how many of them each content annotates.

        The one "referents -> annotation counts" step every spatial search
        shares: one indexed ``annotates`` in-edge walk per referent, counted
        in a plain dict keyed by content id.  Referent ids absent from the
        graph are skipped, so callers can feed store-level hits straight in.
        """
        counts: dict[Hashable, int] = {}
        get = counts.get
        graph = self._graph
        for referent_id in referent_ids:
            if referent_id not in graph:
                continue
            for edge in graph.iter_in_edges(referent_id, label=ANNOTATES):
                source = edge.source
                counts[source] = get(source, 0) + 1
        return counts

    def related_annotations(self, content_id: Hashable) -> set[Hashable]:
        """Other contents indirectly related to *content_id* through a shared
        referent.  This is the paper's "two annotations become indirectly
        related" relation."""
        related: set[Hashable] = set()
        graph = self._graph
        for edge in graph.iter_out_edges(content_id, label=ANNOTATES):
            for back in graph.iter_in_edges(edge.target, label=ANNOTATES):
                if back.source != content_id:
                    related.add(back.source)
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
        multigraph's neighbor-id index: the smaller frontier expands one full
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
        allowed = tuple(set(labels)) if labels is not None else None
        adjacency = self._graph.undirected_adjacency
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
                    groups = [buckets[label] for label in allowed if label in buckets]
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

    def weighted_path(
        self,
        node1: Hashable,
        node2: Hashable,
        weight_attribute: str = "weight",
        default_weight: float = 1.0,
    ) -> tuple[list[Hashable], float] | None:
        """Shortest *weighted* path (Dijkstra) between two nodes.

        Returns ``(path, total_cost)`` or ``None``.  Used by the connection
        primitive when edges carry a cost attribute.
        """
        if node1 not in self._graph or node2 not in self._graph:
            raise UnknownNodeError("both endpoints must be nodes in the a-graph")
        if not self._graph.same_component(node1, node2):
            return None
        distances: dict[Hashable, float] = {node1: 0.0}
        previous: dict[Hashable, Hashable] = {node1: node1}
        heap: list[tuple[float, int, Hashable]] = [(0.0, 0, node1)]
        counter = 0
        visited: set[Hashable] = set()
        graph = self._graph
        while heap:
            cost, _, current = heapq.heappop(heap)
            if current in visited:
                continue
            visited.add(current)
            if current == node2:
                return self._reconstruct(previous, node1, node2), cost
            for edge in graph.iter_incident(current):
                neighbor = edge.target if edge.source == current else edge.source
                if neighbor in visited:
                    continue
                step = float(edge.attribute(weight_attribute, default_weight))
                new_cost = cost + step
                if new_cost < distances.get(neighbor, float("inf")):
                    distances[neighbor] = new_cost
                    previous[neighbor] = current
                    counter += 1
                    heapq.heappush(heap, (new_cost, counter, neighbor))
        return None

    def all_paths(
        self,
        node1: Hashable,
        node2: Hashable,
        max_length: int = 6,
    ) -> list[list[Hashable]]:
        """Every simple path between two nodes up to *max_length* edges."""
        if node1 not in self._graph or node2 not in self._graph:
            raise UnknownNodeError("both endpoints must be nodes in the a-graph")
        results: list[list[Hashable]] = []
        graph = self._graph

        def walk(current: Hashable, target: Hashable, visited: list[Hashable]) -> None:
            if len(visited) - 1 > max_length:
                return
            if current == target:
                results.append(list(visited))
                return
            for neighbor in graph.iter_neighbors(current):
                if neighbor not in visited:
                    visited.append(neighbor)
                    walk(neighbor, target, visited)
                    visited.pop()

        walk(node1, node2, [node1])
        return results

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
        allowed = tuple(set(labels)) if labels is not None else None
        graph = self._graph
        distances: dict[Hashable, int] = {}
        frontier: list[Hashable] = []
        for source in sources:
            if source in graph and source not in distances:
                distances[source] = 0
                frontier.append(source)
        depth = 0
        adjacency = graph.undirected_adjacency
        while frontier and (max_depth is None or depth < max_depth):
            depth += 1
            next_frontier: list[Hashable] = []
            for current in frontier:
                buckets = adjacency[current]
                if allowed is None:
                    groups = buckets.values()
                else:
                    groups = [buckets[label] for label in allowed if label in buckets]
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
        allowed = tuple(set(labels)) if labels is not None else None
        adjacency = self._graph.undirected_adjacency
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
                groups = [buckets[label] for label in allowed if label in buckets]
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

    def connection_exists(self, *node_ids: Hashable) -> bool:
        """True when every requested node lies in one connected component."""
        terminals = tuple(node_ids)
        if len(terminals) < 2:
            raise AGraphError("connect() requires at least two nodes")
        first = terminals[0]
        return all(self._graph.same_component(first, terminal) for terminal in terminals[1:])

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

    def _incident_edges(self, node_id: Hashable, allowed: Iterable[str] | None) -> Iterable[Edge]:
        """Incident edges of *node_id*, optionally label-filtered (zero-copy)."""
        return self._graph.iter_incident(node_id, allowed)

    def _edges_along(self, path: list[Hashable]) -> list[Edge]:
        find_edge = self._graph.find_edge
        edges: list[Edge] = []
        for source, target in zip(path, path[1:]):
            edge = find_edge(source, target)
            if edge is not None:
                edges.append(edge)
        return edges

    def _find_edge(self, source: Hashable, target: Hashable) -> Edge | None:
        return self._graph.find_edge(source, target)

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

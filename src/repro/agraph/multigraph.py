"""Directed labeled multigraph with indexed adjacency.

The substrate of the a-graph: a directed graph that allows multiple, labeled
edges between the same pair of nodes (hence *multi*-graph).  Nodes carry a
kind and arbitrary attributes; edges carry a label and attributes.

Adjacency is indexed three ways so the query hot path never scans:

* **per-node / per-label adjacency** — ``_out[node][label] -> [Edge]`` (and
  the mirror ``_in``), so a label-filtered expansion touches only the edges
  with that label instead of filtering the full incident list;
* **pair index** — ``(source, target) -> [Edge]``, so path reconstruction
  finds the edge between two adjacent nodes in O(1) instead of scanning the
  source's incident lists;
* **kind index** — ``kind -> ordered set of node ids``, so
  :meth:`nodes_of_kind` stops scanning the whole node table.

On top of the adjacency indexes the graph maintains an **incremental
connected-component index** (union-find with size-balanced merging and path
compression, treating edges as undirected).  ``add_node``/``add_edge`` update
it in O(alpha); ``remove_node``/``remove_edges`` mark only the component they
touched as pending, and the next quiesce point (or component query)
re-derives just those components from their own adjacency.  Component
queries therefore cost O(1) after the (amortised) maintenance instead of a
BFS per call, and a removal costs the component it split, not the graph.

The ``iter_*`` accessors yield edges straight out of the index without
copying; the list-returning accessors (``out_edges`` et al.) are kept for
compatibility and defensive-copy semantics.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Hashable, Iterable, Iterator

from repro.errors import AGraphError, UnknownNodeError
from repro.analysis.annotations import requires_write_lock


@dataclass
class Node:
    """A graph node: an id, a kind tag, and free-form attributes."""

    node_id: Hashable
    kind: str = "node"
    attributes: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class Edge:
    """A directed labeled edge between two nodes."""

    source: Hashable
    target: Hashable
    label: str = ""
    attributes: tuple[tuple[str, Any], ...] = ()

    def attribute(self, name: str, default: Any = None) -> Any:
        """Value of attribute *name*, or *default*."""
        for key, value in self.attributes:
            if key == name:
                return value
        return default

    def reversed(self) -> "Edge":
        """The same edge with source/target swapped (for reverse walks)."""
        return Edge(self.target, self.source, self.label, self.attributes)


class LabeledMultigraph:
    """A directed labeled multigraph with indexed forward/backward adjacency."""

    def __init__(self) -> None:
        self._nodes: dict[Hashable, Node] = {}
        # node -> label -> edges (insertion order preserved within a label).
        self._out: dict[Hashable, dict[str, list[Edge]]] = {}
        self._in: dict[Hashable, dict[str, list[Edge]]] = {}
        # node -> label -> neighbor ids, both directions merged.  This is the
        # BFS expansion index: traversal touches plain id lists, never Edge
        # objects (parallel edges appear once per edge; self-loops once).
        self._undirected: dict[Hashable, dict[str, list[Hashable]]] = {}
        # (source, target) -> edges, for O(1) edge lookup along a path.
        self._pairs: dict[tuple[Hashable, Hashable], list[Edge]] = {}
        # kind -> ordered set of node ids (dict used as an ordered set).
        self._kinds: dict[str, dict[Hashable, None]] = {}
        self._label_counts: Counter[str] = Counter()
        self._out_degree: dict[Hashable, int] = {}
        self._in_degree: dict[Hashable, int] = {}
        self._edge_count = 0
        # Union-find component index (undirected view of the edges):
        # node -> parent, and root -> member set.
        self._uf_parent: dict[Hashable, Hashable] = {}
        self._uf_members: dict[Hashable, set[Hashable]] = {}
        # Roots of the components that lost a node or edge since they were
        # last derived.  A removed node stays in its component's member set
        # (and in ``_uf_parent``) until the re-derivation drops it, so finds
        # through it keep working and a re-added id rejoins the pending set.
        self._uf_pending: set[Hashable] = set()
        #: Nodes visited by component re-derivation so far (a work counter).
        self.rederived_nodes = 0

    # -- size ----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node_id: Hashable) -> bool:
        return node_id in self._nodes

    @property
    def node_count(self) -> int:
        """Number of nodes."""
        return len(self._nodes)

    @property
    def edge_count(self) -> int:
        """Number of edges."""
        return self._edge_count

    # -- nodes ----------------------------------------------------------------

    def add_node(self, node_id: Hashable, kind: str = "node", **attributes: Any) -> Node:
        """Add (or update) a node and return it."""
        node = self._nodes.get(node_id)
        if node is None:
            node = Node(node_id, kind, dict(attributes))
            self._nodes[node_id] = node
            self._out[node_id] = {}
            self._in[node_id] = {}
            self._undirected[node_id] = {}
            self._out_degree[node_id] = 0
            self._in_degree[node_id] = 0
            self._kinds.setdefault(kind, {})[node_id] = None
            if node_id not in self._uf_parent:  # else: removed, still pending
                self._uf_parent[node_id] = node_id
                self._uf_members[node_id] = {node_id}
        else:
            if node.kind != kind:
                old_bucket = self._kinds.get(node.kind)
                if old_bucket is not None:
                    old_bucket.pop(node_id, None)
                    if not old_bucket:
                        del self._kinds[node.kind]
                self._kinds.setdefault(kind, {})[node_id] = None
                node.kind = kind
            node.attributes.update(attributes)
        return node

    def node(self, node_id: Hashable) -> Node:
        """The node with id *node_id* (raises when absent)."""
        try:
            return self._nodes[node_id]
        except KeyError:
            raise UnknownNodeError(f"no node {node_id!r} in the graph") from None

    def has_node(self, node_id: Hashable) -> bool:
        """True when the node exists."""
        return node_id in self._nodes

    def nodes(self) -> Iterator[Node]:
        """Iterate over every node."""
        return iter(self._nodes.values())

    def node_ids(self) -> tuple[Hashable, ...]:
        """All node ids."""
        return tuple(self._nodes)

    def nodes_of_kind(self, kind: str) -> list[Node]:
        """All nodes whose kind equals *kind* (answered from the kind index)."""
        bucket = self._kinds.get(kind)
        if not bucket:
            return []
        return [self._nodes[node_id] for node_id in bucket]

    def kind_counts(self) -> dict[str, int]:
        """Map of kind -> number of nodes with that kind."""
        return {kind: len(bucket) for kind, bucket in self._kinds.items()}

    def remove_node(self, node_id: Hashable) -> None:
        """Remove a node and every incident edge.

        Only the node's own component is marked pending re-derivation (see
        :meth:`rebuild_components`); every other component stays as derived.
        """
        if node_id not in self._nodes:
            raise UnknownNodeError(f"no node {node_id!r} in the graph")
        # Detach outgoing edges from their targets' in-indexes first; a
        # self-loop is fully handled here and never appears in the in-pass.
        for label, edges in self._out[node_id].items():
            for edge in edges:
                self._unindex_edge(edge)
                if edge.target != node_id:
                    bucket = self._in[edge.target]
                    bucket[label] = [item for item in bucket[label] if item is not edge]
                    if not bucket[label]:
                        del bucket[label]
                    self._in_degree[edge.target] -= 1
                    self._drop_neighbor(edge.target, label, node_id)
        for label, edges in self._in[node_id].items():
            for edge in edges:
                if edge.source == node_id:
                    continue  # self-loop, already unindexed above
                self._unindex_edge(edge)
                bucket = self._out[edge.source]
                bucket[label] = [item for item in bucket[label] if item is not edge]
                if not bucket[label]:
                    del bucket[label]
                self._out_degree[edge.source] -= 1
                self._drop_neighbor(edge.source, label, node_id)
        node = self._nodes[node_id]
        kind_bucket = self._kinds.get(node.kind)
        if kind_bucket is not None:
            kind_bucket.pop(node_id, None)
            if not kind_bucket:
                del self._kinds[node.kind]
        del self._out[node_id]
        del self._in[node_id]
        del self._undirected[node_id]
        del self._out_degree[node_id]
        del self._in_degree[node_id]
        del self._nodes[node_id]
        # Splitting a union-find set is not incremental: re-derive this one
        # component (not the graph) at the next quiesce point.
        self._uf_pending.add(self._find(node_id))

    def _drop_neighbor(self, node_id: Hashable, label: str, neighbor: Hashable) -> None:
        bucket = self._undirected[node_id]
        bucket[label].remove(neighbor)
        if not bucket[label]:
            del bucket[label]

    def _unindex_edge(self, edge: Edge) -> None:
        key = (edge.source, edge.target)
        remaining = [item for item in self._pairs[key] if item is not edge]
        if remaining:
            self._pairs[key] = remaining
        else:
            del self._pairs[key]
        self._label_counts[edge.label] -= 1
        if not self._label_counts[edge.label]:
            del self._label_counts[edge.label]
        self._edge_count -= 1

    def remove_edges(self, source: Hashable, target: Hashable, label: str | None = None) -> int:
        """Remove every directed ``source -> target`` edge (optionally only
        those carrying *label*); returns how many edges were removed.

        This is the surgical counterpart of :meth:`remove_node` for the
        mutation-lifecycle paths that rewire one relationship (an annotation
        dropping a referent it no longer marks, a content unlinking an
        ontology term) without touching either endpoint node.  Removing an
        edge can split a component, so the endpoints' component is marked
        pending re-derivation exactly like :meth:`remove_node` does.
        """
        if source not in self._nodes:
            raise UnknownNodeError(f"no node {source!r} in the graph")
        if target not in self._nodes:
            raise UnknownNodeError(f"no node {target!r} in the graph")
        doomed = [
            edge
            for edge in self._pairs.get((source, target), ())
            if label is None or edge.label == label
        ]
        for edge in doomed:
            self._unindex_edge(edge)
            out_bucket = self._out[source]
            out_bucket[edge.label] = [item for item in out_bucket[edge.label] if item is not edge]
            if not out_bucket[edge.label]:
                del out_bucket[edge.label]
            in_bucket = self._in[target]
            in_bucket[edge.label] = [item for item in in_bucket[edge.label] if item is not edge]
            if not in_bucket[edge.label]:
                del in_bucket[edge.label]
            self._out_degree[source] -= 1
            self._in_degree[target] -= 1
            self._drop_neighbor(source, edge.label, target)
            if source != target:
                self._drop_neighbor(target, edge.label, source)
        if doomed:
            self._uf_pending.add(self._find(source))  # may have split it
        return len(doomed)

    # -- edges ----------------------------------------------------------------

    def add_edge(
        self,
        source: Hashable,
        target: Hashable,
        label: str = "",
        **attributes: Any,
    ) -> Edge:
        """Add a directed labeled edge (endpoints must already exist)."""
        if source not in self._nodes:
            raise UnknownNodeError(f"edge source {source!r} is not a node")
        if target not in self._nodes:
            raise UnknownNodeError(f"edge target {target!r} is not a node")
        edge = Edge(source, target, label, tuple(sorted(attributes.items())))
        self._out[source].setdefault(label, []).append(edge)
        self._in[target].setdefault(label, []).append(edge)
        self._undirected[source].setdefault(label, []).append(target)
        if source != target:
            self._undirected[target].setdefault(label, []).append(source)
        self._pairs.setdefault((source, target), []).append(edge)
        self._label_counts[label] += 1
        self._out_degree[source] += 1
        self._in_degree[target] += 1
        self._edge_count += 1
        self._union(source, target)
        return edge

    def out_edges(self, node_id: Hashable) -> list[Edge]:
        """Outgoing edges of *node_id* (a fresh list; see ``iter_out_edges``)."""
        return list(self.iter_out_edges(node_id))

    def in_edges(self, node_id: Hashable) -> list[Edge]:
        """Incoming edges of *node_id* (a fresh list; see ``iter_in_edges``)."""
        return list(self.iter_in_edges(node_id))

    def iter_out_edges(self, node_id: Hashable, label: str | None = None) -> Iterator[Edge]:
        """Yield outgoing edges without copying, optionally one label only."""
        try:
            buckets = self._out[node_id]
        except KeyError:
            raise UnknownNodeError(f"no node {node_id!r} in the graph") from None
        if label is not None:
            yield from buckets.get(label, ())
            return
        for edges in buckets.values():
            yield from edges

    def iter_in_edges(self, node_id: Hashable, label: str | None = None) -> Iterator[Edge]:
        """Yield incoming edges without copying, optionally one label only."""
        try:
            buckets = self._in[node_id]
        except KeyError:
            raise UnknownNodeError(f"no node {node_id!r} in the graph") from None
        if label is not None:
            yield from buckets.get(label, ())
            return
        for edges in buckets.values():
            yield from edges

    def iter_incident(
        self, node_id: Hashable, labels: Iterable[str] | None = None
    ) -> Iterator[Edge]:
        """Yield every incident edge (out then in), optionally label-filtered.

        This is the zero-copy expansion step the BFS primitives use: no list
        concatenation, and a label filter hits only the matching buckets.
        """
        try:
            out_buckets = self._out[node_id]
        except KeyError:
            raise UnknownNodeError(f"no node {node_id!r} in the graph") from None
        in_buckets = self._in[node_id]
        if labels is None:
            for edges in out_buckets.values():
                yield from edges
            for edges in in_buckets.values():
                yield from edges
            return
        for label in labels:
            yield from out_buckets.get(label, ())
            yield from in_buckets.get(label, ())

    def edges_between(self, source: Hashable, target: Hashable) -> list[Edge]:
        """Every directed edge from *source* to *target* (pair index lookup)."""
        return list(self._pairs.get((source, target), ()))

    def find_edge(self, source: Hashable, target: Hashable) -> Edge | None:
        """One edge joining the two nodes in either direction, or ``None``."""
        edges = self._pairs.get((source, target))
        if edges:
            return edges[0]
        edges = self._pairs.get((target, source))
        if edges:
            return edges[0]
        return None

    def has_edge(self, source: Hashable, target: Hashable) -> bool:
        """True when a directed ``source -> target`` edge exists."""
        return (source, target) in self._pairs

    def edges(self) -> Iterator[Edge]:
        """Iterate over every edge."""
        for buckets in self._out.values():
            for edges in buckets.values():
                yield from edges

    def successors(self, node_id: Hashable, label: str | None = None) -> list[Hashable]:
        """Targets of outgoing edges (optionally filtered by label)."""
        return [edge.target for edge in self.iter_out_edges(node_id, label)]

    def predecessors(self, node_id: Hashable, label: str | None = None) -> list[Hashable]:
        """Sources of incoming edges (optionally filtered by label)."""
        return [edge.source for edge in self.iter_in_edges(node_id, label)]

    def neighbors_undirected(self, node_id: Hashable) -> set[Hashable]:
        """All nodes connected to *node_id* ignoring edge direction."""
        buckets = self.neighbor_buckets(node_id)
        neighbors: set[Hashable] = set()
        for ids in buckets.values():
            neighbors.update(ids)
        return neighbors

    @property
    def undirected_adjacency(self) -> dict[Hashable, dict[str, list[Hashable]]]:
        """The whole BFS expansion index: node -> label -> neighbor ids.

        Exposed for tight traversal loops that cannot afford a method call
        per expanded node.  The mapping is live graph structure and MUST NOT
        be mutated by callers.
        """
        return self._undirected

    def neighbor_buckets(self, node_id: Hashable) -> dict[str, list[Hashable]]:
        """Undirected neighbor ids of *node_id*, bucketed by edge label.

        This is the raw BFS expansion index: the returned mapping is the
        graph's own structure (label -> neighbor-id list, one entry per
        incident edge) and MUST NOT be mutated by callers.  Traversals iterate
        these plain id lists instead of materializing Edge objects.
        """
        try:
            return self._undirected[node_id]
        except KeyError:
            raise UnknownNodeError(f"no node {node_id!r} in the graph") from None

    def iter_neighbors(
        self, node_id: Hashable, labels: Iterable[str] | None = None
    ) -> Iterator[Hashable]:
        """Yield undirected neighbor ids (one per incident edge), optionally
        restricted to the given labels."""
        buckets = self.neighbor_buckets(node_id)
        if labels is None:
            for ids in buckets.values():
                yield from ids
            return
        for label in labels:
            yield from buckets.get(label, ())

    def degree(self, node_id: Hashable) -> int:
        """Total degree (in + out) of *node_id* (O(1) from the degree index)."""
        if node_id not in self._nodes:
            raise UnknownNodeError(f"no node {node_id!r} in the graph")
        return self._out_degree[node_id] + self._in_degree[node_id]

    def out_degree(self, node_id: Hashable) -> int:
        """Number of outgoing edges of *node_id*."""
        if node_id not in self._nodes:
            raise UnknownNodeError(f"no node {node_id!r} in the graph")
        return self._out_degree[node_id]

    def in_degree(self, node_id: Hashable) -> int:
        """Number of incoming edges of *node_id*."""
        if node_id not in self._nodes:
            raise UnknownNodeError(f"no node {node_id!r} in the graph")
        return self._in_degree[node_id]

    def labels(self) -> set[str]:
        """Distinct edge labels present in the graph."""
        return set(self._label_counts)

    # -- connected components (incremental union-find) -------------------------

    def _find(self, node_id: Hashable) -> Hashable:
        parent = self._uf_parent
        root = node_id
        while parent[root] != root:
            root = parent[root]
        while parent[node_id] != root:  # path compression
            parent[node_id], node_id = root, parent[node_id]
        return root

    def _union(self, a: Hashable, b: Hashable) -> None:
        root_a, root_b = self._find(a), self._find(b)
        if root_a == root_b:
            return
        members = self._uf_members
        if len(members[root_a]) < len(members[root_b]):
            root_a, root_b = root_b, root_a
        self._uf_parent[root_b] = root_a
        members[root_a] |= members.pop(root_b)
        if root_b in self._uf_pending:  # a merge with a pending component is pending
            self._uf_pending.remove(root_b)
            self._uf_pending.add(root_a)

    def _rederive(self, members: Iterable[Hashable]) -> None:
        """Derive the components of *members* from their own adjacency.

        *members* must be closed under adjacency (whole components, or every
        node); ids no longer in the graph are dropped from the index.
        """
        parent, groups, adjacency = self._uf_parent, self._uf_members, self._undirected
        placed: set[Hashable] = set()
        for start in members:
            if start in placed:
                continue
            if start not in adjacency:  # removed since the last derivation
                parent.pop(start, None)
                continue
            component = {start}
            frontier = [start]
            while frontier:
                for neighbors in adjacency[frontier.pop()].values():
                    for neighbor in neighbors:
                        if neighbor not in component:
                            component.add(neighbor)
                            frontier.append(neighbor)
            for member in component:
                parent[member] = start
            groups[start] = component
            placed |= component
        self.rederived_nodes += len(placed)

    def _rebuild_components(self) -> None:
        """From-scratch derivation: the same routine applied to every node."""
        self._uf_parent.clear()
        self._uf_members.clear()
        self._uf_pending.clear()
        self._rederive(self._nodes)

    def _ensure_components(self) -> bool:
        """Re-derive the pending components; True when there were any."""
        pending = self._uf_pending
        if not pending:
            return False
        self._uf_pending = set()
        for root in pending:
            self._rederive(self._uf_members.pop(root))
        return True

    @property
    def components_stale(self) -> bool:
        """True while a removal has left some component pending re-derivation."""
        return bool(self._uf_pending)

    @requires_write_lock
    def rebuild_components(self) -> bool:
        """Re-derive now the components a removal touched, if any.

        ``remove_node`` / ``remove_edges`` record the component they may have
        split and defer its re-derivation to the next component query.
        Callers with a natural quiesce point (the serving layer's mutation
        apply, checkpoint and recovery) invoke this explicitly so no reader
        ever pays — or races — the deferred work.  The cost is proportional
        to the pending components, not the graph.  Returns True when
        something was re-derived.
        """
        return self._ensure_components()

    def component_root(self, node_id: Hashable) -> Hashable:
        """Canonical representative of the component containing *node_id*.

        Two nodes are in the same component iff their roots are equal; the
        root itself is an arbitrary member and may change across mutations.
        """
        if node_id not in self._nodes:
            raise UnknownNodeError(f"no node {node_id!r} in the graph")
        self._ensure_components()
        return self._find(node_id)

    def component_members(self, node_id: Hashable) -> set[Hashable]:
        """The full connected component containing *node_id* (a fresh set)."""
        return set(self._uf_members[self.component_root(node_id)])

    def component_size(self, node_id: Hashable) -> int:
        """Size of the component containing *node_id*."""
        return len(self._uf_members[self.component_root(node_id)])

    def same_component(self, a: Hashable, b: Hashable) -> bool:
        """True when both nodes lie in one connected component."""
        return self.component_root(a) == self.component_root(b)

    @property
    def component_count(self) -> int:
        """Number of connected components."""
        self._ensure_components()
        return len(self._uf_members)

    def components(self) -> list[set[Hashable]]:
        """Every connected component as a fresh set of node ids."""
        self._ensure_components()
        return [set(members) for members in self._uf_members.values()]

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible representation."""
        return {
            "nodes": [
                {"id": node.node_id, "kind": node.kind, "attributes": node.attributes}
                for node in self._nodes.values()
            ],
            "edges": [
                {
                    "source": edge.source,
                    "target": edge.target,
                    "label": edge.label,
                    "attributes": dict(edge.attributes),
                }
                for edge in self.edges()
            ],
        }

"""Directed labeled multigraph stored as one adjacency map.

The substrate of the a-graph: a directed graph that allows multiple, labeled
edges between the same pair of nodes (hence *multi*-graph).  A node is an id
and a kind; an edge is its two endpoint ids and a label, and nothing else.

The graph holds two structures besides its edge count and component index:

* **the adjacency map** — ``node -> (label, OUT | IN) -> [neighbour ids]``.
  An edge ``s --label--> t`` is one entry ``t`` under ``s``'s
  ``(label, OUT)`` bucket and one entry ``s`` under ``t``'s ``(label, IN)``
  bucket, in insertion order.  A traversal that ignores direction iterates a
  node's bucket values; a directed read (successors, predecessors, the
  edges feeding a node) reads one bucket;
* **the kind index** — ``kind -> ordered set of node ids``, so
  :meth:`nodes_of_kind` never scans the node table.

:class:`Edge` values are built on demand, for callers that want edge
records (connection subgraphs, :meth:`edges`, the wire codec).

On top of the adjacency the graph maintains an **incremental
connected-component index** (union-find with size-balanced merging and path
compression, treating edges as undirected).  ``add_node``/``add_edge`` update
it in O(alpha); ``remove_node``/``remove_edge`` mark only the component they
touched as pending, and the next quiesce point (or component query)
re-derives just those components from their own adjacency.  Component
queries therefore cost O(1) after the (amortised) maintenance instead of a
BFS per call, and a removal costs the component it split, not the graph.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterable, Iterator, Mapping, NamedTuple

from repro.errors import AGraphError, UnknownNodeError
from repro.analysis.annotations import requires_write_lock

#: Bucket directions: the bucket of a node's outgoing, or incoming, edges.
OUT, IN = "out", "in"

#: One shared ``(label, direction)`` key object per distinct key, so every
#: node's buckets reference it instead of holding a tuple of their own
#: (lookups may pass any equal tuple).
_KEYS: dict[tuple[str, str], tuple[str, str]] = {}


def _key(label: str, direction: str) -> tuple[str, str]:
    key = (label, direction)
    return _KEYS.setdefault(key, key)


class Edge(NamedTuple):
    """A directed labeled edge between two nodes."""

    source: Hashable
    target: Hashable
    label: str = ""


class LabeledMultigraph:
    """A directed labeled multigraph over one ``(label, direction)`` adjacency map."""

    def __init__(self) -> None:
        self._kind: dict[Hashable, str] = {}
        # kind -> ordered set of node ids (dict used as an ordered set).
        self._kinds: dict[str, dict[Hashable, None]] = {}
        # node -> (label, OUT | IN) -> neighbour ids, one entry per edge end.
        self._adjacency: dict[Hashable, dict[tuple[str, str], list[Hashable]]] = {}
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
        return len(self._kind)

    def __contains__(self, node_id: Hashable) -> bool:
        return node_id in self._kind

    @property
    def node_count(self) -> int:
        """Number of nodes."""
        return len(self._kind)

    @property
    def edge_count(self) -> int:
        """Number of edges."""
        return self._edge_count

    @property
    def adjacency(self) -> Mapping[Hashable, dict[tuple[str, str], list[Hashable]]]:
        """The adjacency map: node -> ``(label, OUT | IN)`` -> neighbour ids.

        Exposed for tight traversal loops that cannot afford a method call
        per expanded node.  The mapping and its buckets are live graph
        structure and MUST NOT be mutated by callers.
        """
        return self._adjacency

    def _buckets(self, node_id: Hashable) -> dict[tuple[str, str], list[Hashable]]:
        try:
            return self._adjacency[node_id]
        except KeyError:
            raise UnknownNodeError(f"no node {node_id!r} in the graph") from None

    # -- nodes ----------------------------------------------------------------

    def add_node(self, node_id: Hashable, kind: str = "node") -> None:
        """Add a node; adding an existing node with its own kind is a no-op.

        Raises :class:`~repro.errors.AGraphError`, changing nothing, when
        *node_id* already holds another kind.
        """
        held = self._kind.get(node_id)
        if held is not None:
            if held != kind:
                raise AGraphError(f"node {node_id!r} is a {held} node, not a {kind} node")
            return
        self._kind[node_id] = kind
        self._adjacency[node_id] = {}
        self._kinds.setdefault(kind, {})[node_id] = None
        if node_id not in self._uf_parent:  # else: removed, still pending
            self._uf_parent[node_id] = node_id
            self._uf_members[node_id] = {node_id}

    def kind(self, node_id: Hashable) -> str:
        """The kind of node *node_id* (raises when absent)."""
        try:
            return self._kind[node_id]
        except KeyError:
            raise UnknownNodeError(f"no node {node_id!r} in the graph") from None

    def node_ids(self) -> tuple[Hashable, ...]:
        """All node ids."""
        return tuple(self._kind)

    def nodes_of_kind(self, kind: str) -> list[Hashable]:
        """Ids of the nodes whose kind equals *kind* (from the kind index)."""
        return list(self._kinds.get(kind, ()))

    def kind_counts(self) -> dict[str, int]:
        """Map of kind -> number of nodes with that kind."""
        return {kind: len(bucket) for kind, bucket in self._kinds.items()}

    def remove_node(self, node_id: Hashable) -> None:
        """Remove a node and every incident edge.

        Only the node's own component is marked pending re-derivation (see
        :meth:`rebuild_components`); every other component stays as derived.
        """
        buckets = self._buckets(node_id)
        for (label, direction), neighbours in buckets.items():
            mirror = (label, IN if direction == OUT else OUT)
            for neighbour in neighbours:
                if neighbour != node_id:  # a self-loop's other end goes with the node
                    self._drop(neighbour, mirror, node_id)
                    self._edge_count -= 1
                elif direction == OUT:
                    self._edge_count -= 1
        kind = self._kind.pop(node_id)
        kind_bucket = self._kinds[kind]
        del kind_bucket[node_id]
        if not kind_bucket:
            del self._kinds[kind]
        del self._adjacency[node_id]
        # Splitting a union-find set is not incremental: re-derive this one
        # component (not the graph) at the next quiesce point.
        self._uf_pending.add(self._find(node_id))

    def _drop(self, node_id: Hashable, key: tuple[str, str], neighbour: Hashable) -> None:
        buckets = self._adjacency[node_id]
        neighbours = buckets[key]
        neighbours.remove(neighbour)
        if not neighbours:
            del buckets[key]

    # -- edges ----------------------------------------------------------------

    def add_edge(self, source: Hashable, target: Hashable, label: str = "") -> None:
        """Add a directed labeled edge (endpoints must already exist)."""
        adjacency = self._adjacency
        if source not in adjacency:
            raise UnknownNodeError(f"edge source {source!r} is not a node")
        if target not in adjacency:
            raise UnknownNodeError(f"edge target {target!r} is not a node")
        adjacency[source].setdefault(_key(label, OUT), []).append(target)
        adjacency[target].setdefault(_key(label, IN), []).append(source)
        self._edge_count += 1
        self._union(source, target)

    def remove_edge(self, source: Hashable, target: Hashable, label: str) -> bool:
        """Remove one directed ``source -> target`` edge carrying *label*;
        returns False when there is none.

        This is the surgical counterpart of :meth:`remove_node` for the
        mutation-lifecycle paths that retract one relationship without
        touching either endpoint node.  Removing an edge can split a
        component, so the endpoints' component is marked pending
        re-derivation exactly like :meth:`remove_node` does.
        """
        if target not in self._adjacency.get(source, {}).get((label, OUT), ()):
            return False
        self._drop(source, (label, OUT), target)
        self._drop(target, (label, IN), source)
        self._edge_count -= 1
        self._uf_pending.add(self._find(source))  # may have split it
        return True

    def iter_out_edges(self, node_id: Hashable, label: str | None = None) -> Iterator[Edge]:
        """Yield outgoing edges, optionally one label only."""
        for (edge_label, direction), targets in self._buckets(node_id).items():
            if direction == OUT and label in (None, edge_label):
                for target in targets:
                    yield Edge(node_id, target, edge_label)

    def in_edges(self, node_id: Hashable) -> list[Edge]:
        """Incoming edges of *node_id*."""
        return [
            Edge(source, node_id, label)
            for (label, direction), sources in self._buckets(node_id).items()
            if direction == IN
            for source in sources
        ]

    def edges_between(self, source: Hashable, target: Hashable) -> list[Edge]:
        """Every directed edge from *source* to *target*."""
        return [edge for edge in self.iter_out_edges(source) if edge.target == target]

    def find_edge(self, source: Hashable, target: Hashable) -> Edge | None:
        """One edge joining the two nodes, preferring ``source -> target``
        over ``target -> source``, or ``None``."""
        for tail, head in ((source, target), (target, source)):
            for (label, direction), heads in self._adjacency.get(tail, {}).items():
                if direction == OUT and head in heads:
                    return Edge(tail, head, label)
        return None

    def has_edge(self, source: Hashable, target: Hashable) -> bool:
        """True when a directed ``source -> target`` edge exists."""
        return any(
            direction == OUT and target in targets
            for (_, direction), targets in self._adjacency.get(source, {}).items()
        )

    def edges(self) -> Iterator[Edge]:
        """Iterate over every edge."""
        for node_id in self._adjacency:
            yield from self.iter_out_edges(node_id)

    def successors(self, node_id: Hashable, label: str | None = None) -> list[Hashable]:
        """Targets of outgoing edges (optionally filtered by label)."""
        return self._ends(node_id, OUT, label)

    def predecessors(self, node_id: Hashable, label: str | None = None) -> list[Hashable]:
        """Sources of incoming edges (optionally filtered by label)."""
        return self._ends(node_id, IN, label)

    def _ends(self, node_id: Hashable, direction: str, label: str | None) -> list[Hashable]:
        buckets = self._buckets(node_id)
        if label is not None:
            return list(buckets.get((label, direction), ()))
        return [
            neighbour
            for (_, bucket_direction), neighbours in buckets.items()
            if bucket_direction == direction
            for neighbour in neighbours
        ]

    def neighbors_undirected(self, node_id: Hashable) -> set[Hashable]:
        """All nodes connected to *node_id* ignoring edge direction."""
        return set(self.iter_neighbors(node_id))

    def iter_neighbors(
        self, node_id: Hashable, labels: Iterable[str] | None = None
    ) -> Iterator[Hashable]:
        """Yield undirected neighbour ids (one per edge end), optionally
        restricted to the given labels."""
        buckets = self._buckets(node_id)
        if labels is None:
            for neighbours in buckets.values():
                yield from neighbours
            return
        for label in labels:
            yield from buckets.get((label, OUT), ())
            yield from buckets.get((label, IN), ())

    def degree(self, node_id: Hashable) -> int:
        """Total degree (in + out) of *node_id*; a self-loop counts twice."""
        return sum(len(neighbours) for neighbours in self._buckets(node_id).values())

    def out_degree(self, node_id: Hashable) -> int:
        """Number of outgoing edges of *node_id*."""
        return len(self._ends(node_id, OUT, None))

    def in_degree(self, node_id: Hashable) -> int:
        """Number of incoming edges of *node_id*."""
        return len(self._ends(node_id, IN, None))

    def labels(self) -> set[str]:
        """Distinct edge labels present in the graph."""
        return {label for buckets in self._adjacency.values() for label, _ in buckets}

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
        parent, groups, adjacency = self._uf_parent, self._uf_members, self._adjacency
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
        self._rederive(self._kind)

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

        ``remove_node`` / ``remove_edge`` record the component they may have
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
        if node_id not in self._kind:
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
            "nodes": [{"id": node_id, "kind": kind} for node_id, kind in self._kind.items()],
            "edges": [edge._asdict() for edge in self.edges()],
        }

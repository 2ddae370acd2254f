"""The pre-indexing labeled multigraph engine, kept as a benchmark baseline.

This module preserves the access paths the a-graph substrate used before the
indexed-adjacency refactor, so ``benchmarks/bench_adjacency_engine.py`` can
measure the refactor against the exact code shape it replaced:

* adjacency stored as one flat edge list per node — every access copies the
  list, and a label filter is a linear scan over all incident edges;
* ``path()`` concatenates the out- and in-lists on every BFS expansion;
* connected components are recomputed with a full BFS sweep per query;
* ``connect()`` re-runs ``path()`` from the anchor once per terminal;
* pairwise path evaluation runs one BFS per (source, target) pair.

It intentionally mirrors the old :class:`LabeledMultigraph`/`AGraph` API
surface the benchmarks exercise; it is not meant for production use.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Hashable, Iterable

from repro.errors import UnknownNodeError


class UnindexedMultigraph:
    """Flat-edge-list multigraph: the pre-refactor adjacency representation."""

    def __init__(self) -> None:
        self._nodes: dict[Hashable, str] = {}
        self._out: dict[Hashable, list[tuple[Hashable, Hashable, str]]] = {}
        self._in: dict[Hashable, list[tuple[Hashable, Hashable, str]]] = {}
        self._edge_count = 0

    @property
    def node_count(self) -> int:
        """Number of nodes."""
        return len(self._nodes)

    @property
    def edge_count(self) -> int:
        """Number of edges."""
        return self._edge_count

    def __contains__(self, node_id: Hashable) -> bool:
        return node_id in self._nodes

    def add_node(self, node_id: Hashable, kind: str = "node") -> None:
        """Add (or update the kind of) a node."""
        if node_id not in self._nodes:
            self._out[node_id] = []
            self._in[node_id] = []
        self._nodes[node_id] = kind

    def add_edge(self, source: Hashable, target: Hashable, label: str = "") -> None:
        """Add a directed labeled edge (endpoints must already exist)."""
        if source not in self._nodes or target not in self._nodes:
            raise UnknownNodeError("both endpoints must exist")
        edge = (source, target, label)
        self._out[source].append(edge)
        self._in[target].append(edge)
        self._edge_count += 1

    def node_kind(self, node_id: Hashable) -> str:
        """The kind tag of *node_id*."""
        return self._nodes[node_id]

    def node_ids(self) -> tuple[Hashable, ...]:
        """All node ids."""
        return tuple(self._nodes)

    def nodes_of_kind(self, kind: str) -> list[Hashable]:
        """Node ids of *kind*, by full node-table scan (the old access path)."""
        return [node_id for node_id, node_kind in self._nodes.items() if node_kind == kind]

    def incident_edges(
        self, node_id: Hashable, allowed: set[str] | None = None
    ) -> list[tuple[Hashable, Hashable, str]]:
        """Concatenated out+in edge lists, linearly filtered by label.

        Mirrors the pre-refactor ``AGraph._incident_edges`` shape exactly:
        the out- and in-lists are defensively copied (the old ``out_edges`` /
        ``in_edges`` accessors), concatenated, and label-filtered by scan.
        """
        edges = list(self._out[node_id]) + list(self._in[node_id])
        if allowed is None:
            return edges
        return [edge for edge in edges if edge[2] in allowed]

    def neighbors_undirected(self, node_id: Hashable) -> set[Hashable]:
        """Undirected neighbours, re-derived from the flat lists per call."""
        neighbors = {target for _, target, _ in self._out[node_id]}
        neighbors |= {source for source, _, _ in self._in[node_id]}
        return neighbors

    # -- pre-refactor traversal algorithms ------------------------------------

    def path(
        self, node1: Hashable, node2: Hashable, labels: Iterable[str] | None = None
    ) -> list[Hashable] | None:
        """Shortest undirected path; list-concatenating BFS expansion."""
        if node1 not in self._nodes or node2 not in self._nodes:
            raise UnknownNodeError("both endpoints must exist")
        if node1 == node2:
            return [node1]
        allowed = set(labels) if labels is not None else None
        previous: dict[Hashable, Hashable] = {node1: node1}
        queue: deque[Hashable] = deque([node1])
        while queue:
            current = queue.popleft()
            for source, target, _ in self.incident_edges(current, allowed):
                neighbor = target if source == current else source
                if neighbor not in previous:
                    previous[neighbor] = current
                    if neighbor == node2:
                        return _reconstruct(previous, node1, node2)
                    queue.append(neighbor)
        return None

    def connected_component(self, node_id: Hashable) -> set[Hashable]:
        """Component by BFS sweep (recomputed from scratch on every call)."""
        seen = {node_id}
        queue = deque([node_id])
        while queue:
            current = queue.popleft()
            for neighbor in self.neighbors_undirected(current):
                if neighbor not in seen:
                    seen.add(neighbor)
                    queue.append(neighbor)
        return seen

    def connected_components(self) -> list[set[Hashable]]:
        """All components, one BFS sweep per undiscovered node."""
        seen: set[Hashable] = set()
        components: list[set[Hashable]] = []
        for node in self._nodes:
            if node not in seen:
                component = self.connected_component(node)
                seen |= component
                components.append(component)
        return components

    def connect_nodes(self, *node_ids: Hashable):
        """Star-of-paths connection, the pre-refactor way: one ``path()`` BFS
        per terminal, then a linear incident-list scan per hop to materialize
        the edges along each path (the old ``AGraph._find_edge``)."""
        terminals = tuple(node_ids)
        anchor = terminals[0]
        results = []
        for terminal in terminals[1:]:
            path = self.path(anchor, terminal)
            if path is None:
                continue
            edges = []
            for source, target in zip(path, path[1:]):
                edge = self._find_edge_scan(source, target)
                if edge is not None:
                    edges.append(edge)
            results.append((path, edges))
        return results

    def _find_edge_scan(
        self, source: Hashable, target: Hashable
    ) -> tuple[Hashable, Hashable, str] | None:
        for edge in self._out[source]:
            if edge[1] == target:
                return edge
        for edge in self._in[source]:
            if edge[0] == target:
                return edge
        return None

    def pairwise_path_eval(
        self,
        sources: Iterable[Hashable],
        targets: Iterable[Hashable],
        max_length: int,
        kind: str = "content",
    ) -> set[Hashable]:
        """The old path-constraint evaluation: a BFS per (source, target)."""
        reachable: set[Hashable] = set()
        target_list = list(targets)
        for source in sources:
            for target in target_list:
                if source == target:
                    reachable.add(source)
                    continue
                path = self.path(source, target)
                if path is not None and len(path) - 1 <= max_length:
                    reachable.update(
                        node for node in path if self._nodes[node] == kind
                    )
        return reachable

    def group_by_component(self, node_ids: Iterable[Hashable]) -> list[list[Hashable]]:
        """The old result-page grouping: a component BFS per result seed."""
        remaining = set(node_ids)
        groups: list[list[Hashable]] = []
        while remaining:
            seed = next(iter(remaining))
            component = self.connected_component(seed)
            groups.append(sorted(remaining & component, key=repr))
            remaining -= component
        return groups


def _reconstruct(
    previous: dict[Hashable, Hashable], start: Hashable, end: Hashable
) -> list[Hashable]:
    path = [end]
    while path[-1] != start:
        path.append(previous[path[-1]])
    path.reverse()
    return path


def mirror_agraph(agraph: Any) -> UnindexedMultigraph:
    """Copy an :class:`~repro.agraph.agraph.AGraph`'s structure into the
    unindexed baseline representation (same nodes, kinds, and edges)."""
    mirror = UnindexedMultigraph()
    graph = agraph.graph
    for node_id in graph.node_ids():
        mirror.add_node(node_id, kind=graph.kind(node_id))
    for edge in graph.edges():
        mirror.add_edge(edge.source, edge.target, label=edge.label)
    return mirror

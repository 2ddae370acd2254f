"""Connection subgraphs returned by the a-graph ``connect`` primitive.

``connect(node1, node2, ...)`` "returns a connection subgraph intervening the
given nodes".  A :class:`ConnectionSubgraph` is the result value: the set of
nodes and edges that together connect the requested terminals, plus the paths
that justify the connection.  It is a self-contained value object so callers
(examples, the query processor, tests) can inspect, count, and serialize a
result without touching the full a-graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Hashable

from repro.agraph.multigraph import Edge


@dataclass
class ConnectionSubgraph:
    """A subgraph connecting a set of terminal nodes.

    Parameters
    ----------
    terminals:
        The nodes the connection was requested between.
    nodes:
        Every node in the connection subgraph (terminals + intervening nodes).
    edges:
        Every edge in the connection subgraph.
    paths:
        The concrete paths (node-id sequences) that justify the connection.
    """

    terminals: tuple[Hashable, ...]
    nodes: set[Hashable] = field(default_factory=set)
    edges: list[Edge] = field(default_factory=list)
    paths: list[list[Hashable]] = field(default_factory=list)
    #: Set mirror of ``edges`` so membership checks stay O(1) as subgraphs
    #: grow.
    _edge_set: set[Edge] = field(default_factory=set, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._edge_set = set(self.edges)

    @property
    def is_connected(self) -> bool:
        """True when every terminal appears in the subgraph's node set."""
        return all(terminal in self.nodes for terminal in self.terminals)

    @property
    def node_count(self) -> int:
        """Number of nodes in the connection subgraph."""
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        """Number of edges in the connection subgraph."""
        return len(self.edges)

    @property
    def intervening_nodes(self) -> set[Hashable]:
        """Nodes that are not terminals (the 'intervening' nodes)."""
        return self.nodes - set(self.terminals)

    def add_path(self, path: list[Hashable], edges: list[Edge]) -> None:
        """Fold a path and its edges into the connection subgraph."""
        self.paths.append(list(path))
        self.nodes.update(path)
        for edge in edges:
            if edge not in self._edge_set:
                self._edge_set.add(edge)
                self.edges.append(edge)

    def merge(self, other: "ConnectionSubgraph") -> None:
        """Merge another connection subgraph into this one."""
        self.nodes.update(other.nodes)
        for edge in other.edges:
            if edge not in self._edge_set:
                self._edge_set.add(edge)
                self.edges.append(edge)
        self.paths.extend(other.paths)

    #: Optional per-type witness metadata attached by the query executor when
    #: it collates "type-extended connection subgraphs" (see the paper's query
    #: processor).  Maps a data-type name to the referent ids of that type in
    #: this subgraph, plus any computed intersections of co-located referents.
    type_extensions: dict = field(default_factory=dict)

    def attach_type_extension(self, data_type: str, referent_ids: list, intersections: list) -> None:
        """Record the referents of *data_type* and their intersections."""
        self.type_extensions[data_type] = {
            "referents": list(referent_ids),
            "intersections": list(intersections),
        }

    def types_present(self) -> list[str]:
        """Data-type names whose referents appear in this subgraph."""
        return sorted(self.type_extensions)

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible representation."""
        return {
            "terminals": list(self.terminals),
            "nodes": sorted(self.nodes, key=repr),
            "edges": [
                {"source": edge.source, "target": edge.target, "label": edge.label}
                for edge in self.edges
            ],
            "paths": [list(path) for path in self.paths],
            "connected": self.is_connected,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ConnectionSubgraph terminals={len(self.terminals)} "
            f"nodes={self.node_count} edges={self.edge_count} connected={self.is_connected}>"
        )

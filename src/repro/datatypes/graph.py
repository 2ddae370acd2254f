"""Molecular interaction graph data objects.

Interaction graphs (protein-protein interaction networks, regulatory
networks) are annotated by marking a *subgraph* (a set of nodes and the edges
induced among them).  Like trees, interaction subgraphs are non-spatial; two
subgraph marks overlap when their node sets intersect.
"""

from __future__ import annotations

from typing import Iterable

from repro.datatypes.base import DataObject, DataType, SubstructureRef
from repro.errors import MarkError


class InteractionGraph(DataObject):
    """An undirected molecular interaction graph.

    Nodes are biomolecule identifiers; edges carry an optional interaction
    type and weight.  The implementation is a plain adjacency map, so the
    library does not depend on networkx.
    """

    data_type = DataType.GRAPH

    def __init__(self, object_id: str, metadata: dict | None = None):
        super().__init__(object_id, metadata)
        self._nodes: dict[str, dict] = {}
        self._adjacency: dict[str, dict[str, dict]] = {}

    @property
    def node_count(self) -> int:
        """Number of nodes."""
        return len(self._nodes)

    @property
    def edge_count(self) -> int:
        """Number of undirected edges."""
        return sum(len(neighbors) for neighbors in self._adjacency.values()) // 2

    def nodes(self) -> tuple[str, ...]:
        """All node identifiers."""
        return tuple(self._nodes)

    def add_node(self, node: str, **attributes) -> None:
        """Add a node (idempotent; merges attributes)."""
        self._nodes.setdefault(node, {}).update(attributes)
        self._adjacency.setdefault(node, {})

    def add_edge(self, left: str, right: str, interaction: str | None = None, weight: float = 1.0) -> None:
        """Add an undirected edge, creating endpoints as needed."""
        if left == right:
            raise MarkError("interaction graph does not support self-loops")
        self.add_node(left)
        self.add_node(right)
        attributes = {"interaction": interaction, "weight": weight}
        self._adjacency[left][right] = attributes
        self._adjacency[right][left] = attributes

    def neighbors(self, node: str) -> set[str]:
        """Direct neighbours of *node*."""
        if node not in self._nodes:
            raise MarkError(f"graph {self.object_id!r} has no node {node!r}")
        return set(self._adjacency.get(node, {}))

    def degree(self, node: str) -> int:
        """Degree of *node*."""
        return len(self.neighbors(node))

    def has_edge(self, left: str, right: str) -> bool:
        """True when an edge connects *left* and *right*."""
        return right in self._adjacency.get(left, {})

    def neighborhood(self, node: str, radius: int = 1) -> set[str]:
        """Nodes within *radius* hops of *node* (including *node*)."""
        if node not in self._nodes:
            raise MarkError(f"graph {self.object_id!r} has no node {node!r}")
        seen = {node}
        frontier = {node}
        for _ in range(radius):
            nxt: set[str] = set()
            for current in frontier:
                nxt |= self.neighbors(current) - seen
            seen |= nxt
            frontier = nxt
            if not frontier:
                break
        return seen

    def connected_component(self, node: str) -> set[str]:
        """All nodes reachable from *node*."""
        return self.neighborhood(node, radius=len(self._nodes))

    def mark_subgraph(self, nodes: Iterable[str], label: str | None = None) -> SubstructureRef:
        """Mark the subgraph induced by *nodes*."""
        node_set = set(nodes)
        unknown = node_set - set(self._nodes)
        if unknown:
            raise MarkError(f"graph {self.object_id!r} has no nodes {sorted(unknown)!r}")
        induced_edges = sorted(
            tuple(sorted((left, right)))
            for left in node_set
            for right in self.neighbors(left)
            if right in node_set and left < right
        )
        return SubstructureRef(
            object_id=self.object_id,
            data_type=self.data_type,
            descriptor={"nodes": sorted(node_set), "edges": induced_edges},
            label=label,
        )

    def mark_neighborhood(self, node: str, radius: int = 1, label: str | None = None) -> SubstructureRef:
        """Mark the subgraph induced by the *radius*-hop neighbourhood of *node*."""
        return self.mark_subgraph(self.neighborhood(node, radius), label=label)

    def describe(self) -> str:
        return f"interaction graph {self.object_id} ({self.node_count} nodes, {self.edge_count} edges)"

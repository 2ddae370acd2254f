"""The a-graph: Graphitti's labeled join index.

"A collection of annotation contents and referents would induce a graph,
where there are two types of nodes, the contents and the referents, and a
directed edge connects a content to a referent. ... We call this the a-graph;
it is the connection structure that associates the substructures of all other
types of data. ... It is implemented in a directed labeled multigraph data
structure we have developed, and serves as a general-purpose labeled join
index.  The two primitive operations on the a-graph are path(node1, node2)
... and connect(node1, node2, ...)."

This package implements the multigraph (:mod:`repro.agraph.multigraph`), the
typed a-graph layer on top of it (:mod:`repro.agraph.agraph`), and the two
primitives plus their supporting graph algorithms.
"""

from repro.agraph.multigraph import Edge, LabeledMultigraph
from repro.agraph.agraph import AGraph, NodeKind
from repro.agraph.connection import ConnectionSubgraph
from repro.agraph.metrics import AGraphMetrics

__all__ = [
    "LabeledMultigraph",
    "Edge",
    "AGraph",
    "NodeKind",
    "ConnectionSubgraph",
    "AGraphMetrics",
]

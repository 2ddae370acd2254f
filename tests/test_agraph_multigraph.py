"""Tests for the directed labeled multigraph."""

import pytest

from repro.agraph.multigraph import LabeledMultigraph
from repro.errors import UnknownNodeError


def make_graph():
    g = LabeledMultigraph()
    g.add_node("a", kind="content")
    g.add_node("b", kind="referent")
    g.add_node("c", kind="referent")
    g.add_edge("a", "b", label="annotates")
    g.add_edge("a", "c", label="annotates")
    g.add_edge("b", "c", label="relates")
    return g


def test_node_count_edge_count():
    g = make_graph()
    assert g.node_count == 3
    assert g.edge_count == 3


def test_unknown_node():
    g = make_graph()
    with pytest.raises(UnknownNodeError):
        g.kind("ghost")


def test_edge_requires_existing_nodes():
    g = LabeledMultigraph()
    g.add_node("a")
    with pytest.raises(UnknownNodeError):
        g.add_edge("a", "missing")


def test_multigraph_allows_parallel_edges():
    g = LabeledMultigraph()
    g.add_node("a")
    g.add_node("b")
    g.add_edge("a", "b", label="x")
    g.add_edge("a", "b", label="y")
    assert g.edge_count == 2


def test_successors_predecessors():
    g = make_graph()
    assert set(g.successors("a")) == {"b", "c"}
    assert set(g.predecessors("c")) == {"a", "b"}


def test_successors_by_label():
    g = make_graph()
    assert set(g.successors("a", label="annotates")) == {"b", "c"}
    assert g.successors("b", label="annotates") == []


def test_neighbors_undirected():
    g = make_graph()
    assert g.neighbors_undirected("c") == {"a", "b"}


def test_degree():
    g = make_graph()
    assert g.degree("a") == 2
    assert g.degree("c") == 2


def test_remove_node_removes_edges():
    g = make_graph()
    g.remove_node("a")
    assert "a" not in g
    assert g.edge_count == 1  # only b->c remains
    assert g.in_edges("c") == [e for e in g.in_edges("c")]


def test_nodes_of_kind():
    g = make_graph()
    assert set(g.nodes_of_kind("referent")) == {"b", "c"}


def test_labels():
    g = make_graph()
    assert g.labels() == {"annotates", "relates"}


def test_to_dict():
    g = make_graph()
    payload = g.to_dict()
    assert len(payload["nodes"]) == 3
    assert len(payload["edges"]) == 3


def test_rebuild_components_clears_stale_flag():
    g = make_graph()
    assert g.components_stale is False
    g.remove_node("a")
    assert g.components_stale is True  # remove defers the rebuild
    assert g.rebuild_components() is True
    assert g.components_stale is False
    # The rebuilt index is correct: b and c stay connected, a is gone.
    assert g.same_component("b", "c")
    # A second call is a no-op.
    assert g.rebuild_components() is False


def test_rebuild_components_matches_lazy_rebuild():
    g = make_graph()
    g.remove_node("a")
    g.rebuild_components()
    eager = sorted(sorted(component) for component in g.components())

    h = make_graph()
    h.remove_node("a")
    lazy = sorted(sorted(component) for component in h.components())  # lazy path
    assert eager == lazy

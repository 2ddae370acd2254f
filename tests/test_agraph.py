"""Tests for the typed a-graph and its path/connect primitives."""

import pytest

from repro.agraph.agraph import ANNOTATES, REFERS_TO, SAME_OBJECT, AGraph, NodeKind
from repro.errors import AGraphError, UnknownNodeError


def make_agraph():
    g = AGraph()
    g.add_content("c1")
    g.add_content("c2")
    g.add_referent("r1")
    g.add_referent("r2")
    g.add_ontology_node("t1")
    g.link(ANNOTATES, "c1", "r1")
    g.link(ANNOTATES, "c1", "r2")
    g.link(ANNOTATES, "c2", "r1")  # c1 and c2 share r1
    g.link(REFERS_TO, "r2", "t1")
    return g


def test_typed_accessors():
    g = make_agraph()
    assert set(g.contents()) == {"c1", "c2"}
    assert set(g.referents()) == {"r1", "r2"}
    assert g.ontology_nodes() == ["t1"]


def test_referents_of():
    g = make_agraph()
    assert set(g.referents_of("c1")) == {"r1", "r2"}


def test_contents_annotating():
    g = make_agraph()
    assert set(g.contents_annotating("r1")) == {"c1", "c2"}


def test_related_annotations():
    g = make_agraph()
    assert g.related_annotations("c1") == {"c2"}
    assert g.related_annotations("c2") == {"c1"}


def test_ontology_terms_of():
    g = make_agraph()
    assert g.ontology_terms_of("r2") == ["t1"]


def test_link_wrong_kind():
    g = make_agraph()
    with pytest.raises(AGraphError):
        g.link(ANNOTATES, "r1", "r2")  # r1 is a referent, not content
    with pytest.raises(AGraphError):
        g.link(SAME_OBJECT, "c1", "r1")  # same_object joins two referents
    with pytest.raises(AGraphError):
        g.link("relates", "r1", "r2")  # not a label EDGE_TYPES declares
    with pytest.raises(UnknownNodeError):
        g.link(ANNOTATES, "c1", "ghost")
    assert g.edge_count == 4


def test_link_ontology_requires_ontology_node():
    g = make_agraph()
    with pytest.raises(AGraphError):
        g.link(REFERS_TO, "c1", "r1")  # r1 is not an ontology node
    g.add_ontology_node("t2")
    with pytest.raises(AGraphError):
        g.link(REFERS_TO, "t1", "t2")  # only contents and referents refer
    assert g.ontology_terms_of("t1") == []


def test_unlink_removes_one_copy():
    g = make_agraph()
    g.link(REFERS_TO, "r2", "t1")  # a parallel copy, as two annotations wire
    assert g.unlink(REFERS_TO, "r2", "t1") is True
    assert g.ontology_terms_of("r2") == ["t1"]
    assert g.unlink(REFERS_TO, "r2", "t1") is True
    assert g.unlink(REFERS_TO, "r2", "t1") is False
    assert g.ontology_terms_of("r2") == [] and "t1" in g


def test_path_same_node():
    g = make_agraph()
    assert g.path("c1", "c1") == ["c1"]


def test_path_between_contents():
    g = make_agraph()
    path = g.path("c1", "c2")
    assert path[0] == "c1" and path[-1] == "c2"
    assert "r1" in path


def test_path_none_when_disconnected():
    g = AGraph()
    g.add_content("c1")
    g.add_content("c2")
    assert g.path("c1", "c2") is None


def test_path_unknown_node():
    g = make_agraph()
    with pytest.raises(UnknownNodeError):
        g.path("c1", "ghost")


def test_path_with_label_filter():
    g = make_agraph()
    # Only annotates edges: c1 -> r2 reachable, but r2 -> t1 is refers_to
    path = g.path("c1", "t1", labels=["annotates"])
    assert path is None


def test_connect_requires_two_nodes():
    g = make_agraph()
    with pytest.raises(AGraphError):
        g.connect("c1")


def test_connect_builds_subgraph():
    g = make_agraph()
    subgraph = g.connect("c1", "c2")
    assert subgraph.is_connected
    assert "r1" in subgraph.nodes


def test_connect_with_hub():
    g = make_agraph()
    subgraph = g.connect("c1", "c2", hub="r1")
    assert subgraph.is_connected


def test_connected_component():
    g = make_agraph()
    component = g.connected_component("c1")
    assert {"c1", "c2", "r1", "r2", "t1"} <= component


def test_connected_components_count():
    g = AGraph()
    g.add_content("c1")
    g.add_content("c2")
    g.add_referent("r1")
    g.link(ANNOTATES, "c1", "r1")
    # c2 is isolated
    components = g.connected_components()
    assert len(components) == 2


def test_same_object_link():
    g = AGraph()
    g.add_referent("r1")
    g.add_referent("r2")
    edge = g.link(SAME_OBJECT, "r1", "r2")
    assert (edge.label, edge.source, edge.target) == ("same_object", "r1", "r2")

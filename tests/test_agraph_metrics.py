"""Tests for a-graph analytics."""

import pytest

from repro.agraph.agraph import ANNOTATES, REFERS_TO, AGraph
from repro.agraph.metrics import AGraphMetrics


def build_agraph():
    g = AGraph()
    for c in ["c1", "c2", "c3"]:
        g.add_content(c)
    for r in ["r1", "r2", "r3"]:
        g.add_referent(r)
    g.add_ontology_node("t1")
    g.link(ANNOTATES, "c1", "r1")
    g.link(ANNOTATES, "c1", "r2")
    g.link(ANNOTATES, "c2", "r1")  # c1, c2 share r1
    g.link(ANNOTATES, "c3", "r3")
    g.link(REFERS_TO, "r1", "t1")
    g.link(REFERS_TO, "r2", "t1")
    return g


def test_degree_distribution():
    metrics = AGraphMetrics(build_agraph())
    dist = metrics.degree_distribution()
    assert sum(dist.values()) == build_agraph().node_count


def test_average_degree():
    metrics = AGraphMetrics(build_agraph())
    assert metrics.average_degree() > 0


def test_average_degree_empty():
    assert AGraphMetrics(AGraph()).average_degree() == 0.0


def test_ontology_hubs():
    metrics = AGraphMetrics(build_agraph())
    hubs = metrics.ontology_hubs()
    assert hubs[0][0] == "t1"
    assert hubs[0][1] == 2  # r1 and r2 point at t1


def test_annotation_similarity():
    metrics = AGraphMetrics(build_agraph())
    # c1 has {r1, r2}, c2 has {r1} -> Jaccard 1/2
    assert metrics.annotation_similarity("c1", "c2") == pytest.approx(0.5)
    # c1 and c3 share nothing
    assert metrics.annotation_similarity("c1", "c3") == 0.0


def test_most_similar():
    metrics = AGraphMetrics(build_agraph())
    similar = metrics.most_similar("c1")
    assert similar[0][0] == "c2"


def test_referent_sharing():
    metrics = AGraphMetrics(build_agraph())
    sharing = metrics.referent_sharing()
    assert sharing == {"r1": 2}


def test_component_sizes():
    metrics = AGraphMetrics(build_agraph())
    sizes = metrics.component_sizes()
    assert sizes == sorted(sizes, reverse=True)
    assert sum(sizes) == build_agraph().node_count


def test_articulation_annotations():
    # A path c1 - r1 - c2 - r2 - c3 : c2 is an articulation annotation.
    g = AGraph()
    for c in ["c1", "c2", "c3"]:
        g.add_content(c)
    for r in ["r1", "r2"]:
        g.add_referent(r)
    g.link(ANNOTATES, "c1", "r1")
    g.link(ANNOTATES, "c2", "r1")
    g.link(ANNOTATES, "c2", "r2")
    g.link(ANNOTATES, "c3", "r2")
    metrics = AGraphMetrics(g)
    assert "c2" in metrics.articulation_annotations()
    assert "c1" not in metrics.articulation_annotations()


def test_metrics_on_scenario(influenza):
    metrics = AGraphMetrics(influenza.agraph)
    assert metrics.average_degree() > 0
    assert metrics.component_sizes()
    hubs = metrics.ontology_hubs()
    assert all(count >= 0 for _, count in hubs)

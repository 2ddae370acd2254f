"""Property-based tests for a-graph invariants."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.agraph.agraph import ANNOTATES, AGraph


def _build_bipartite(num_contents, num_referents, edges):
    g = AGraph()
    for index in range(num_contents):
        g.add_content(f"c{index}")
    for index in range(num_referents):
        g.add_referent(f"r{index}")
    for content_index, referent_index in edges:
        if content_index < num_contents and referent_index < num_referents:
            g.link(ANNOTATES, f"c{content_index}", f"r{referent_index}")
    return g


@settings(max_examples=60, suppress_health_check=[HealthCheck.filter_too_much])
@given(
    num_contents=st.integers(1, 8),
    num_referents=st.integers(1, 8),
    edges=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=30),
)
def test_path_is_symmetric(num_contents, num_referents, edges):
    g = _build_bipartite(num_contents, num_referents, edges)
    nodes = g.graph.node_ids()
    for source in nodes[:3]:
        for target in nodes[:3]:
            forward = g.path(source, target)
            backward = g.path(target, source)
            # reachability is symmetric in an undirected-traversal a-graph
            assert (forward is None) == (backward is None)


@settings(max_examples=60, suppress_health_check=[HealthCheck.filter_too_much])
@given(
    num_contents=st.integers(1, 6),
    num_referents=st.integers(1, 6),
    edges=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=20),
)
def test_path_endpoints_correct(num_contents, num_referents, edges):
    g = _build_bipartite(num_contents, num_referents, edges)
    nodes = g.graph.node_ids()
    for source in nodes:
        for target in nodes:
            path = g.path(source, target)
            if path is not None:
                assert path[0] == source
                assert path[-1] == target


@settings(max_examples=50, suppress_health_check=[HealthCheck.filter_too_much])
@given(
    num_contents=st.integers(2, 6),
    num_referents=st.integers(1, 6),
    edges=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=20),
)
def test_related_annotations_are_symmetric(num_contents, num_referents, edges):
    g = _build_bipartite(num_contents, num_referents, edges)
    contents = g.contents()
    for content in contents:
        for other in g.related_annotations(content):
            assert content in g.related_annotations(other)


@settings(max_examples=40, suppress_health_check=[HealthCheck.filter_too_much])
@given(
    num_contents=st.integers(1, 6),
    num_referents=st.integers(1, 6),
    edges=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=20),
)
def test_connected_component_is_reflexive(num_contents, num_referents, edges):
    g = _build_bipartite(num_contents, num_referents, edges)
    for node in g.graph.node_ids():
        component = g.connected_component(node)
        assert node in component
        # every node in the component is reachable
        for other in component:
            assert g.path(node, other) is not None


@settings(max_examples=40, suppress_health_check=[HealthCheck.filter_too_much])
@given(
    num_contents=st.integers(1, 6),
    num_referents=st.integers(1, 6),
    edges=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=20),
)
def test_components_partition_nodes(num_contents, num_referents, edges):
    g = _build_bipartite(num_contents, num_referents, edges)
    components = g.connected_components()
    total = sum(len(component) for component in components)
    assert total == g.node_count
    # components are disjoint
    seen = set()
    for component in components:
        assert seen.isdisjoint(component)
        seen |= component

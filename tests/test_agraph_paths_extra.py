"""Additional tests for a-graph path algorithms and edge cases."""

from repro.agraph.agraph import ANNOTATES, REFERS_TO, AGraph


def linear_agraph(length):
    """A content-referent chain c0 - r0 - c1 - r1 - ... of the given length."""
    g = AGraph()
    prev_content = None
    for index in range(length):
        content = f"c{index}"
        g.add_content(content)
        if prev_content is not None:
            referent = f"r{index}"
            g.add_referent(referent)
            g.link(ANNOTATES, prev_content, referent)
            g.link(ANNOTATES, content, referent)
        prev_content = content
    return g


def test_path_length_in_chain():
    g = linear_agraph(4)
    path = g.path("c0", "c3")
    assert path[0] == "c0" and path[-1] == "c3"
    # c0 - r1 - c1 - r2 - c2 - r3 - c3
    assert len(path) == 7


def test_path_label_filter_blocks_ontology_hops():
    g = AGraph()
    g.add_content("c1")
    g.add_referent("r1")
    g.add_ontology_node("t1")
    g.add_content("c2")
    g.link(ANNOTATES, "c1", "r1")
    g.link(REFERS_TO, "r1", "t1")
    g.link(REFERS_TO, "c2", "t1")
    # c1 reaches c2 only through the ontology term
    assert g.path("c1", "c2") is not None
    assert g.path("c1", "c2", labels=["annotates"]) is None


def test_connect_hub_not_present():
    g = linear_agraph(3)
    # a hub that exists but is disconnected from a terminal still returns a result
    subgraph = g.connect("c0", "c2")
    assert subgraph.is_connected


def test_remove_node_then_path_none():
    g = linear_agraph(3)
    # remove the middle content; the chain should break
    g.graph.remove_node("c1")
    assert g.path("c0", "c2") is None

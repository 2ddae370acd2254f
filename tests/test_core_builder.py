"""Tests for the fluent annotation builder."""

import pytest

from repro import Graphitti
from repro.datatypes import (
    DnaSequence,
    Image,
    InteractionGraph,
    MultipleSequenceAlignment,
    RelationalRecord,
    parse_newick,
)
from repro.errors import AnnotationError
from repro.ontology.builtin import build_protein_ontology


@pytest.fixture
def rich_instance():
    g = Graphitti("builder")
    g.register_ontology(build_protein_ontology())
    g.register(DnaSequence("seq", "ACGT" * 100, domain="chr1"))
    g.register(MultipleSequenceAlignment("msa", {"r1": "ACGT" * 20, "r2": "ACGT" * 20}))
    graph = InteractionGraph("graph")
    graph.add_edge("p1", "p2")
    graph.add_edge("p2", "p3")
    g.register(graph)
    g.register(parse_newick("((a,b),(c,d));", object_id="tree"))
    g.register(RelationalRecord("rec", ("host",), {"k1": {"host": "x"}, "k2": {"host": "y"}}))
    g.register(Image("img", dimension=2, space="atlas"))
    return g


def test_builder_all_marker_types(rich_instance):
    annotation = (
        rich_instance.new_annotation("multi", keywords=["k"])
        .mark_sequence("seq", 10, 40)
        .mark_alignment_columns("msa", 4, 12)
        .mark_subgraph("graph", ["p1", "p2"])
        .mark_neighborhood("graph", "p2", radius=1)
        .mark_clade("tree", "a")
        .mark_clade_by_leaves("tree", ["a", "b"])
        .mark_record_block("rec", ["k1", "k2"])
        .mark_region("img", (10, 10), (40, 40))
        .commit()
    )
    assert annotation.referent_count == 8


def test_builder_set_body_and_tag(rich_instance):
    annotation = (
        rich_instance.new_annotation("a")
        .set_body("the comment")
        .set_tag("evidence", "experimental")
        .mark_sequence("seq", 0, 5)
        .commit()
    )
    assert annotation.content.body == "the comment"
    assert annotation.content.user_tags["evidence"] == "experimental"


def test_builder_add_keyword(rich_instance):
    annotation = (
        rich_instance.new_annotation("a").add_keyword("extra").mark_sequence("seq", 0, 5).commit()
    )
    assert "extra" in annotation.content.keywords()


def test_builder_refer_ontology_resolves_name(rich_instance):
    annotation = (
        rich_instance.new_annotation("a").refer_ontology("Protease").mark_sequence("seq", 0, 5).commit()
    )
    assert "protein:protease" in annotation.content.ontology_terms


def test_builder_build_without_referents_raises(rich_instance):
    with pytest.raises(AnnotationError):
        rich_instance.new_annotation("a").build()


def test_builder_commit_twice_raises(rich_instance):
    builder = rich_instance.new_annotation("a").mark_sequence("seq", 0, 5)
    builder.commit()
    with pytest.raises(AnnotationError):
        builder.commit()


def test_builder_ontology_only_annotation(rich_instance):
    # an annotation with just a content ontology reference is valid
    annotation = rich_instance.new_annotation("onto-only").refer_ontology("protein:TP53").commit()
    assert annotation.referent_count == 0
    assert "protein:TP53" in annotation.content.ontology_terms


def test_a_ref_read_back_from_a_committed_annotation_is_attached_as_a_copy():
    # The read-back ref is the store's canonical object: a move rewrites it
    # in place.  A new annotation attaching it must not move with it.
    g = Graphitti("alias")
    g.register(DnaSequence("seq", "ACGT" * 100, domain="chr1"))
    g.new_annotation("a").mark_sequence("seq", 10, 20).commit()
    moved_id = g.annotation("a").referents[0].referent_id
    g.update_annotation("a", {"move_referents": {moved_id: {"start": 30, "end": 40}}})
    g.new_annotation("b").add_referent(g.annotation("a").referents[0].ref).commit()
    g.update_annotation("a", {"move_referents": {moved_id: {"start": 60, "end": 70}}})
    interval = g.annotation("b").referents[0].ref.interval
    assert (interval.start, interval.end) == (30, 40)
    assert g.annotation("a").referents[0].ref.interval.start == 60
    found = g.query("SELECT referents WHERE { INTERVAL OVERLAPS chr1 [30, 40] }")
    assert "b" in found.annotation_ids and "a" not in found.annotation_ids
    assert g.check_integrity().ok

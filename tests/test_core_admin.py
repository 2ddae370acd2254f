"""Tests for the system-administration module (admin tab)."""

import pytest

from repro.core.admin import Administrator, IntegrityReport


def test_integrity_ok_on_fresh_instance(small_graphitti):
    report = small_graphitti.check_integrity()
    assert report.ok
    assert report.checks_run > 0
    assert "OK" in report.summary()


def test_integrity_ok_on_scenarios(influenza, neuroscience):
    assert influenza.check_integrity().ok
    assert neuroscience.check_integrity().ok


def test_integrity_report_fail():
    report = IntegrityReport()
    report.fail("boom")
    assert not report.ok
    assert "FAILED" in report.summary()


def test_integrity_detects_corruption(small_graphitti):
    # Corrupt the a-graph by removing a content node behind the manager's back.
    small_graphitti.agraph.graph.remove_node("a1")
    report = small_graphitti.check_integrity()
    assert not report.ok
    assert any("a1" in error for error in report.errors)


def test_integrity_detects_an_extent_its_documents_do_not_index(small_graphitti):
    # Move a referent in the store behind the manager's back: the documents
    # of the annotations marking it still index the old coordinates.
    referent_id = small_graphitti.annotation("a2").referents[0].referent_id
    small_graphitti.substructures.move(referent_id, start=100, end=120)
    report = small_graphitti.check_integrity()
    assert not report.ok
    assert any("text is not its row's" in error for error in report.errors)


def test_orphan_objects(small_graphitti):
    # prot1 is registered but never annotated in the small fixture
    admin = small_graphitti.administrator()
    assert "prot1" in admin.orphan_objects()


def test_orphan_ontology_terms(empty_graphitti):
    g = empty_graphitti
    from repro.datatypes import DnaSequence

    g.register(DnaSequence("s", "ACGT" * 10, domain="c"))
    g.new_annotation("a1").mark_sequence("s", 0, 5, ontology_terms=["protein:protease"]).commit()
    admin = g.administrator()
    # every ontology term present is pointed at -> no orphans
    assert admin.orphan_ontology_terms() == []


def test_index_economy_sharing_ratio():
    from repro import Graphitti
    from repro.datatypes import DnaSequence

    g = Graphitti()
    # five sequences on one shared chromosome domain -> one interval tree
    for index in range(5):
        g.register(DnaSequence(f"s{index}", "ACGT" * 10, domain="chr1"))
        g.new_annotation(f"a{index}").mark_sequence(f"s{index}", 0, 5).commit()
    economy = g.administrator().index_economy()
    assert economy["interval_trees"] == 1
    assert economy["sequence_like_objects"] == 5
    assert economy["interval_tree_sharing_ratio"] == 5.0


def test_annotation_leaderboard(influenza):
    leaderboard = influenza.administrator().annotation_leaderboard(top=3)
    assert len(leaderboard) <= 3
    # sorted by descending count
    counts = [count for _, count in leaderboard]
    assert counts == sorted(counts, reverse=True)


def test_creator_activity(influenza):
    activity = influenza.administrator().creator_activity()
    assert sum(activity.values()) == influenza.annotation_count
    assert "virologist1" in activity

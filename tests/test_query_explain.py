"""Tests for query EXPLAIN (the plan and its counts, without execution)."""

import pytest

from repro.query.builder import QueryBuilder


def test_explain_structure(small_graphitti):
    explanation = small_graphitti.explain(
        QueryBuilder.contents().contains("protease").overlaps_interval("chr1", 10, 40).build()
    )
    assert "PLAN" in explanation["plan"]
    assert explanation["subqueries"] == 2
    assert "estimated_cost" not in explanation
    # the window holds one referent, shared by a1 and a2
    assert [rows for _, rows in explanation["estimated_rows"]] == [1, 2]
    assert "content" in explanation["targets"]


def test_explain_text_query(small_graphitti):
    explanation = small_graphitti.explain('SELECT contents WHERE { CONTENT CONTAINS "protease" }')
    assert "CONTAINS" in explanation["plan"]


def test_explain_ordering_changes_plan(small_graphitti):
    """TYPE is declared first, but the rarer keyword is planned first."""
    query = QueryBuilder.contents().of_type("dna_sequence").contains("protease").build()
    explanation = small_graphitti.explain(query)
    assert explanation["estimated_rows"] == [
        ("content CONTAINS 'protease'", 1),
        ("type dna_sequence", 2),
    ]
    assert "1. [content]" in explanation["plan"]
    assert "2. [type]" in explanation["plan"]


def test_explain_does_not_execute(small_graphitti):
    before = small_graphitti.annotation_count
    small_graphitti.explain(QueryBuilder.contents().contains("protease").build())
    assert small_graphitti.annotation_count == before


def test_cli_explain(tmp_path, capsys):
    from repro.cli import main

    path = str(tmp_path / "flu.json")
    main(["build", "influenza", path])
    capsys.readouterr()
    assert main(["explain", path, 'SELECT contents WHERE { CONTENT CONTAINS "cleavage" }']) == 0
    out = capsys.readouterr().out
    assert "PLAN" in out
    assert "subqueries: 1" in out and "estimated cost" not in out

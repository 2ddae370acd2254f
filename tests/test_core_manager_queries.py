"""Tests for the manager's text-GQL query path and query edge cases."""

import pytest

from repro import Graphitti
from repro.datatypes import DnaSequence, Image
from repro.errors import QuerySyntaxError
from repro.ontology.builtin import build_protein_ontology


@pytest.fixture
def instance():
    g = Graphitti("q")
    g.register_ontology(build_protein_ontology())
    g.register(DnaSequence("seq", "ACGT" * 100, domain="chr1"))
    g.register(Image("img", dimension=2, space="atlas", size=(100, 100)))
    (
        g.new_annotation("a1", keywords=["protease"])
        .mark_sequence("seq", 10, 40, ontology_terms=["protein:protease"])
        .mark_region("img", (10, 10), (40, 40))
        .commit()
    )
    (
        g.new_annotation("a2", keywords=["kinase"])
        .mark_sequence("seq", 100, 140)
        .commit()
    )
    return g


def test_text_query_path(instance):
    result = instance.query('SELECT contents WHERE { CONTENT CONTAINS "protease" }')
    assert result.annotation_ids == ["a1"]


def test_text_query_invalid(instance):
    with pytest.raises(QuerySyntaxError):
        instance.query("SELECT bogus")


def test_query_empty_result(instance):
    result = instance.query('SELECT contents WHERE { CONTENT CONTAINS "zzz" }')
    assert result.is_empty()


def test_query_region(instance):
    result = instance.query("SELECT contents WHERE { REGION OVERLAPS atlas [0,0] .. [50,50] }")
    assert "a1" in result.annotation_ids


def test_query_region_unknown_space(instance):
    result = instance.query("SELECT contents WHERE { REGION OVERLAPS ghost [0,0] .. [50,50] }")
    assert result.is_empty()


def test_query_limit(instance):
    result = instance.query("SELECT contents WHERE { INTERVAL OVERLAPS chr1 [0, 1000] } LIMIT 1")
    assert result.count == 1


def test_query_ordering_equivalence(instance, plan_order_invariant):
    from repro.query.parser import parse_query

    q = 'SELECT contents WHERE { CONTENT CONTAINS "protease" INTERVAL OVERLAPS chr1 [0,1000] }'
    reference = plan_order_invariant(instance, parse_query(q))
    assert instance.query(q).annotation_ids == reference.annotation_ids


def test_query_type(instance):
    result = instance.query("SELECT contents WHERE { TYPE image }")
    assert result.annotation_ids == ["a1"]


def test_query_referents_return(instance):
    result = instance.query('SELECT referents WHERE { CONTENT CONTAINS "protease" }')
    assert len(result.referents) == 2


def test_query_no_constraints_returns_all(instance):
    result = instance.query("SELECT contents WHERE { }")
    assert set(result.annotation_ids) == {"a1", "a2"}

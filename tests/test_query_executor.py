"""Tests for the query executor and result collation."""

import pytest

from repro.query.ast import ReturnKind
from repro.query.builder import QueryBuilder
from repro.query.planner import QueryPlanner


def test_keyword_query(small_graphitti):
    result = small_graphitti.query(QueryBuilder.contents().contains("protease").build())
    assert result.annotation_ids == ["a1"]
    assert result.count == 1
    assert len(result.fragments) == 1


def test_ontology_query(small_graphitti):
    result = small_graphitti.query(
        QueryBuilder.contents().refers("protein:protease").build()
    )
    assert "a1" in result.annotation_ids


def test_interval_query(small_graphitti):
    result = small_graphitti.query(
        QueryBuilder.contents().overlaps_interval("chr1", 20, 25).build()
    )
    assert set(result.annotation_ids) == {"a1", "a2"}


def test_conjunction_narrows(small_graphitti):
    result = small_graphitti.query(
        QueryBuilder.contents()
        .contains("protease")
        .overlaps_interval("chr1", 20, 25)
        .build()
    )
    assert result.annotation_ids == ["a1"]


def test_empty_result(small_graphitti):
    result = small_graphitti.query(QueryBuilder.contents().contains("nonexistent").build())
    assert result.is_empty()


def test_referents_return_kind(small_graphitti):
    result = small_graphitti.query(QueryBuilder.referents().contains("protease").build())
    assert result.return_kind is ReturnKind.REFERENTS
    assert len(result.referents) == 2  # a1 has a sequence + an image referent


def test_graph_return_kind(small_graphitti):
    result = small_graphitti.query(QueryBuilder.graph().overlaps_interval("chr1", 20, 25).build())
    assert result.return_kind is ReturnKind.GRAPH
    assert len(result.subgraphs) >= 1
    assert result.subgraphs[0].is_connected


def test_type_constraint(small_graphitti):
    result = small_graphitti.query(QueryBuilder.contents().of_type("image").build())
    assert result.annotation_ids == ["a1"]


def test_limit(small_graphitti):
    result = small_graphitti.query(
        QueryBuilder.contents().overlaps_interval("chr1", 20, 25).limit(1).build()
    )
    assert result.count == 1


def test_steps_recorded(small_graphitti):
    result = small_graphitti.query(
        QueryBuilder.contents().contains("protease").overlaps_interval("chr1", 20, 25).build()
    )
    assert len(result.steps) == 2


def test_min_count_region(neuroscience):
    # neuro-a1 has two regions on mouse_brain_1
    from repro.query.parser import parse_query

    q = parse_query(
        'SELECT contents WHERE { REGION OVERLAPS mouse-atlas:25um [0,0] .. [512,512] MINCOUNT 2 }'
    )
    result = neuroscience.query(q)
    assert "neuro-a1" in result.annotation_ids


def test_path_constraint(influenza):
    result = influenza.query(QueryBuilder.contents().path("binding", "lineage").build())
    # flu-a1 (binding) connects to flu-a3 (lineage) via surface_protein
    assert result.count >= 1


def test_planner_ordering_does_not_change_results(small_graphitti, plan_order_invariant):
    query = QueryBuilder.contents().contains("protease").overlaps_interval("chr1", 20, 25).build()
    reference = plan_order_invariant(small_graphitti, query)
    assert small_graphitti.query(query).annotation_ids == reference.annotation_ids == ["a1"]


def test_result_to_dict(small_graphitti):
    result = small_graphitti.query(QueryBuilder.contents().contains("protease").build())
    payload = result.to_dict()
    assert payload["count"] == 1
    assert payload["return_kind"] == "contents"

"""Tests for the query planner (per-type separation and ordering)."""

from repro import Graphitti
from repro.query.ast import Target
from repro.query.builder import QueryBuilder
from repro.query.parser import parse_query
from repro.query.planner import QueryPlanner


def test_plan_orders_by_selectivity(small_graphitti):
    query = (
        QueryBuilder.contents()
        .of_type("dna")           # least selective: a1 and a2
        .contains("protease")      # a1
        .refers("protein:protease")  # a1
        .build()
    )
    plan = QueryPlanner(small_graphitti).plan(query)
    # smallest count first; the keyword/ontology tie keeps declaration order
    order = [type(c).__name__ for c in plan.ordered_constraints]
    assert order == ["KeywordConstraint", "OntologyConstraint", "TypeConstraint"]
    assert plan.estimated_rows == [1, 1, 2]


def test_one_constraint_is_planned_without_a_count():
    plan = QueryPlanner(Graphitti()).plan(QueryBuilder.contents().contains("x").build())
    assert plan.estimated_rows == [None] and plan.matches == []
    assert "est~" not in plan.explain()


def test_not_runs_after_every_positive_constraint_and_path_after_every_other(small_graphitti):
    query = parse_query(
        'SELECT contents WHERE { NOT { CONTENT CONTAINS "kinase" } PATH "protease" TO "kinase" '
        'TYPE dna CONTENT CONTAINS "protease" }'
    )
    plan = QueryPlanner(small_graphitti).plan(query)
    assert [c.target.value for c in plan.ordered_constraints] == [
        "content", "type", "path", "composite",
    ]
    # NOT counts what its inner constraint leaves; PATH is never counted.
    assert plan.estimated_rows == [1, 2, None, 1]


def test_plan_grouping_by_target():
    query = (
        QueryBuilder.contents()
        .contains("x")
        .overlaps_interval("chr1", 1, 2)
        .refers("t")
        .build()
    )
    plan = QueryPlanner(Graphitti()).plan(query)
    assert Target.CONTENT in plan.groups
    assert Target.INTERVAL in plan.groups
    assert Target.ONTOLOGY in plan.groups
    assert plan.subquery_count() == 3


def test_plan_explain():
    query = QueryBuilder.contents().contains("protease").build()
    plan = QueryPlanner(Graphitti()).plan(query)
    assert "content CONTAINS" in plan.explain()


def test_plan_preserves_all_constraints():
    query = parse_query(
        'SELECT contents WHERE { CONTENT CONTAINS "a" CONTENT CONTAINS "b" TYPE dna }'
    )
    plan = QueryPlanner(Graphitti()).plan(query)
    assert len(plan.ordered_constraints) == 3

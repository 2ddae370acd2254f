"""Tests for the query planner (per-type separation and ordering)."""

from repro import Graphitti
from repro.query.ast import Target
from repro.query.builder import QueryBuilder
from repro.query.parser import parse_query
from repro.query.planner import QueryPlanner


def test_plan_orders_by_selectivity():
    query = (
        QueryBuilder.contents()
        .of_type("dna")           # least selective
        .contains("protease")      # most selective
        .refers("protein:protease")
        .build()
    )
    plan = QueryPlanner(Graphitti()).plan(query)
    # keyword (10) should come before ontology (20) before type (60)
    order = [type(c).__name__ for c in plan.ordered_constraints]
    assert order.index("KeywordConstraint") < order.index("OntologyConstraint")
    assert order.index("OntologyConstraint") < order.index("TypeConstraint")


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


def test_estimated_cost():
    query = QueryBuilder.contents().contains("x").of_type("dna").build()
    cost = QueryPlanner.estimated_cost(query)
    assert cost == 10 + 60


def test_plan_preserves_all_constraints():
    query = parse_query(
        'SELECT contents WHERE { CONTENT CONTAINS "a" CONTENT CONTAINS "b" TYPE dna }'
    )
    plan = QueryPlanner(Graphitti()).plan(query)
    assert len(plan.ordered_constraints) == 3

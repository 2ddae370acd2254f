"""Tests for the NOT / ANY (OR) query extensions."""

import pytest

from repro.query.ast import KeywordConstraint, NotConstraint, OntologyConstraint, OrConstraint
from repro.query.builder import QueryBuilder
from repro.query.parser import parse_query


def test_builder_exclude(small_graphitti):
    # all annotations NOT containing 'kinase' -> only a1
    query = QueryBuilder.contents().exclude(KeywordConstraint("kinase")).build()
    result = small_graphitti.query(query)
    assert result.annotation_ids == ["a1"]


def test_builder_any_of(small_graphitti):
    query = (
        QueryBuilder.contents()
        .any_of(KeywordConstraint("protease"), KeywordConstraint("kinase"))
        .build()
    )
    result = small_graphitti.query(query)
    assert set(result.annotation_ids) == {"a1", "a2"}


def test_any_of_requires_two():
    with pytest.raises(ValueError):
        QueryBuilder.contents().any_of(KeywordConstraint("x"))


def test_parse_not():
    q = parse_query('SELECT contents WHERE { NOT { CONTENT CONTAINS "kinase" } }')
    assert isinstance(q.constraints[0], NotConstraint)
    assert isinstance(q.constraints[0].inner, KeywordConstraint)


def test_parse_any():
    q = parse_query(
        'SELECT contents WHERE { ANY { CONTENT CONTAINS "protease" CONTENT CONTAINS "kinase" } }'
    )
    assert isinstance(q.constraints[0], OrConstraint)
    assert len(q.constraints[0].parts) == 2


def test_parse_any_too_few():
    from repro.errors import QuerySyntaxError

    with pytest.raises(QuerySyntaxError):
        parse_query('SELECT contents WHERE { ANY { CONTENT CONTAINS "x" } }')


def test_not_execution(small_graphitti):
    q = parse_query('SELECT contents WHERE { NOT { CONTENT CONTAINS "kinase" } }')
    result = small_graphitti.query(q)
    assert "a2" not in result.annotation_ids
    assert "a1" in result.annotation_ids


def test_any_execution(small_graphitti):
    q = parse_query(
        'SELECT contents WHERE { ANY { REFERENT REFERS "protein:protease" CONTENT CONTAINS "kinase" } }'
    )
    result = small_graphitti.query(q)
    assert set(result.annotation_ids) == {"a1", "a2"}


def test_combined_and_not(small_graphitti):
    # protease AND NOT kinase -> a1 only
    q = parse_query(
        'SELECT contents WHERE { CONTENT CONTAINS "protease" NOT { CONTENT CONTAINS "kinase" } }'
    )
    result = small_graphitti.query(q)
    assert result.annotation_ids == ["a1"]


def test_not_ordering_last(small_graphitti):
    from repro.query.planner import QueryPlanner

    query = QueryBuilder.contents().exclude(KeywordConstraint("kinase")).contains("protease").build()
    plan = QueryPlanner(small_graphitti).plan(query)
    # the NOT constraint should be scheduled after the keyword constraint
    kinds = [type(c).__name__ for c in plan.ordered_constraints]
    assert kinds.index("NotConstraint") > kinds.index("KeywordConstraint")

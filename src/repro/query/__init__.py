"""The Graphitti query language (GQL) and its processor.

"Queries in Graphitti are essentially graph queries that resemble SPARQL
expressions extended to handle (i) XQuery-like path expressions on a-graphs,
(ii) type-specific predicates on interval trees, (iii) XQuery fragments to
retrieve fragments of annotation.  The result of a query can be (a) a
collection of heterogeneous substructures (b) fragments of XML documents and
(c) connection subgraphs.  The query processor operates by separating
subqueries that belong to the different types of data elements, finding a
feasible order among these subqueries, and collating partial results."

This package implements GQL end to end:

* :mod:`repro.query.ast` -- the query AST (constraints + return spec),
* :mod:`repro.query.parser` -- the one-pattern scanner and the
  recursive-descent parser over its lexemes,
* :mod:`repro.query.planner` -- per-type subquery separation + ordering by
  the counts the indexes hold, counted only when there is a choice,
* :mod:`repro.query.stats` -- the live statistics catalogue the planner
  counts from,
* :mod:`repro.query.idspace` -- the dense annotation-id interner the
  column store keys its rows by,
* :mod:`repro.query.executor` -- adaptive constraint evaluation (semi-join
  probes, candidate-set narrowing) and result collation,
* :mod:`repro.query.result` -- the result model,
* :mod:`repro.query.builder` -- a programmatic query builder.
"""

from repro.query.ast import (
    Constraint,
    KeywordConstraint,
    NotConstraint,
    OntologyConstraint,
    OrConstraint,
    OverlapConstraint,
    PathConstraint,
    Query,
    RegionConstraint,
    ReturnKind,
    TypeConstraint,
)
from repro.query.builder import QueryBuilder
from repro.query.executor import QueryExecutor
from repro.query.idspace import AnnotationIdSpace
from repro.query.parser import parse_query
from repro.query.planner import QueryPlan, QueryPlanner
from repro.query.result import QueryResult
from repro.query.stats import StatisticsCatalogue

__all__ = [
    "Query",
    "Constraint",
    "KeywordConstraint",
    "OntologyConstraint",
    "OverlapConstraint",
    "RegionConstraint",
    "TypeConstraint",
    "PathConstraint",
    "NotConstraint",
    "OrConstraint",
    "ReturnKind",
    "QueryBuilder",
    "QueryPlanner",
    "QueryPlan",
    "QueryExecutor",
    "QueryResult",
    "AnnotationIdSpace",
    "StatisticsCatalogue",
    "parse_query",
]

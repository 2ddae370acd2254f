"""Query planner: per-type subquery separation and cost-based ordering.

"The query processor operates by separating subqueries that belong to the
different types of data elements, finding a feasible order among these
subqueries, and collating partial results."

The planner groups the query's constraints by the data element they target
(content, ontology, 1D substructure, 2D/3D substructure, type, path), then
orders them for execution: each constraint gets a cardinality estimate from
the live :class:`~repro.query.stats.StatisticsCatalogue` and the constraints
run smallest-estimate first, ties broken by a per-class selectivity table.
The adaptive executor then re-orders the remainder after every step and
switches index-backed constraints into semi-join probe mode when the
surviving candidate set is far smaller than a constraint's estimated match
set.

The result is a :class:`QueryPlan`: an ordered list of constraints plus the
grouping and the per-constraint row estimates, which the executor runs step
by step.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

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
    Target,
    TypeConstraint,
)
from repro.query.stats import CardinalityEstimator

#: Lower score == more selective == scheduled earlier.  The tie-breaker
#: between equal cardinality estimates (an empty corpus estimates every
#: constraint at 0) and the basis of :meth:`QueryPlanner.estimated_cost`.
_SELECTIVITY: dict[type, int] = {
    KeywordConstraint: 10,
    OntologyConstraint: 20,
    OverlapConstraint: 15,
    RegionConstraint: 15,
    PathConstraint: 30,
    OrConstraint: 45,
    TypeConstraint: 60,
    NotConstraint: 90,   # negation restricts the surviving candidates; last
}


@dataclass
class QueryPlan:
    """An ordered execution plan for a query.

    Attributes
    ----------
    query:
        The query being planned.
    ordered_constraints:
        Constraints in planned execution order (smallest estimate first).
    estimated_rows:
        The catalogue's cardinality estimate per constraint, aligned with
        ``ordered_constraints``.
    groups:
        Constraints grouped by the data element they target (the per-type
        subqueries).
    """

    query: Query
    ordered_constraints: list[Constraint]
    estimated_rows: list[int]
    groups: dict[Target, list[Constraint]] = field(default_factory=dict)

    def explain(self, actual_rows: dict[int, int] | None = None) -> str:
        """Human-readable plan explanation (estimated vs. actual rows).

        *actual_rows* maps plan positions to surviving candidate counts —
        pass :meth:`QueryResult.actual_rows
        <repro.query.result.QueryResult.actual_rows>` after executing to see
        ``est~`` against ``act=``.  Actuals live on the result, not the
        plan, which only describes what an execution will do.
        """
        lines = [f"PLAN (return {self.query.return_kind.value}):"]
        for position, constraint in enumerate(self.ordered_constraints):
            line = f"  {position + 1}. [{constraint.target.value}] {constraint.describe()}"
            annotations = [f"est~{self.estimated_rows[position]}"]
            if actual_rows is not None and position in actual_rows:
                annotations.append(f"act={actual_rows[position]}")
            lines.append(f"{line}  ({', '.join(annotations)})")
        return "\n".join(lines)

    def subquery_count(self) -> int:
        """Number of distinct per-type subqueries."""
        return len(self.groups)

    def fingerprint(self) -> str:
        """A stable digest of the plan's semantics.

        Two queries share a fingerprint exactly when they produce the same
        return kind and the same ordered constraint sequence, so the
        fingerprint shows the order the planner actually chose; the executor
        stamps it on every result.  ``estimated_rows`` and ``actual_rows``
        are observational — they do not change which annotations a plan
        returns — and are excluded.
        """
        digest = hashlib.sha256()
        digest.update(self.query.return_kind.value.encode())
        for constraint in self.ordered_constraints:
            digest.update(b"|")
            digest.update(constraint.target.value.encode())
            digest.update(b":")
            digest.update(constraint.describe().encode())
        return digest.hexdigest()[:16]


class QueryPlanner:
    """Builds a :class:`QueryPlan` from a :class:`Query`.

    *manager* is the :class:`~repro.core.manager.Graphitti` whose statistics
    catalogue feeds the cardinality estimates.
    """

    def __init__(self, manager):
        self._manager = manager

    def plan(self, query: Query) -> QueryPlan:
        """Produce an execution plan for *query*."""
        groups: dict[Target, list[Constraint]] = {}
        for constraint in query.constraints:
            groups.setdefault(constraint.target, []).append(constraint)
        estimator = CardinalityEstimator(self._manager)
        constraints = query.constraints
        estimates = [estimator.estimate(constraint) for constraint in constraints]
        # sorted() is stable: full ties keep declaration order.
        order = sorted(
            range(len(constraints)),
            key=lambda i: (
                estimates[i],
                _SELECTIVITY.get(type(constraints[i]), 50),
                constraints[i].describe(),
            ),
        )
        return QueryPlan(
            query=query,
            ordered_constraints=[constraints[i] for i in order],
            estimated_rows=[estimates[i] for i in order],
            groups=groups,
        )

    @staticmethod
    def estimated_cost(query: Query) -> int:
        """A crude additive cost estimate (sum of per-constraint selectivity)."""
        return sum(_SELECTIVITY.get(type(constraint), 50) for constraint in query.constraints)

"""Query planner: per-type subquery separation and count-based ordering.

"The query processor operates by separating subqueries that belong to the
different types of data elements, finding a feasible order among these
subqueries, and collating partial results."

The planner groups the query's constraints by the data element they target
(content, ontology, 1D substructure, 2D/3D substructure, type, path) and
orders them for execution.  It counts only when there is a choice: a
one-constraint query is planned with no count at all.  Otherwise KEYWORD,
TYPE, ONTOLOGY, OR and NOT read their counts from the inverted index and
the :class:`~repro.query.stats.StatisticsCatalogue`, and each top-level
INTERVAL or REGION walks its tree, stopping once it has found more
referents than the smallest count known so far.  A walk that finishes is
that step's match set, which the executor reuses; a walk that stops leaves
the step uncounted, to be probed once candidates exist.

Constraints run smallest count first, uncounted ones after the counted;
PATH, which ignores the candidates, after every other positive constraint;
NOT after every positive one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SpatialError
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


@dataclass
class QueryPlan:
    """An ordered execution plan for a query.

    Attributes
    ----------
    query:
        The query being planned.
    ordered_constraints:
        Constraints in planned execution order.
    estimated_rows:
        Each constraint's count, aligned with ``ordered_constraints``: what
        the index holds for it, or None where nothing was counted (a
        one-constraint plan, a PATH, a tree walk that stopped).
    groups:
        Constraints grouped by the data element they target (the per-type
        subqueries).
    matches:
        The match set of each INTERVAL / REGION whose counting walk
        finished (None elsewhere), aligned with ``ordered_constraints``;
        empty when nothing was walked.
    """

    query: Query
    ordered_constraints: list[Constraint]
    estimated_rows: list[int | None]
    groups: dict[Target, list[Constraint]] = field(default_factory=dict)
    matches: list[set[str] | None] = field(default_factory=list)

    def explain(self, actual_rows: dict[int, int] | None = None) -> str:
        """Human-readable plan explanation (counted vs. actual rows).

        *actual_rows* maps plan positions to surviving candidate counts —
        pass :meth:`QueryResult.actual_rows
        <repro.query.result.QueryResult.actual_rows>` after executing to see
        ``est~`` against ``act=``.  Actuals live on the result, not the
        plan, which only describes what an execution will do.
        """
        lines = [f"PLAN (return {self.query.return_kind.value}):"]
        for position, constraint in enumerate(self.ordered_constraints):
            line = f"  {position + 1}. [{constraint.target.value}] {constraint.describe()}"
            count = self.estimated_rows[position]
            notes = [] if count is None else [f"est~{count}"]
            if actual_rows is not None and position in actual_rows:
                notes.append(f"act={actual_rows[position]}")
            lines.append(f"{line}  ({', '.join(notes)})" if notes else line)
        return "\n".join(lines)

    def subquery_count(self) -> int:
        """Number of distinct per-type subqueries."""
        return len(self.groups)


def spatial_matches(manager, constraint, stop: int | None = None) -> set[str] | None:
    """The annotations an INTERVAL or REGION constraint matches, from one
    walk of its tree: those counted at least ``min_count`` times among the
    overlapping referents (MINCOUNT is the paper's "images having at least
    2 regions annotated with T").  With *stop*, None when the walk found
    more than *stop* referents and stopped."""
    store = manager.substructures
    if isinstance(constraint, OverlapConstraint):
        referent_ids = store.interval_ids(constraint.domain, constraint.start, constraint.end, stop)
    else:
        referent_ids = store.region_ids(constraint.space, constraint.lo, constraint.hi, stop)
    if stop is not None and len(referent_ids) > stop:
        return None
    counts = manager.agraph.annotation_counts(referent_ids)
    return {annotation_id for annotation_id, count in counts.items() if count >= constraint.min_count}


def _rank(constraint: Constraint) -> int:
    """0 for a constraint that may run first, 1 for PATH, 2 for NOT."""
    if isinstance(constraint, NotConstraint):
        return 2
    return 1 if isinstance(constraint, PathConstraint) else 0


class QueryPlanner:
    """Builds a :class:`QueryPlan` from a :class:`Query`.

    *manager* is the :class:`~repro.core.manager.Graphitti` whose indexes
    and statistics catalogue the counts come from.
    """

    def __init__(self, manager):
        self._manager = manager

    def plan(self, query: Query) -> QueryPlan:
        """Produce an execution plan for *query*."""
        constraints = query.constraints
        groups: dict[Target, list[Constraint]] = {}
        for constraint in constraints:
            groups.setdefault(constraint.target, []).append(constraint)
        self._refuse_misfit_boxes(constraints)
        if len(constraints) < 2:
            return QueryPlan(query, list(constraints), [None] * len(constraints), groups)
        counts = [self._count(constraint) for constraint in constraints]
        bound = min(
            (
                count
                for constraint, count in zip(constraints, counts)
                if count is not None and _rank(constraint) == 0
            ),
            default=None,
        )
        matches: list[set[str] | None] = [None] * len(constraints)
        for index, constraint in enumerate(constraints):
            if isinstance(constraint, (OverlapConstraint, RegionConstraint)):
                matched = spatial_matches(self._manager, constraint, stop=bound)
                if matched is not None:
                    matches[index] = matched
                    counts[index] = len(matched)
                    bound = len(matched) if bound is None else min(bound, len(matched))
        # sorted() is stable: full ties keep declaration order.
        order = sorted(
            range(len(constraints)),
            key=lambda i: (_rank(constraints[i]), counts[i] is None, counts[i] or 0),
        )
        return QueryPlan(
            query=query,
            ordered_constraints=[constraints[i] for i in order],
            estimated_rows=[counts[i] for i in order],
            groups=groups,
            matches=[matches[i] for i in order],
        )

    def _count(self, constraint: Constraint) -> int | None:
        """What the inverted index and the catalogue hold for *constraint*
        (None for a spatial or PATH constraint, or a composite holding one)."""
        manager = self._manager
        if isinstance(constraint, KeywordConstraint):
            return manager.contents.keyword_document_frequency(constraint.keyword, mode=constraint.mode)
        if isinstance(constraint, TypeConstraint):
            return manager.stats_catalogue.type_count(constraint.data_type)
        if isinstance(constraint, OntologyConstraint):
            terms = manager._expand_ontology_term(  # noqa: SLF001 - planner-side expansion
                constraint.term, constraint.ontology, constraint.include_descendants
            )
            catalogue = manager.stats_catalogue
            return sum(catalogue.term_annotation_count(term) for term in terms)
        if isinstance(constraint, OrConstraint):
            parts = [self._count(part) for part in constraint.parts]
            return None if None in parts else sum(parts)
        if isinstance(constraint, NotConstraint):
            inner = self._count(constraint.inner)
            return None if inner is None else max(manager.annotation_count - inner, 0)
        return None

    def _refuse_misfit_boxes(self, constraints) -> None:
        """Raise :class:`SpatialError` for a REGION box, top-level or nested,
        whose dimension is not its space's, as the tree walk would: the
        refusal must not depend on whether an earlier step ends the run."""
        rtrees = self._manager.substructures.rtree_family
        for constraint in constraints:
            if isinstance(constraint, OrConstraint):
                self._refuse_misfit_boxes(constraint.parts)
            elif isinstance(constraint, NotConstraint):
                self._refuse_misfit_boxes((constraint.inner,))
            elif isinstance(constraint, RegionConstraint) and constraint.space in rtrees:
                dimension = rtrees.tree(constraint.space).dimension
                if dimension is not None and dimension != len(constraint.lo):
                    raise SpatialError(
                        f"dimension mismatch: {constraint.space!r} holds {dimension}-D regions, "
                        f"the query box is {len(constraint.lo)}-D"
                    )

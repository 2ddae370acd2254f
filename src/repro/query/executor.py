"""Query executor: run a plan against a Graphitti instance and collate results.

The executor walks the planned constraints, maintaining a candidate set of
annotation ids that shrinks as each per-type subquery applies.  When the
candidate set is settled it collates the surviving annotations into the
requested result form (contents, referents, or connection subgraphs), exactly
the "collating partial results from these subqueries into a set of
type-extended connection subgraphs" step the paper describes.

The executor is **adaptive**:

* the candidate set is a plain ``set[str]`` of annotation ids; the first
  step materializes the plan's smallest-estimate constraint;
* after each step it re-picks the cheapest remaining constraint *relative to
  the current candidate count* — a constraint whose estimated match set
  dwarfs the survivors is deferred, because probing beats materializing it;
* index-backed constraints (keyword, ontology, overlap, region, type)
  switch into **semi-join probe mode** whenever the surviving candidate set
  is far below the constraint's estimated match set: each candidate is
  verified against the index in O(1)-ish instead of materializing and
  intersecting the full match set.
"""

from __future__ import annotations

from typing import Iterable

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
from repro.core.annotation import Referent
from repro.obs.tracing import NULL_SPAN
from repro.query.planner import QueryPlan, QueryPlanner
from repro.query.result import QueryResult
from repro.agraph.connection import ConnectionSubgraph
from repro.errors import QueryExecutionError

#: Verifying one candidate against an index costs roughly this many times a
#: single row of a materialized match set (annotation lookup + per-referent
#: checks vs. one set insertion).  Probe mode wins when
#: ``|candidates| * PROBE_COST_FACTOR < estimated match rows``.
PROBE_COST_FACTOR = 4

#: Constraint types the executor can verify per-candidate against an index.
_PROBEABLE = (
    KeywordConstraint,
    OntologyConstraint,
    OverlapConstraint,
    RegionConstraint,
    TypeConstraint,
)


class QueryExecutor:
    """Executes query plans against a :class:`~repro.core.manager.Graphitti`."""

    def __init__(self, manager, planner: QueryPlanner | None = None, tracer=None):
        self._manager = manager
        self._planner = planner or QueryPlanner(manager)
        # Optional repro.obs Tracer: when attached, each constraint
        # evaluation and the collation emit child spans of whatever span is
        # open on the calling thread (the serving layer's "execute" span).
        self._tracer = tracer

    def _span(self, name: str):
        tracer = self._tracer
        if tracer is None:
            return NULL_SPAN
        return tracer.span(name)

    # -- entry points ---------------------------------------------------------

    def execute(self, query: Query) -> QueryResult:
        """Plan and execute *query*, returning a :class:`QueryResult`."""
        plan = self._planner.plan(query)
        return self.execute_plan(plan)

    def execute_plan(self, plan: QueryPlan) -> QueryResult:
        """Execute a pre-built :class:`QueryPlan`."""
        query = plan.query
        result = QueryResult(return_kind=query.return_kind, plan_fingerprint=plan.fingerprint())
        surviving = self._narrow(plan, result)
        with self._span("collate") as span:
            span.set("survivors", len(surviving))
            self._collate(query, surviving, result)
        return result

    def _narrow(self, plan: QueryPlan, result: QueryResult) -> list[str]:
        """Apply the plan's constraints adaptively; the sorted survivors."""
        remaining: list[tuple[int, Constraint, int]] = [
            (position, constraint, estimate)
            for position, (constraint, estimate) in enumerate(
                zip(plan.ordered_constraints, plan.estimated_rows)
            )
        ]
        candidates: set[str] | None = None
        while remaining:
            if candidates is None:
                # Plan order already has the smallest estimate first.
                index = 0
            else:
                count = len(candidates)
                index = min(
                    range(len(remaining)),
                    key=lambda i: self._step_cost(remaining[i][1], remaining[i][2], count),
                )
            position, constraint, estimate = remaining.pop(index)
            probe = (
                candidates is not None
                and isinstance(constraint, _PROBEABLE)
                and len(candidates) * PROBE_COST_FACTOR < estimate
            )
            with self._span("execute.constraint") as span:
                if probe:
                    candidates = self._probe(constraint, candidates)
                    mode = "probe"
                else:
                    matched = self._evaluate(constraint, candidates)
                    candidates = matched if candidates is None else candidates & matched
                    mode = "materialize"
                span.set("constraint", constraint.describe())
                span.set("mode", mode)
                span.set("survivors", len(candidates))
            result.record_step(
                constraint.describe(), len(candidates), estimated=estimate, mode=mode, position=position
            )
            if not candidates:
                break
        if candidates is None:
            return sorted(self._all_annotation_ids())
        return sorted(candidates)

    @staticmethod
    def _step_cost(constraint: Constraint, estimate: int, candidate_count: int) -> int:
        """Estimated work to apply *constraint* to the current candidates."""
        if isinstance(constraint, _PROBEABLE):
            return min(estimate, candidate_count * PROBE_COST_FACTOR)
        return estimate

    # -- semi-join probes ------------------------------------------------------

    def _probe(self, constraint: Constraint, candidate_ids: Iterable[str]) -> set[str]:
        """Verify each candidate against the constraint's index directly.

        Semantics match the materializing evaluators exactly; only the
        access pattern differs (per-candidate membership checks instead of a
        full match-set materialization).
        """
        manager = self._manager
        if isinstance(constraint, KeywordConstraint):
            contents = manager.contents
            return {
                annotation_id
                for annotation_id in candidate_ids
                if contents.document_matches_keyword(
                    annotation_id, constraint.keyword, mode=constraint.mode
                )
            }
        if isinstance(constraint, OntologyConstraint):
            targets = manager._expand_ontology_term(  # noqa: SLF001 - same expansion as search_by_ontology
                constraint.term, constraint.ontology, constraint.include_descendants
            )
            # Walk the a-graph, not the in-memory annotation: referents are
            # SHARED across annotations that mark the same substructure, so a
            # term linked by another annotation's copy of the referent still
            # reaches this annotation through the shared referent node
            # (exactly what search_by_ontology's edge walk sees).
            agraph = manager.agraph
            matched: set[str] = set()
            for annotation_id in candidate_ids:
                if not targets.isdisjoint(agraph.ontology_terms_of(annotation_id)):
                    matched.add(annotation_id)
                    continue
                for referent_id in agraph.referents_of(annotation_id):
                    if not targets.isdisjoint(agraph.ontology_terms_of(referent_id)):
                        matched.add(annotation_id)
                        break
            return matched
        if isinstance(constraint, OverlapConstraint):
            return self._probe_interval(constraint, candidate_ids)
        if isinstance(constraint, RegionConstraint):
            return self._probe_region(constraint, candidate_ids)
        if isinstance(constraint, TypeConstraint):
            of_type = manager.stats_catalogue.members_of_type(constraint.data_type)
            return {annotation_id for annotation_id in candidate_ids if annotation_id in of_type}
        raise QueryExecutionError(f"constraint {type(constraint).__name__} is not probeable")

    def _probe_interval(self, constraint: OverlapConstraint, candidate_ids: Iterable[str]) -> set[str]:
        manager = self._manager
        columns = manager.columns
        refcols = manager.substructures.columns
        # A domain never interned cannot match any packed row.
        domain_ref = refcols.pool.lookup(constraint.domain)
        if domain_ref is None:
            return set()
        idspace = manager.idspace
        start, end = constraint.start, constraint.end
        matched: set[str] = set()
        for annotation_id in candidate_ids:
            slot = idspace.slot(annotation_id)
            if slot is None or not columns.is_live(slot):
                continue
            count = 0
            for rslot in columns.referent_slots(slot):
                if refcols.interval_overlaps(rslot, domain_ref, start, end):
                    count += 1
                    if count >= constraint.min_count:
                        matched.add(annotation_id)
                        break
        return matched

    def _probe_region(self, constraint: RegionConstraint, candidate_ids: Iterable[str]) -> set[str]:
        manager = self._manager
        columns = manager.columns
        refcols = manager.substructures.columns
        space_ref = refcols.pool.lookup(constraint.space)
        if space_ref is None:
            return set()
        idspace = manager.idspace
        lo, hi = constraint.lo, constraint.hi
        matched: set[str] = set()
        for annotation_id in candidate_ids:
            slot = idspace.slot(annotation_id)
            if slot is None or not columns.is_live(slot):
                continue
            count = 0
            for rslot in columns.referent_slots(slot):
                if refcols.rect_overlaps(rslot, space_ref, lo, hi):
                    count += 1
                    if count >= constraint.min_count:
                        matched.add(annotation_id)
                        break
        return matched

    # -- per-constraint evaluation --------------------------------------------

    def _evaluate(self, constraint, candidates: set[str] | None = None) -> set[str]:
        """Evaluate one constraint, materializing its match set.

        *candidates* is the set of annotation ids that survived the previous
        (more selective) subqueries.  Constraints whose natural evaluation
        restricts to a universe (type, NOT) use *candidates* when available
        -- this is where the planner's "feasible order among the subqueries"
        pays off: a selective subquery runs first and shrinks the set the
        expensive evaluation has to touch.
        """
        if isinstance(constraint, KeywordConstraint):
            return set(self._manager.search_by_keyword(constraint.keyword, mode=constraint.mode))
        if isinstance(constraint, OntologyConstraint):
            return set(
                self._manager.search_by_ontology(
                    constraint.term,
                    ontology=constraint.ontology,
                    include_descendants=constraint.include_descendants,
                )
            )
        if isinstance(constraint, OverlapConstraint):
            return self._evaluate_interval(constraint)
        if isinstance(constraint, RegionConstraint):
            return self._evaluate_region(constraint)
        if isinstance(constraint, TypeConstraint):
            return self._evaluate_type(constraint, candidates)
        if isinstance(constraint, PathConstraint):
            return self._evaluate_path(constraint)
        if isinstance(constraint, OrConstraint):
            matched: set[str] = set()
            for part in constraint.parts:
                matched |= self._evaluate(part, candidates)
            return matched
        if isinstance(constraint, NotConstraint):
            # Negation only needs to rule annotations *out of the running*:
            # when earlier subqueries already shrank the candidate set, that
            # set is the universe — materializing every annotation id again
            # would be wasted work (the executor intersects with candidates
            # right after anyway).
            if candidates is not None:
                universe = set(candidates)
            else:
                universe = set(self._all_annotation_ids())
            return universe - self._evaluate(constraint.inner, universe)
        raise QueryExecutionError(f"unknown constraint type {type(constraint).__name__}")

    # MINCOUNT is the paper's "images having at least 2 regions annotated
    # with T" count constraint.

    def _evaluate_interval(self, constraint: OverlapConstraint) -> set[str]:
        manager = self._manager
        referent_ids = manager.substructures.interval_ids(
            constraint.domain, constraint.start, constraint.end
        )
        return _meeting(manager.agraph.annotation_counts(referent_ids), constraint.min_count)

    def _evaluate_region(self, constraint: RegionConstraint) -> set[str]:
        manager = self._manager
        referent_ids = manager.substructures.region_ids(constraint.space, constraint.lo, constraint.hi)
        return _meeting(manager.agraph.annotation_counts(referent_ids), constraint.min_count)

    def _evaluate_type(self, constraint: TypeConstraint, candidates: set[str] | None = None) -> set[str]:
        """Annotations with a referent of the requested data type.

        Reads the per-data-type annotation-id index the statistics catalogue
        maintains on commit/delete — O(answer), never a full annotation scan.
        """
        of_type = self._manager.stats_catalogue.members_of_type(constraint.data_type)
        if candidates is None:
            return set(of_type)
        # set.__and__ iterates the smaller operand; no copy of the index.
        return candidates & of_type

    def _evaluate_path(self, constraint: PathConstraint) -> set[str]:
        """Contents lying on a bounded a-graph path from a source to a target.

        Two multi-source bounded BFS sweeps replace the former
        |sources| x |targets| pairwise ``path()`` loop: one sweep from the
        source set, one from the target set, each depth-limited to
        ``max_length``.  A node is part of a qualifying connection exactly
        when its distance-to-nearest-source plus distance-to-nearest-target
        stays within the bound — a superset of the nodes the pairwise
        shortest-path walk used to collect (which kept only one witness path
        per pair).
        """
        sources = set(self._manager.search_by_keyword(constraint.from_keyword))
        targets = set(self._manager.search_by_keyword(constraint.to_keyword))
        if not sources or not targets:
            return set()
        agraph = self._manager.agraph
        bound = constraint.max_length
        from_sources = agraph.multi_source_distances(sources, max_depth=bound)
        from_targets = agraph.multi_source_distances(targets, max_depth=bound)
        graph = agraph.graph
        reachable: set[str] = set()
        for node, source_distance in from_sources.items():
            target_distance = from_targets.get(node)
            if target_distance is None or source_distance + target_distance > bound:
                continue
            if graph.kind(node) == "content":
                reachable.add(node)
        return reachable

    # -- collation ------------------------------------------------------------

    def _collate(self, query: Query, surviving: list[str], result: QueryResult) -> None:
        limited = surviving if query.limit is None else surviving[: query.limit]
        if query.return_kind is ReturnKind.CONTENTS:
            result.annotation_ids = limited
            result.fragments = [self._manager.contents.get(annotation_id) for annotation_id in limited]
        elif query.return_kind is ReturnKind.REFERENTS:
            result.annotation_ids = limited
            manager = self._manager
            columns = manager.columns
            refcols = manager.substructures.columns
            referents = []
            seen = set()
            for annotation_id in limited:
                slot = manager.idspace.slot(annotation_id)
                if slot is None or not columns.is_live(slot):
                    continue
                for rslot, terms in columns.referent_entries(slot):
                    canonical = refcols.view_at(rslot)
                    if canonical is None or canonical.referent_id in seen:
                        continue
                    seen.add(canonical.referent_id)
                    referents.append(
                        Referent(
                            ref=canonical.ref,
                            ontology_terms=terms,
                            referent_id=canonical.referent_id,
                        )
                    )
            result.referents = referents
        else:  # GRAPH
            result.annotation_ids = limited
            result.subgraphs = self._build_subgraphs(limited)

    def _build_subgraphs(self, annotation_ids: list[str]) -> list[ConnectionSubgraph]:
        """Group surviving annotations into connected a-graph components.

        Each connected subgraph forms one result page, matching the paper:
        "each connected subgraph forms a result page".  Every subgraph is then
        decorated with its per-type witness metadata so the result is a
        "type-extended connection subgraph".

        Grouping asks the a-graph's incremental component index for each
        annotation's component root (O(alpha) per id) instead of running a
        BFS component sweep per result page.
        """
        agraph = self._manager.agraph
        by_component: dict = {}
        for annotation_id in annotation_ids:
            root = agraph.component_root(annotation_id)
            by_component.setdefault(root, []).append(annotation_id)
        subgraphs: list[ConnectionSubgraph] = []
        for grouped in by_component.values():
            members = sorted(grouped)
            if len(members) >= 2:
                subgraph = agraph.connect(*members)
            else:
                subgraph = ConnectionSubgraph(terminals=tuple(members), nodes=set(members))
            self._extend_with_types(subgraph, members)
            subgraphs.append(subgraph)
        return subgraphs

    def _extend_with_types(self, subgraph: ConnectionSubgraph, members: list[str]) -> None:
        """Attach per-type referents and intersections to a connection subgraph.

        This is the paper's "type-extended connection subgraph": for every data
        type present among the subgraph's annotations, record the referents of
        that type and the intersection of any co-located (overlapping) referents
        of the same type on the same object, using the SUB-X ``intersect``
        operator.

        Overlapping pairs are found with a group-by-object, sort-by-extent
        sweep (intervals and rectangles swept separately on their first
        axis) instead of testing every referent pair — O(n log n + pairs)
        instead of O(n^2) per type.
        """
        manager = self._manager
        columns = manager.columns
        refcols = manager.substructures.columns
        by_type: dict[str, list] = {}
        for annotation_id in members:
            slot = manager.idspace.slot(annotation_id)
            if slot is None or not columns.is_live(slot):
                continue
            # Canonical referent views carry everything the sweep reads
            # (extents, object id, referent id) — no row materialization.
            for rslot in columns.referent_slots(slot):
                canonical = refcols.view_at(rslot)
                if canonical is None:
                    continue
                by_type.setdefault(canonical.ref.data_type.value, []).append(canonical)
        for data_type, referents in by_type.items():
            intersections = [
                {
                    "object": left.ref.object_id,
                    "referents": [left.referent_id, right.referent_id],
                }
                for left, right in _overlapping_pairs(referents)
            ]
            subgraph.attach_type_extension(
                data_type, [referent.referent_id for referent in referents], intersections
            )

    def _all_annotation_ids(self) -> list[str]:
        return list(self._manager.annotation_ids())


def _meeting(counts: dict[str, int], min_count: int) -> set[str]:
    """The annotations counted at least *min_count* times."""
    return {annotation_id for annotation_id, count in counts.items() if count >= min_count}


def _overlapping_pairs(referents: list) -> list[tuple]:
    """Co-located same-object referent pairs with a usable intersection.

    Semantically identical to the quadratic all-pairs loop (each unordered
    pair in input order, same-object, both extents present, overlapping,
    non-None ``intersect``), found by grouping on object id and sweeping the
    extents in start order: an active extent whose end precedes the current
    start can never overlap anything later, so each pair is examined at most
    once past the pruning.
    """
    from repro.spatial.operators import if_overlap, intersect

    by_object: dict[str, tuple[list, list]] = {}
    for position, referent in enumerate(referents):
        extent = referent.ref.interval or referent.ref.rect
        if extent is None:
            continue
        intervals, rects = by_object.setdefault(referent.ref.object_id, ([], []))
        if referent.ref.interval is not None:
            intervals.append((extent.start, extent.end, position, referent, extent))
        else:
            rects.append((extent.lo[0], extent.hi[0], position, referent, extent))

    pairs: list[tuple[int, int, object, object]] = []
    for intervals, rects in by_object.values():
        for items in (intervals, rects):
            if len(items) < 2:
                continue
            items.sort(key=lambda item: (item[0], item[1]))
            active: list[tuple[float, float, int, object, object]] = []
            for start, end, position, referent, extent in items:
                active = [item for item in active if item[1] >= start]
                for _, _, other_position, other_referent, other_extent in active:
                    if if_overlap(other_extent, extent) and intersect(other_extent, extent) is not None:
                        first, second = sorted(
                            ((other_position, other_referent), (position, referent))
                        , key=lambda pair: pair[0])
                        pairs.append((first[0], second[0], first[1], second[1]))
                active.append((start, end, position, referent, extent))
    pairs.sort(key=lambda pair: (pair[0], pair[1]))
    return [(left, right) for _, _, left, right in pairs]

"""Live statistics catalogue and cardinality estimation for query planning.

The paper's query processor "find[s] a feasible order among these
subqueries"; finding a *good* order needs to know how big each subquery's
match set is.  The :class:`StatisticsCatalogue` maintains the counts that
question needs, incrementally, as annotations commit and delete:

* per-data-type annotation-id sets (doubling as the O(answer) evaluation
  index for ``TYPE`` constraints),
* per-ontology-term annotation counts,
* the live annotation total.

The remaining statistics are read live from substrates that already maintain
them incrementally: per-term document frequencies from the inverted keyword
index, per-domain/per-space extent summaries from the
:class:`~repro.core.substructure_store.SubstructureStore`, and size/degree
aggregates from the a-graph.

:class:`CardinalityEstimator` turns those statistics into per-constraint
row estimates the cost-based planner orders by and the adaptive executor
uses to decide between materializing a constraint's match set and
semi-join-probing the surviving candidates against the index.
"""

from __future__ import annotations

from typing import Any

from repro.datatypes.base import DataType
from repro.errors import SpatialError
from repro.query.ast import (
    Constraint,
    KeywordConstraint,
    NotConstraint,
    OntologyConstraint,
    OrConstraint,
    OverlapConstraint,
    PathConstraint,
    RegionConstraint,
    TypeConstraint,
)

_EMPTY: frozenset[str] = frozenset()


def canonical_type(data_type: str) -> str:
    """Resolve a type name ('dna', 'DNA', 'dna_sequence') to its enum value."""
    wanted = data_type.lower()
    try:
        return DataType(wanted).value
    except ValueError:
        pass
    try:
        return DataType[wanted.upper()].value
    except KeyError:
        return wanted


class StatisticsCatalogue:
    """Incrementally maintained per-type and per-term annotation statistics.

    Fed by ``Graphitti.commit()`` / ``delete_annotation()`` (and the
    persistence layer's ``wire_annotations``, so snapshot load and WAL
    recovery rebuild it record by record).  :meth:`rebuild` recomputes
    everything from scratch; tests assert the incremental state equals it
    across the full durability lifecycle.
    """

    def __init__(self) -> None:
        self._annotation_total = 0
        # DataType.value -> ids of annotations with >= 1 referent of that type
        self._by_type: dict[str, set[str]] = {}
        # ontology term -> number of annotations pointing at it (content or referent)
        self._term_counts: dict[str, int] = {}

    # -- incremental maintenance ----------------------------------------------

    def on_commit(self, annotation) -> None:
        """Account a newly committed annotation."""
        annotation_id = annotation.annotation_id
        self._annotation_total += 1
        for value in {referent.ref.data_type.value for referent in annotation.referents}:
            self._by_type.setdefault(value, set()).add(annotation_id)
        for term in annotation.ontology_terms():
            self._term_counts[term] = self._term_counts.get(term, 0) + 1

    def on_delete(self, annotation) -> None:
        """Remove a deleted annotation's contribution."""
        annotation_id = annotation.annotation_id
        self._annotation_total -= 1
        for value in {referent.ref.data_type.value for referent in annotation.referents}:
            members = self._by_type.get(value)
            if members is not None:
                members.discard(annotation_id)
                if not members:
                    del self._by_type[value]
        for term in annotation.ontology_terms():
            remaining = self._term_counts.get(term, 0) - 1
            if remaining > 0:
                self._term_counts[term] = remaining
            else:
                self._term_counts.pop(term, None)

    def on_update(self, annotation, old_types: set[str], old_terms: set[str]) -> None:
        """Delta-adjust for an in-place update (the live total is unchanged).

        *old_types* / *old_terms* are the annotation's pre-update referent
        type values and ontology terms; only the symmetric differences touch
        the catalogue, so an update that edits a title costs nothing here.
        """
        annotation_id = annotation.annotation_id
        new_types = {referent.ref.data_type.value for referent in annotation.referents}
        for value in old_types - new_types:
            members = self._by_type.get(value)
            if members is not None:
                members.discard(annotation_id)
                if not members:
                    del self._by_type[value]
        for value in new_types - old_types:
            self._by_type.setdefault(value, set()).add(annotation_id)
        new_terms = set(annotation.ontology_terms())
        for term in old_terms - new_terms:
            remaining = self._term_counts.get(term, 0) - 1
            if remaining > 0:
                self._term_counts[term] = remaining
            else:
                self._term_counts.pop(term, None)
        for term in new_terms - old_terms:
            self._term_counts[term] = self._term_counts.get(term, 0) + 1

    def rebuild(self, manager) -> None:
        """Recompute the catalogue from *manager*'s committed annotations.

        Reads type values and ontology terms straight off the columnar store
        (packed per-row spans) — no annotation objects are materialized.
        """
        self._annotation_total = 0
        self._by_type = {}
        self._term_counts = {}
        columns = manager.columns
        refcols = manager.substructures.columns
        for annotation_id in manager.annotation_ids():
            slot = manager.idspace.slot(annotation_id)
            if slot is None or not columns.is_live(slot):
                continue  # pragma: no cover - order and columns stay in sync
            types, terms = columns.stat_row(slot, refcols)
            self._annotation_total += 1
            for value in types:
                self._by_type.setdefault(value, set()).add(annotation_id)
            for term in terms:
                self._term_counts[term] = self._term_counts.get(term, 0) + 1

    # -- reads ----------------------------------------------------------------

    @property
    def annotation_total(self) -> int:
        """Number of live annotations."""
        return self._annotation_total

    def annotations_of_type(self, data_type: str) -> frozenset[str]:
        """Ids of annotations with at least one referent of *data_type*.

        This is the ``TYPE`` constraint's evaluation index: O(answer) reads
        instead of the former full annotation scan.  Returns a defensive
        copy; hot paths that only need membership tests or intersections
        should use :meth:`members_of_type` instead.
        """
        members = self._by_type.get(canonical_type(data_type))
        return frozenset(members) if members is not None else _EMPTY

    def members_of_type(self, data_type: str) -> frozenset[str] | set[str]:
        """The live id set for *data_type* — O(1), no copy.

        Callers must treat the returned set as read-only: it is the
        catalogue's own index, mutated by commit/delete.
        """
        return self._by_type.get(canonical_type(data_type), _EMPTY)

    def type_count(self, data_type: str) -> int:
        """Number of annotations with a referent of *data_type* (exact)."""
        members = self._by_type.get(canonical_type(data_type))
        return len(members) if members is not None else 0

    def term_annotation_count(self, term: str) -> int:
        """Number of annotations pointing at ontology *term* (exact)."""
        return self._term_counts.get(term, 0)

    def counts(self) -> dict[str, Any]:
        """A comparable snapshot of every incrementally maintained count.

        Two catalogues over the same logical state (e.g. the live one and a
        :meth:`rebuild` from scratch) return equal dicts.
        """
        return {
            "annotations": self._annotation_total,
            "by_type": {value: len(members) for value, members in sorted(self._by_type.items())},
            "ontology_terms": dict(sorted(self._term_counts.items())),
        }

    def summary(self) -> dict[str, Any]:
        """Compact summary merged into ``Graphitti.statistics()``."""
        return {
            "annotations": self._annotation_total,
            "annotations_by_type": {
                value: len(members) for value, members in sorted(self._by_type.items())
            },
            "distinct_ontology_terms": len(self._term_counts),
        }


class CardinalityEstimator:
    """Per-constraint row estimates from the live statistics.

    Estimates are *planning* inputs, not answers: each one bounds how many
    annotations a constraint's match set could hold given the catalogue, the
    inverted index's document frequencies, the substructure store's extent
    summaries, and the a-graph aggregates.  They only need to be good enough
    to rank constraints and to decide probe vs. materialize.
    """

    def __init__(self, manager):
        self._manager = manager

    def estimate(self, constraint: Constraint) -> int:
        """Estimated number of annotations matching *constraint*."""
        manager = self._manager
        total = manager.annotation_count
        if isinstance(constraint, KeywordConstraint):
            return min(
                manager.contents.keyword_document_frequency(
                    constraint.keyword, mode=constraint.mode
                ),
                total,
            )
        if isinstance(constraint, TypeConstraint):
            return manager.stats_catalogue.type_count(constraint.data_type)
        if isinstance(constraint, OntologyConstraint):
            terms = manager._expand_ontology_term(  # noqa: SLF001 - planner-side expansion
                constraint.term, constraint.ontology, constraint.include_descendants
            )
            catalogue = manager.stats_catalogue
            return min(sum(catalogue.term_annotation_count(term) for term in terms), total)
        if isinstance(constraint, OverlapConstraint):
            return self._estimate_interval(constraint, total)
        if isinstance(constraint, RegionConstraint):
            return self._estimate_region(constraint, total)
        if isinstance(constraint, PathConstraint):
            # Bounded by the smaller endpoint set; the BFS sweeps cannot
            # produce more content nodes than reachable annotations.
            frequency = min(
                manager.contents.keyword_document_frequency(constraint.from_keyword),
                manager.contents.keyword_document_frequency(constraint.to_keyword),
            )
            # Path evaluation touches a neighborhood, not just the endpoints;
            # scale by the a-graph's mean degree as a reach factor.
            graph = manager.agraph
            degree = (2 * graph.edge_count / graph.node_count) if graph.node_count else 1.0
            return min(int(frequency * max(degree, 1.0)), total)
        if isinstance(constraint, OrConstraint):
            return min(sum(self.estimate(part) for part in constraint.parts), total)
        if isinstance(constraint, NotConstraint):
            return max(total - self.estimate(constraint.inner), 0)
        return total

    def _estimate_interval(self, constraint: OverlapConstraint, total: int) -> int:
        store = self._manager.substructures
        summary = store.interval_summary(constraint.domain)
        bounds = store.interval_bounds(constraint.domain)
        if summary is None or summary.count == 0 or bounds is None:
            return 0
        lo, hi = bounds
        if constraint.end < lo or constraint.start > hi:
            return 0
        span = max(hi - lo, 1e-9)
        # Uniformity assumption: an indexed interval of mean length m overlaps
        # the window [s, e] when its start falls in [s - m, e].
        fraction = min(1.0, ((constraint.end - constraint.start) + summary.mean_measure()) / span)
        matched_referents = summary.count * fraction
        return max(1, min(int(matched_referents), total))

    def _estimate_region(self, constraint: RegionConstraint, total: int) -> int:
        store = self._manager.substructures
        summary = store.region_summary(constraint.space)
        bounds = store.region_bounds(constraint.space)
        if summary is None or summary.count == 0 or bounds is None:
            return 0
        bounds_lo, bounds_hi = bounds
        dimension = len(bounds_lo)
        if len(constraint.lo) != dimension:
            # Refused at planning, as the R-tree walk would refuse it: the
            # refusal must not depend on whether an earlier step ends the run.
            raise SpatialError(
                f"dimension mismatch: {constraint.space!r} holds {dimension}-D regions, "
                f"the query box is {len(constraint.lo)}-D"
            )
        fraction = 1.0
        mean_edge = summary.mean_measure() ** (1.0 / dimension)
        for axis in range(dimension):
            if constraint.hi[axis] < bounds_lo[axis] or constraint.lo[axis] > bounds_hi[axis]:
                return 0
            span = max(bounds_hi[axis] - bounds_lo[axis], 1e-9)
            extent = constraint.hi[axis] - constraint.lo[axis]
            fraction *= min(1.0, (extent + mean_edge) / span)
        matched_referents = summary.count * fraction
        return max(1, min(int(matched_referents), total))

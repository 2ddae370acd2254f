"""Live statistics catalogue: the counts the query planner orders by.

The paper's query processor "find[s] a feasible order among these
subqueries".  The :class:`StatisticsCatalogue` keeps, incrementally as
annotations commit, update and delete, the counts that order reads:

* per-data-type annotation-id sets (doubling as the O(answer) evaluation
  index for ``TYPE`` constraints),
* per-ontology-term annotation counts,
* the live annotation total.

Per-term document frequencies come from the inverted keyword index, and
INTERVAL / REGION counts from a bounded walk of their tree (see
:mod:`repro.query.planner`); nothing here is estimated.
"""

from __future__ import annotations

from typing import Any

from repro.datatypes.base import DataType

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

    Fed by every commit, update and delete (:meth:`apply`, from the
    persistence layer's ``wire_annotations`` too, so snapshot load and WAL
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

    def apply(self, annotation_id: str, before, after) -> None:
        """Move *annotation_id* from state *before* to state *after*.

        Each state is a :class:`~repro.core.footprint.WriteState` (its
        ``types`` and ``terms``); a commit has no *before* and a delete no
        *after*.  Only the differences touch the catalogue, so an update
        that edits a title costs nothing here.
        """
        old_types, old_terms = (before.types, before.terms) if before else (_EMPTY, _EMPTY)
        new_types, new_terms = (after.types, after.terms) if after else (_EMPTY, _EMPTY)
        self._annotation_total += (after is not None) - (before is not None)
        for value in old_types - new_types:
            members = self._by_type.get(value)
            if members is not None:
                members.discard(annotation_id)
                if not members:
                    del self._by_type[value]
        for value in new_types - old_types:
            self._by_type.setdefault(value, set()).add(annotation_id)
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

    def members_of_type(self, data_type: str) -> frozenset[str] | set[str]:
        """Ids of annotations with at least one referent of *data_type* —
        the ``TYPE`` constraint's evaluation index, O(1), no copy.

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

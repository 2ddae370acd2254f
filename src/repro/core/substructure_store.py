"""Storage and indexing of annotation referents (marked substructures).

The referent store is the bridge between the annotation model and the spatial
substrate.  It keeps every :class:`~repro.core.annotation.Referent` keyed by
id, routes each referent's spatial extent to the right index (an interval
tree per coordinate domain, an R-tree per coordinate space), and answers the
overlap / containment queries the query processor issues against substructures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

from repro.core.annotation import Referent
from repro.core.columns import ReferentColumns
from repro.datatypes.base import DataType
from repro.errors import SpatialError
from repro.spatial.interval import Interval
from repro.spatial.interval_tree import IntervalIndexFamily
from repro.spatial.rect import Rect
from repro.spatial.rtree import RTreeFamily


@dataclass
class ExtentSummary:
    """Count and summed measure of the extents indexed in one domain/space.

    Both fields are maintained *exactly* on add and discard (so a recovered
    instance's summaries equal a pre-crash instance's).  Bounding extents are
    deliberately not kept here: the interval trees and R-trees already
    maintain tight bounds (:meth:`~repro.spatial.interval_tree.IntervalTree.span`,
    :meth:`~repro.spatial.rtree.RTree.bounds`) that shrink on removal, and
    the store reads them live via :meth:`SubstructureStore.interval_bounds` /
    :meth:`SubstructureStore.region_bounds`.
    """

    count: int = 0
    total_measure: float = 0.0

    def mean_measure(self) -> float:
        """Mean extent measure of the indexed substructures."""
        return self.total_measure / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        return {"count": self.count, "total_measure": self.total_measure}


class SubstructureStore:
    """Referent registry plus the interval-tree and R-tree families."""

    def __init__(self, rtree_max_entries: int = 16):
        # Referents live in slot-keyed columns: the canonical Referent object
        # per unique substructure plus packed extent columns the executor's
        # probe paths scan without materializing anything.
        self.columns = ReferentColumns()
        self._intervals = IntervalIndexFamily()
        self._rtrees = RTreeFamily(max_entries=rtree_max_entries)
        # object id -> referent ids touching that object
        self._by_object: dict[str, set[str]] = {}
        # data type -> referent ids
        self._by_type: dict[DataType, set[str]] = {}
        # coordinate domain -> summary of its indexed intervals
        self._interval_summaries: dict[str, ExtentSummary] = {}
        # coordinate space -> summary of its indexed regions
        self._region_summaries: dict[str, ExtentSummary] = {}

    def __len__(self) -> int:
        return len(self.columns)

    def __contains__(self, referent_id: str) -> bool:
        return referent_id in self.columns

    @property
    def interval_family(self) -> IntervalIndexFamily:
        """The interval-tree family (one tree per coordinate domain)."""
        return self._intervals

    @property
    def rtree_family(self) -> RTreeFamily:
        """The R-tree family (one tree per coordinate space)."""
        return self._rtrees

    def add(self, referent: Referent) -> str:
        """Register a referent and index its spatial extent.

        Re-adding a referent with an id already present returns the existing
        id without re-indexing (referents are shared across annotations that
        mark the same substructure, which is what makes the a-graph connect
        two annotations).
        """
        placed = self._register(referent)
        if placed is not None:
            family, key, extent = placed
            family.insert(key, extent)
        return referent.referent_id

    def add_many(self, referents: Iterable[Referent]) -> None:
        """Register a batch of referents (:meth:`add` for each, in order).

        Columns, the per-object / per-type maps and the extent summaries fill
        in batch order — the float sums are the ones repeated :meth:`add`
        calls would produce — and each domain's / space's extents then reach
        their tree as one batch, which a still-empty tree builds in a single
        pass (:meth:`IntervalTree.insert_many
        <repro.spatial.interval_tree.IntervalTree.insert_many>`,
        :meth:`RTree.insert_many <repro.spatial.rtree.RTree.insert_many>`).
        """
        batches: dict[tuple[Any, str], list] = {}
        for referent in referents:
            placed = self._register(referent)
            if placed is not None:
                family, key, extent = placed
                batches.setdefault((family, key), []).append(extent)
        for (family, key), extents in batches.items():
            family.insert_many(key, extents)

    def _register(self, referent: Referent):
        """Everything :meth:`add` does short of the tree insert.

        Returns ``(index family, domain or space, extent to index)``, or
        ``None`` when the referent is already present or has no extent.
        """
        referent_id = referent.referent_id
        assert referent_id is not None
        if referent_id in self.columns:
            return None
        self.columns.add(referent)
        ref = referent.ref
        self._by_object.setdefault(ref.object_id, set()).add(referent_id)
        self._by_type.setdefault(ref.data_type, set()).add(referent_id)
        if ref.interval is not None:
            domain = ref.interval.domain or ref.object_id
            indexed = Interval(ref.interval.start, ref.interval.end, domain=domain, payload=referent_id)
            summary = self._interval_summaries.setdefault(domain, ExtentSummary())
            summary.count += 1
            summary.total_measure += indexed.length
            return self._intervals, domain, indexed
        if ref.rect is not None:
            space = ref.rect.space or ref.object_id
            indexed = Rect(ref.rect.lo, ref.rect.hi, space=space, payload=referent_id)
            summary = self._region_summaries.setdefault(space, ExtentSummary())
            summary.count += 1
            summary.total_measure += indexed.area()
            return self._rtrees, space, indexed
        return None

    def discard(self, referent_id: str) -> bool:
        """Remove a referent and its indexed extent; returns ``True`` if present."""
        referent = self.columns.view(referent_id)
        if referent is None:
            return False
        self.columns.discard(referent_id)
        ref = referent.ref
        self._by_object.get(ref.object_id, set()).discard(referent_id)
        self._by_type.get(ref.data_type, set()).discard(referent_id)
        if ref.interval is not None:
            domain = ref.interval.domain or ref.object_id
            if domain in self._intervals:
                indexed = Interval(
                    ref.interval.start, ref.interval.end, domain=domain, payload=referent_id
                )
                self._intervals.tree(domain).remove(indexed)
            summary = self._interval_summaries.get(domain)
            if summary is not None:
                summary.count -= 1
                summary.total_measure -= ref.interval.end - ref.interval.start
                if summary.count <= 0:
                    del self._interval_summaries[domain]
        elif ref.rect is not None:
            space = ref.rect.space or ref.object_id
            if space in self._rtrees:
                indexed = Rect(ref.rect.lo, ref.rect.hi, space=space, payload=referent_id)
                self._rtrees.tree(space).remove(indexed)
            summary = self._region_summaries.get(space)
            if summary is not None:
                summary.count -= 1
                summary.total_measure -= Rect(ref.rect.lo, ref.rect.hi).area()
                if summary.count <= 0:
                    del self._region_summaries[space]
        return True

    def move(
        self,
        referent_id: str,
        start: float | None = None,
        end: float | None = None,
        lo: Iterable[float] | None = None,
        hi: Iterable[float] | None = None,
    ) -> Referent:
        """Move a referent's indexed extent in place (the delta-update path).

        The extent is removed from its interval tree / R-tree, the referent's
        :class:`~repro.datatypes.base.SubstructureRef` is rewritten with the
        new coordinates (omitted ones keep their old value), and the new
        extent is re-inserted into the *same* tree — one remove + one insert
        instead of the full referent teardown a delete+recommit pays.  The
        extent summary adjusts by the measure delta, the referent id stays
        stable (a referent shared by several annotations moves for all of
        them — the substructure itself was refined), and the domain/space is
        immutable: moving across domains is a remove+add, not a move.
        """
        referent = self.columns.view(referent_id)
        if referent is None:
            raise SpatialError(f"no referent {referent_id!r} to move")
        ref = referent.ref
        if ref.interval is not None:
            if lo is not None or hi is not None:
                raise SpatialError(f"referent {referent_id!r} is 1D; move it with start/end")
            domain = ref.interval.domain or ref.object_id
            old = Interval(ref.interval.start, ref.interval.end, domain=domain, payload=referent_id)
            # Values keep their numeric type (int stays int): the referent's
            # document rendering stringifies them, and a move must produce
            # the same text a recommit with the same numbers would.
            new_start = ref.interval.start if start is None else start
            new_end = ref.interval.end if end is None else end
            moved = Interval(new_start, new_end, domain=domain, payload=referent_id)
            self._intervals.tree(domain).remove(old)
            self._intervals.insert(domain, moved)
            ref.interval = Interval(new_start, new_end, domain=ref.interval.domain)
            if "start" in ref.descriptor:
                ref.descriptor["start"] = new_start
            if "end" in ref.descriptor:
                ref.descriptor["end"] = new_end
            summary = self._interval_summaries[domain]
            summary.total_measure += moved.length - old.length
        elif ref.rect is not None:
            if start is not None or end is not None:
                raise SpatialError(f"referent {referent_id!r} is 2D/3D; move it with lo/hi")
            space = ref.rect.space or ref.object_id
            old = Rect(ref.rect.lo, ref.rect.hi, space=space, payload=referent_id)
            new_lo = ref.rect.lo if lo is None else tuple(lo)
            new_hi = ref.rect.hi if hi is None else tuple(hi)
            moved = Rect(new_lo, new_hi, space=space, payload=referent_id)
            self._rtrees.tree(space).remove(old)
            self._rtrees.insert(space, moved)
            ref.rect = Rect(new_lo, new_hi, space=ref.rect.space)
            if "lo" in ref.descriptor:
                ref.descriptor["lo"] = list(new_lo)
            if "hi" in ref.descriptor:
                ref.descriptor["hi"] = list(new_hi)
            summary = self._region_summaries[space]
            summary.total_measure += moved.area() - old.area()
        else:
            raise SpatialError(f"referent {referent_id!r} has no spatial extent to move")
        # Re-derive the copy-on-write payload snapshot + packed extent columns
        # (the old payload dict is left intact for any in-flight frozen view).
        self.columns.refresh(self.columns.slot_of(referent_id))
        return referent

    def get(self, referent_id: str) -> Referent:
        """The referent with id *referent_id* (raises KeyError when absent)."""
        referent = self.columns.view(referent_id)
        if referent is None:
            raise KeyError(referent_id)
        return referent

    def all_referents(self) -> list[Referent]:
        """Every registered referent."""
        columns = self.columns
        return [columns.view(rid) for rid in columns.referent_ids()]

    def referents_on_object(self, object_id: str) -> list[Referent]:
        """All referents that mark substructures of *object_id*."""
        columns = self.columns
        return [columns.view(rid) for rid in sorted(self._by_object.get(object_id, set()))]

    def referents_of_type(self, data_type: DataType) -> list[Referent]:
        """All referents of a given data type."""
        columns = self.columns
        return [columns.view(rid) for rid in sorted(self._by_type.get(data_type, set()))]

    # -- spatial queries ------------------------------------------------------

    def overlapping_intervals(self, domain: str, start: float, end: float) -> list[Referent]:
        """Referents whose 1D extent overlaps ``[start, end]`` in *domain*."""
        query = Interval(start, end, domain=domain)
        hits = self._intervals.search_overlap(domain, query)
        columns = self.columns
        return [columns.view(i.payload) for i in hits if i.payload in columns]

    def overlapping_regions(self, space: str, lo: Iterable[float], hi: Iterable[float]) -> list[Referent]:
        """Referents whose 2D/3D extent overlaps the query box in *space*."""
        query = Rect(tuple(lo), tuple(hi), space=space)
        hits = self._rtrees.search_overlap(space, query)
        columns = self.columns
        return [columns.view(r.payload) for r in hits if r.payload in columns]

    def point_intervals(self, domain: str, point: float) -> list[Referent]:
        """Referents whose 1D extent contains *point*."""
        return self.overlapping_intervals(domain, point, point)

    # -- stats ----------------------------------------------------------------

    def interval_summary(self, domain: str) -> ExtentSummary | None:
        """Extent summary of *domain*'s indexed intervals (None when empty)."""
        return self._interval_summaries.get(domain)

    def region_summary(self, space: str) -> ExtentSummary | None:
        """Extent summary of *space*'s indexed regions (None when empty)."""
        return self._region_summaries.get(space)

    def interval_bounds(self, domain: str) -> tuple[float, float] | None:
        """Exact ``(lo, hi)`` bounds of *domain*'s indexed intervals."""
        if domain not in self._intervals:
            return None
        span = self._intervals.tree(domain).span()
        if span is None:
            return None
        return (span.start, span.end)

    def region_bounds(self, space: str) -> tuple[tuple[float, ...], tuple[float, ...]] | None:
        """Exact ``(lo, hi)`` corner bounds of *space*'s indexed regions."""
        if space not in self._rtrees:
            return None
        bounds = self._rtrees.tree(space).bounds()
        if bounds is None:
            return None
        return (bounds.lo, bounds.hi)

    def extent_summaries(self) -> dict[str, dict]:
        """JSON-compatible dump of every per-domain/per-space extent summary."""
        return {
            "intervals": {domain: s.to_dict() for domain, s in self._interval_summaries.items()},
            "regions": {space: s.to_dict() for space, s in self._region_summaries.items()},
        }

    def total_indexed_intervals(self) -> int:
        """Number of intervals across every interval tree."""
        return self._intervals.total_intervals()

    def total_indexed_regions(self) -> int:
        """Number of rectangles across every R-tree."""
        return self._rtrees.total_rects()

    def index_count(self) -> tuple[int, int]:
        """``(interval-tree count, R-tree count)`` — the paper's "keep the
        number of index structures small" metric."""
        return (len(self._intervals), len(self._rtrees))

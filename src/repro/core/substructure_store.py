"""Storage and indexing of annotation referents (marked substructures).

The referent store is the bridge between the annotation model and the spatial
substrate.  It keeps every :class:`~repro.core.annotation.Referent` keyed by
id, routes each referent's spatial extent to the right index (an interval
tree per coordinate domain, an R-tree per coordinate space), and answers the
overlap / containment queries the query processor issues against substructures.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.core.annotation import Referent
from repro.core.columns import ReferentColumns
from repro.datatypes.base import DataType
from repro.errors import SpatialError
from repro.spatial.interval import Interval
from repro.spatial.interval_tree import IntervalIndexFamily
from repro.spatial.rect import Rect
from repro.spatial.rtree import RTreeFamily


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

        Columns and the per-object / per-type maps fill in batch order, and
        each domain's / space's extents then reach
        their tree as one batch, which the tree builds in a single pass when
        it is empty or the batch is large against it (:meth:`IntervalTree.insert_many
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
        referent_id = referent.referent_id = self._filed_id(referent)
        if referent_id in self.columns:
            return None
        self.columns.add(referent)
        ref = referent.ref
        self._by_object.setdefault(ref.object_id, set()).add(referent_id)
        self._by_type.setdefault(ref.data_type, set()).add(referent_id)
        if ref.interval is not None:
            domain = ref.interval.domain or ref.object_id
            indexed = Interval(ref.interval.start, ref.interval.end, domain=domain, payload=referent_id)
            return self._intervals, domain, indexed
        if ref.rect is not None:
            space = ref.rect.space or ref.object_id
            indexed = Rect(ref.rect.lo, ref.rect.hi, space=space, payload=referent_id)
            return self._rtrees, space, indexed
        return None

    def _filed_id(self, referent: Referent) -> str:
        """The id *referent* is filed under: its own, unless a live referent
        with that id marks another extent (it moved after its id was derived
        from its first extent); then the first of ``id#2``, ``id#3``, ...
        that is free or marks this extent.  It depends on the store alone,
        so WAL replay, a follower and the owning shard file a mark where the
        live write did."""
        referent_id = referent.referent_id
        assert referent_id is not None
        candidate, serial = referent_id, 1
        while True:
            held = self.columns.view(candidate)
            if held is None or held.ref.key() == referent.ref.key():
                return candidate
            serial += 1
            candidate = f"{referent_id}#{serial}"

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
        elif ref.rect is not None:
            space = ref.rect.space or ref.object_id
            if space in self._rtrees:
                indexed = Rect(ref.rect.lo, ref.rect.hi, space=space, payload=referent_id)
                self._rtrees.tree(space).remove(indexed)
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
        referent id stays
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

    # Every indexed extent's payload is the id of a registered referent: an
    # extent enters its tree after the referent's columns and leaves it with
    # them, so the id searches hand the payloads back unchecked.

    def interval_ids(
        self, domain: str, start: float, end: float, stop: int | None = None
    ) -> list[str]:
        """Ids of the referents whose 1D extent overlaps ``[start, end]`` in
        *domain*, in ``(start, end)`` order.  With *stop*, the walk ends
        once it has found more than *stop* of them (a prefix comes back)."""
        hits = self._intervals.search_overlap(domain, Interval(start, end, domain=domain), stop)
        return [interval.payload for interval in hits]

    def region_ids(
        self, space: str, lo: Iterable[float], hi: Iterable[float], stop: int | None = None
    ) -> list[str]:
        """Ids of the referents whose 2D/3D extent overlaps the query box in
        *space*, in the R-tree's depth-first order; *stop* as in
        :meth:`interval_ids`."""
        hits = self._rtrees.search_overlap(space, Rect(tuple(lo), tuple(hi), space=space), stop)
        return [rect.payload for rect in hits]

    # -- stats ----------------------------------------------------------------

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

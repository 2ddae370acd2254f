"""Columnar storage for annotation and referent hot state.

The manager used to keep every committed annotation as a full Python object
graph (``Annotation`` → ``AnnotationContent`` → ``DublinCore`` + per-annotation
``Referent`` copies), which every scan, snapshot, and stats rebuild chased
pointer-by-pointer and which dominated RSS at the 100k+ tier.  This module
packs that state into columns keyed by the dense-int id space slots from
:mod:`repro.query.idspace`:

``AnnotationColumns``
    Per-slot content blob (compact JSON of the Dublin Core fields, body and
    user tags — a faithful round-trip, including int-vs-float stringification)
    plus a packed integer heap holding each annotation's content ontology
    terms and referent entries as ``(referent_slot, term...)`` spans.  Strings
    are interned once in a :class:`StringPool`; the heap stores pool ids.

``ReferentColumns``
    Slot-interned referents: the canonical shared :class:`SubstructureRef`
    (one per unique referent, mutated in place by extent moves), a
    copy-on-write ``to_dict`` payload snapshot (replaced — never mutated — on
    move, so a frozen view keeps reading the pre-move dict), and packed extent
    columns (kind, first-axis bounds, probe domain, type) that the executor's
    probe paths scan without materializing a single object.

Deletes tombstone slots (``live`` byte cleared; heap/blob space becomes
garbage accounted in the dead counters); :meth:`compact` rewrites the heaps
into **new** array objects and swaps them in, so an outstanding frozen view —
a background checkpoint mid-serialization — keeps reading the old ones.

**Copy-on-write freeze**: :meth:`AnnotationColumns.freeze` /
:meth:`ReferentColumns.freeze` copy only the small fixed-width per-slot arrays
(memcpy-fast) and record length caps into the append-only heaps and pools,
which concurrent writers only ever append to.  The frozen view is therefore an
exact image of the store at freeze time, built in O(slots) pointer copies
under the write lock, readable lock-free afterwards.

**Stamps**: each column store keeps a per-slot ``stamp`` array fed by its own
clock.  Every mutator ticks the clock and stamps the slot it touches —
:meth:`AnnotationColumns.store` / :meth:`~AnnotationColumns.clear`, and
:meth:`ReferentColumns.refresh` (an ``add`` or an extent move replacing the
payload) / :meth:`~ReferentColumns.discard` — and a freeze copies the stamps
and the clock with the other fixed-width arrays.  A row whose stamp, and the
stamp of every referent slot in its span, are no newer than the clocks of an
earlier freeze is unchanged since that freeze: a checkpoint copies its record
from the snapshot that freeze produced (see
:func:`repro.core.persistence.snapshot_from_frozen`).  Stamps are per row, not
per chunk: a checkpoint interval's updates and deletes land on random slots
and would dirty nearly every chunk.
"""

from __future__ import annotations

import json
from array import array
from typing import Any, Iterator

from repro.core.annotation import Annotation, AnnotationContent, Referent
from repro.analysis.annotations import requires_write_lock
from repro.core.dublin_core import DC_DEFAULTS, DC_ELEMENTS, DublinCore
from repro.errors import AnnotationError

#: Extent kinds in the packed referent columns.
EXTENT_NONE, EXTENT_INTERVAL, EXTENT_RECT = 0, 1, 2


class StringPool:
    """Interned strings; the heaps store small ints instead of pointers.

    Append-only: ids are stable for the pool's lifetime, which is what lets a
    frozen column view share the pool with concurrent writers by recording
    nothing more than a length cap.
    """

    __slots__ = ("_strings", "_ids", "_bytes")

    def __init__(self) -> None:
        self._strings: list[str] = [""]
        self._ids: dict[str, int] = {"": 0}
        self._bytes = 0

    def intern(self, value: str) -> int:
        ref = self._ids.get(value)
        if ref is None:
            ref = len(self._strings)
            self._strings.append(value)
            self._ids[value] = ref
            self._bytes += len(value)
        return ref

    def lookup(self, value: str) -> int | None:
        """The id of *value* if already interned (probes use this: a domain
        never interned cannot match any packed column)."""
        return self._ids.get(value)

    def get(self, ref: int) -> str:
        return self._strings[ref]

    def __len__(self) -> int:
        return len(self._strings)

    @property
    def heap_bytes(self) -> int:
        return self._bytes


def encode_content(content: AnnotationContent) -> str:
    """Compact JSON blob of an annotation's content (minus ontology terms,
    which live in the packed heap).  Only non-default Dublin Core fields are
    written; decode restores the defaults."""
    dc: dict[str, Any] = {}
    dublin_core = content.dublin_core
    for name in DC_ELEMENTS:
        value = getattr(dublin_core, name)
        if value != DC_DEFAULTS[name]:
            dc[name] = value
    payload: dict[str, Any] = {}
    if dc:
        payload["dc"] = dc
    if content.body:
        payload["b"] = content.body
    if content.user_tags:
        payload["t"] = dict(content.user_tags)
    return json.dumps(payload, separators=(",", ":"))


def decode_content(blob: str, ontology_terms: list[str]) -> AnnotationContent:
    """Rebuild an :class:`AnnotationContent` from its blob + heap terms."""
    data = json.loads(blob)
    return AnnotationContent(
        dublin_core=DublinCore.from_dict(data.get("dc", {})),
        body=data.get("b", ""),
        ontology_terms=ontology_terms,
        user_tags=dict(data.get("t", {})),
    )


class ReferentColumns:
    """Slot-interned referent storage behind the substructure store."""

    def __init__(self, pool: StringPool | None = None):
        self.pool = pool if pool is not None else StringPool()
        self._slot_of: dict[str, int] = {}
        self._id_at: list[str | None] = []
        self._free: list[int] = []
        #: Canonical Referent per slot — ONE object per unique referent,
        #: whatever the number of annotations sharing it.  Extent moves
        #: mutate its ``ref`` in place, so every materialized row view
        #: sharing the object sees the move without a sync pass.
        self._view: list[Referent | None] = []
        #: Copy-on-write ``ref.to_dict()`` snapshot per slot.  REPLACED (a
        #: fresh dict) on every move; a frozen view holding the list copy
        #: keeps the pre-move dict.
        self._payload: list[dict[str, Any] | None] = []
        # Packed scan columns (the probe fast path).
        self._kind = array("b")
        self._type_ref = array("q")
        self._domain_ref = array("q")  # interval domain / rect space, with object_id fallback
        self._lo0 = array("d")
        self._hi0 = array("d")
        self._rect_off = array("q")
        self._rect_dim = array("b")
        self._rect_heap = array("d")  # lo dims then hi dims per rect slot
        self._rect_dead = 0
        #: Clock value of each slot's last write (see the module docstring).
        self._stamp = array("q")
        self._clock = 0

    # -- slot management -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._slot_of)

    def __contains__(self, referent_id: str) -> bool:
        return referent_id in self._slot_of

    def slot_of(self, referent_id: str) -> int:
        return self._slot_of[referent_id]

    def id_at(self, slot: int) -> str | None:
        return self._id_at[slot]

    def referent_ids(self) -> Iterator[str]:
        return iter(self._slot_of)

    def _grow(self) -> int:
        slot = len(self._id_at)
        self._id_at.append(None)
        self._view.append(None)
        self._payload.append(None)
        self._kind.append(EXTENT_NONE)
        self._type_ref.append(0)
        self._domain_ref.append(0)
        self._lo0.append(0.0)
        self._hi0.append(0.0)
        self._rect_off.append(0)
        self._rect_dim.append(0)
        self._stamp.append(0)
        return slot

    @requires_write_lock
    def add(self, referent: Referent) -> int:
        """Store *referent* (first copy wins, like the store always did) and
        return its slot."""
        referent_id = referent.referent_id
        existing = self._slot_of.get(referent_id)
        if existing is not None:
            return existing
        slot = self._free.pop() if self._free else self._grow()
        self._slot_of[referent_id] = slot
        self._id_at[slot] = referent_id
        self._view[slot] = referent
        self.refresh(slot)
        return slot

    @requires_write_lock
    def discard(self, referent_id: str) -> int | None:
        slot = self._slot_of.pop(referent_id, None)
        if slot is None:
            return None
        if self._kind[slot] == EXTENT_RECT:
            self._rect_dead += 2 * self._rect_dim[slot]
        self._id_at[slot] = None
        self._view[slot] = None
        self._payload[slot] = None
        self._kind[slot] = EXTENT_NONE
        self._free.append(slot)
        self._touch(slot)
        return slot

    def _touch(self, slot: int) -> None:
        self._clock += 1
        self._stamp[slot] = self._clock

    def view(self, referent_id: str) -> Referent | None:
        slot = self._slot_of.get(referent_id)
        return None if slot is None else self._view[slot]

    def view_at(self, slot: int) -> Referent | None:
        return self._view[slot]

    @requires_write_lock
    def refresh(self, slot: int) -> None:
        """Re-derive the payload snapshot + packed columns from the canonical
        referent at *slot* (called after an extent move)."""
        referent = self._view[slot]
        if referent is None:
            return
        ref = referent.ref
        self._payload[slot] = ref.to_dict()
        self._touch(slot)
        self._type_ref[slot] = self.pool.intern(ref.data_type.value)
        if ref.interval is not None:
            interval = ref.interval
            self._kind[slot] = EXTENT_INTERVAL
            self._domain_ref[slot] = self.pool.intern(interval.domain or ref.object_id)
            self._lo0[slot] = float(interval.start)
            self._hi0[slot] = float(interval.end)
        elif ref.rect is not None:
            rect = ref.rect
            dim = len(rect.lo)
            if self._kind[slot] == EXTENT_RECT:
                self._rect_dead += 2 * self._rect_dim[slot]
            self._kind[slot] = EXTENT_RECT
            self._domain_ref[slot] = self.pool.intern(rect.space or ref.object_id)
            self._lo0[slot] = float(rect.lo[0])
            self._hi0[slot] = float(rect.hi[0])
            self._rect_off[slot] = len(self._rect_heap)
            self._rect_dim[slot] = dim
            self._rect_heap.extend(float(value) for value in rect.lo)
            self._rect_heap.extend(float(value) for value in rect.hi)
        else:
            self._kind[slot] = EXTENT_NONE
            self._domain_ref[slot] = 0

    # -- packed probes ---------------------------------------------------------

    def type_value(self, slot: int) -> str:
        return self.pool.get(self._type_ref[slot])

    def interval_overlaps(self, slot: int, domain_ref: int, start: float, end: float) -> bool:
        return (
            self._kind[slot] == EXTENT_INTERVAL
            and self._domain_ref[slot] == domain_ref
            and self._lo0[slot] <= end
            and self._hi0[slot] >= start
        )

    def rect_overlaps(self, slot: int, space_ref: int, lo, hi) -> bool:
        if self._kind[slot] != EXTENT_RECT or self._domain_ref[slot] != space_ref:
            return False
        dim = self._rect_dim[slot]
        if dim != len(lo):
            return False
        off = self._rect_off[slot]
        heap = self._rect_heap
        for axis in range(dim):
            if heap[off + axis] > hi[axis] or heap[off + dim + axis] < lo[axis]:
                return False
        return True

    # -- lifecycle -------------------------------------------------------------

    def freeze(self) -> "FrozenReferents":
        return FrozenReferents(
            list(self._id_at), list(self._payload), array("q", self._stamp), self._clock
        )

    @requires_write_lock
    def compact(self) -> None:
        """Rewrite the rect heap dropping dead spans (new array, swapped in)."""
        new_heap = array("d")
        for slot, kind in enumerate(self._kind):
            if kind != EXTENT_RECT or self._id_at[slot] is None:
                continue
            dim = self._rect_dim[slot]
            off = self._rect_off[slot]
            self._rect_off[slot] = len(new_heap)
            new_heap.extend(self._rect_heap[off:off + 2 * dim])
        self._rect_heap = new_heap
        self._rect_dead = 0

    def storage_stats(self) -> dict[str, int]:
        allocated = len(self._id_at)
        live = len(self._slot_of)
        return {
            "live_slots": live,
            "tombstone_slots": allocated - live,
            "rect_heap_floats": len(self._rect_heap),
            "rect_heap_dead_floats": self._rect_dead,
        }


class FrozenReferents:
    """Point-in-time referent view for a background snapshot."""

    __slots__ = ("id_at", "payload", "stamp", "clock")

    def __init__(self, id_at: list[str | None], payload: list[dict[str, Any] | None],
                 stamp: array, clock: int):
        self.id_at = id_at
        self.payload = payload
        self.stamp = stamp
        self.clock = clock


class AnnotationColumns:
    """Per-annotation content blobs + packed term/referent spans.

    Slots are assigned by the manager's :class:`AnnotationIdSpace`; this class
    only grows its columns to cover whatever slot it is asked to store.

    Heap span layout per annotation::

        [ n_content_terms, term_ref * n,
          n_referents, ( referent_slot, n_terms, term_ref * n ) * n_referents ]
    """

    def __init__(self, pool: StringPool | None = None):
        self.pool = pool if pool is not None else StringPool()
        self._live = bytearray()
        self._blob_ref = array("q")
        self._span_off = array("q")
        self._span_len = array("q")
        self._blob_heap: list[str] = []
        self._heap = array("q")
        self._blob_bytes = 0
        self._dead_blob_bytes = 0
        self._dead_heap_ints = 0
        #: Clock value of each slot's last write (see the module docstring).
        self._stamp = array("q")
        self._clock = 0

    # -- writes ----------------------------------------------------------------

    def _ensure_slot(self, slot: int) -> None:
        while len(self._live) <= slot:
            self._live.append(0)
            self._blob_ref.append(-1)
            self._span_off.append(0)
            self._span_len.append(0)
            self._stamp.append(0)

    def _touch(self, slot: int) -> None:
        self._clock += 1
        self._stamp[slot] = self._clock

    @requires_write_lock
    def store(self, slot: int, annotation: Annotation, referents: "ReferentColumns") -> None:
        """Write (or overwrite) the row for *annotation* at *slot*."""
        self._ensure_slot(slot)
        if self._live[slot]:
            self._account_dead(slot)
        blob = encode_content(annotation.content)
        self._blob_ref[slot] = len(self._blob_heap)
        self._blob_heap.append(blob)
        self._blob_bytes += len(blob)
        pool = self.pool
        span = array("q")
        content_terms = annotation.content.ontology_terms
        span.append(len(content_terms))
        span.extend(pool.intern(term) for term in content_terms)
        rows = annotation.referents
        span.append(len(rows))
        for referent in rows:
            span.append(referents.slot_of(referent.referent_id))
            span.append(len(referent.ontology_terms))
            span.extend(pool.intern(term) for term in referent.ontology_terms)
        self._span_off[slot] = len(self._heap)
        self._span_len[slot] = len(span)
        self._heap.extend(span)
        self._live[slot] = 1
        self._touch(slot)

    def _account_dead(self, slot: int) -> None:
        self._dead_heap_ints += self._span_len[slot]
        blob_index = self._blob_ref[slot]
        if blob_index >= 0:
            self._dead_blob_bytes += len(self._blob_heap[blob_index])

    @requires_write_lock
    def clear(self, slot: int) -> None:
        """Tombstone the row at *slot* (space reclaimed by :meth:`compact`)."""
        if slot < len(self._live) and self._live[slot]:
            self._account_dead(slot)
            self._live[slot] = 0
            self._touch(slot)

    # -- reads -----------------------------------------------------------------

    def is_live(self, slot: int) -> bool:
        return slot < len(self._live) and bool(self._live[slot])

    def live_count(self) -> int:
        return sum(self._live)

    def blob(self, slot: int) -> str:
        return self._blob_heap[self._blob_ref[slot]]

    def content_terms(self, slot: int) -> list[str]:
        heap, pool = self._heap, self.pool
        off = self._span_off[slot]
        count = heap[off]
        return [pool.get(heap[off + 1 + index]) for index in range(count)]

    def referent_entries(self, slot: int) -> list[tuple[int, list[str]]]:
        """``(referent_slot, ontology_terms)`` per referent, in commit order."""
        heap, pool = self._heap, self.pool
        cursor = self._span_off[slot]
        cursor += 1 + heap[cursor]  # skip content terms
        count = heap[cursor]
        cursor += 1
        entries: list[tuple[int, list[str]]] = []
        for _ in range(count):
            rslot = heap[cursor]
            n_terms = heap[cursor + 1]
            cursor += 2
            entries.append((rslot, [pool.get(heap[cursor + i]) for i in range(n_terms)]))
            cursor += n_terms
        return entries

    def referent_slots(self, slot: int) -> list[int]:
        heap = self._heap
        cursor = self._span_off[slot]
        cursor += 1 + heap[cursor]
        count = heap[cursor]
        cursor += 1
        slots: list[int] = []
        for _ in range(count):
            slots.append(heap[cursor])
            cursor += 2 + heap[cursor + 1]
        return slots

    def stat_row(self, slot: int, referents: "ReferentColumns") -> tuple[set[str], set[str]]:
        """``(data_type values, all ontology terms)`` — the statistics
        catalogue's per-annotation inputs, read without materializing."""
        heap, pool = self._heap, self.pool
        off = self._span_off[slot]
        n_content = heap[off]
        terms = {pool.get(heap[off + 1 + index]) for index in range(n_content)}
        cursor = off + 1 + n_content
        count = heap[cursor]
        cursor += 1
        types: set[str] = set()
        for _ in range(count):
            rslot = heap[cursor]
            n_terms = heap[cursor + 1]
            cursor += 2
            types.add(referents.type_value(rslot))
            terms.update(pool.get(heap[cursor + i]) for i in range(n_terms))
            cursor += n_terms
        return types, terms

    def materialize(
        self, annotation_id: str, slot: int, referents: "ReferentColumns"
    ) -> Annotation:
        """Build a full :class:`Annotation` row view from the columns.

        Referent rows wrap the canonical shared ``SubstructureRef`` object —
        extent moves are visible to every previously materialized view — but
        carry this annotation's OWN ontology terms (per-annotation semantics
        the store's first-copy-wins rule would otherwise lose).
        """
        if not self.is_live(slot):
            raise AnnotationError(f"no annotation {annotation_id!r}")
        content = decode_content(self.blob(slot), self.content_terms(slot))
        annotation = Annotation(annotation_id, content)
        rows = annotation._referents  # noqa: SLF001 - row-view construction
        for rslot, terms in self.referent_entries(slot):
            canonical = referents.view_at(rslot)
            if canonical is None:
                continue  # referent swept by delete_object's defensive pass
            rows.append(
                Referent(ref=canonical.ref, ontology_terms=terms, referent_id=canonical.referent_id)
            )
        return annotation

    # -- lifecycle -------------------------------------------------------------

    def freeze(self) -> "FrozenAnnotations":
        return FrozenAnnotations(
            live=bytes(self._live),
            blob_ref=array("q", self._blob_ref),
            span_off=array("q", self._span_off),
            span_len=array("q", self._span_len),
            blob_heap=self._blob_heap,
            blob_cap=len(self._blob_heap),
            heap=self._heap,
            heap_cap=len(self._heap),
            pool=self.pool,
            pool_cap=len(self.pool),
            stamp=array("q", self._stamp),
            clock=self._clock,
        )

    @requires_write_lock
    def compact(self) -> dict[str, int]:
        """Rewrite the heaps keeping only live rows; returns bytes reclaimed.

        Builds NEW heap objects and swaps them in — an outstanding frozen
        view (a background checkpoint mid-serialization) keeps reading the
        old objects untouched.  Slots are NOT renumbered: they belong to the
        id space, not to this store.
        """
        reclaimed_bytes = self._dead_blob_bytes
        reclaimed_ints = self._dead_heap_ints
        new_heap = array("q")
        new_blobs: list[str] = []
        new_bytes = 0
        for slot, live in enumerate(self._live):
            if not live:
                continue
            off = self._span_off[slot]
            length = self._span_len[slot]
            self._span_off[slot] = len(new_heap)
            new_heap.extend(self._heap[off:off + length])
            blob = self._blob_heap[self._blob_ref[slot]]
            self._blob_ref[slot] = len(new_blobs)
            new_blobs.append(blob)
            new_bytes += len(blob)
        self._heap = new_heap
        self._blob_heap = new_blobs
        self._blob_bytes = new_bytes
        self._dead_blob_bytes = 0
        self._dead_heap_ints = 0
        return {"reclaimed_blob_bytes": reclaimed_bytes, "reclaimed_heap_ints": reclaimed_ints}

    def storage_stats(self) -> dict[str, int]:
        allocated = len(self._live)
        live = self.live_count()
        approx_bytes = (
            self._blob_bytes
            + 8 * len(self._heap)
            + 8 * (len(self._blob_ref) + len(self._span_off) + len(self._span_len))
            + allocated
            + self.pool.heap_bytes
        )
        return {
            "live_slots": live,
            "tombstone_slots": allocated - live,
            "heap_ints": len(self._heap),
            "heap_dead_ints": self._dead_heap_ints,
            "blob_bytes": self._blob_bytes,
            "blob_dead_bytes": self._dead_blob_bytes,
            "pool_strings": len(self.pool),
            "approx_bytes": approx_bytes,
        }


class FrozenAnnotations:
    """Copy-on-write annotation-column view for a background snapshot.

    Holds copies of the fixed-width per-slot arrays and caps into the shared
    append-only heaps; read methods mirror :class:`AnnotationColumns` but are
    safe against concurrent writers, who only append past the caps (compaction
    swaps in new heap objects, leaving these references intact).
    """

    __slots__ = (
        "live", "blob_ref", "span_off", "span_len",
        "blob_heap", "blob_cap", "heap", "heap_cap", "pool", "pool_cap", "stamp", "clock",
    )

    def __init__(self, live, blob_ref, span_off, span_len,
                 blob_heap, blob_cap, heap, heap_cap, pool, pool_cap, stamp, clock):
        self.live = live
        self.blob_ref = blob_ref
        self.span_off = span_off
        self.span_len = span_len
        self.blob_heap = blob_heap
        self.blob_cap = blob_cap
        self.heap = heap
        self.heap_cap = heap_cap
        self.pool = pool
        self.pool_cap = pool_cap
        self.stamp = stamp
        self.clock = clock

    def live_slots(self) -> Iterator[int]:
        for slot, live in enumerate(self.live):
            if live:
                yield slot

    def content_terms(self, slot: int) -> list[str]:
        heap, pool = self.heap, self.pool
        off = self.span_off[slot]
        count = heap[off]
        return [pool.get(heap[off + 1 + index]) for index in range(count)]

    def referent_entries(self, slot: int) -> list[tuple[int, list[str]]]:
        heap, pool = self.heap, self.pool
        cursor = self.span_off[slot]
        cursor += 1 + heap[cursor]
        count = heap[cursor]
        cursor += 1
        entries: list[tuple[int, list[str]]] = []
        for _ in range(count):
            rslot = heap[cursor]
            n_terms = heap[cursor + 1]
            cursor += 2
            entries.append((rslot, [pool.get(heap[cursor + i]) for i in range(n_terms)]))
            cursor += n_terms
        return entries

    def blob(self, slot: int) -> str:
        return self.blob_heap[self.blob_ref[slot]]

    def referent_slots(self, slot: int) -> list[int]:
        heap = self.heap
        cursor = self.span_off[slot]
        cursor += 1 + heap[cursor]
        count = heap[cursor]
        cursor += 1
        slots: list[int] = []
        for _ in range(count):
            slots.append(heap[cursor])
            cursor += 2 + heap[cursor + 1]
        return slots

"""Dense annotation-id interning.

Each live annotation id is interned into a dense integer slot; the column
store (:mod:`repro.core.columns`) keys its per-annotation rows by that slot,
and the executor's interval/region probes and collation read rows through
it.  Slots freed by :meth:`AnnotationIdSpace.release` are recycled so the
columns stay dense across delete-heavy workloads.

**Slot-reuse contract:** a slot names an annotation only at the mutation
epoch it was looked up at — after a release, the next ``intern`` may hand
the same slot to a different annotation.  Nothing outside the column store
holds a slot across an epoch: candidate sets, the statistics catalogue's
TYPE index and cached query results all hold *string* ids.  An in-place
``update_annotation`` deliberately keeps its slot (no release/intern), which
is what makes update cheaper than delete+recommit here.  The
delete→commit→query aliasing property test (``test_property_mutation``) pins
this.
"""

from __future__ import annotations


class AnnotationIdSpace:
    """A bidirectional annotation-id <-> dense-slot interner."""

    def __init__(self) -> None:
        self._slot_of: dict[str, int] = {}
        self._id_at: list[str | None] = []
        self._free: list[int] = []

    def __len__(self) -> int:
        return len(self._slot_of)

    def __contains__(self, annotation_id: str) -> bool:
        return annotation_id in self._slot_of

    def intern(self, annotation_id: str) -> int:
        """Assign (or return) the dense slot for *annotation_id*."""
        slot = self._slot_of.get(annotation_id)
        if slot is not None:
            return slot
        if self._free:
            slot = self._free.pop()
            self._id_at[slot] = annotation_id
        else:
            slot = len(self._id_at)
            self._id_at.append(annotation_id)
        self._slot_of[annotation_id] = slot
        return slot

    def release(self, annotation_id: str) -> bool:
        """Free the slot for *annotation_id*; returns True when it was interned."""
        slot = self._slot_of.pop(annotation_id, None)
        if slot is None:
            return False
        self._id_at[slot] = None
        self._free.append(slot)
        return True

    def slot(self, annotation_id: str) -> int | None:
        """The slot for *annotation_id*, or None when not interned."""
        return self._slot_of.get(annotation_id)

    def id_at(self, slot: int) -> str | None:
        """The annotation id occupying *slot* (None for freed slots)."""
        if 0 <= slot < len(self._id_at):
            return self._id_at[slot]
        return None

"""Concurrent readers share the manager's row cache without a lock.

``Graphitti.annotation`` touches the LRU twice (a lookup, then a move to the
end) and a miss evicts the oldest rows; another reader can evict an id
between one reader's two touches.  Every read must still return the row,
never a ``KeyError``.  Readers reach this path through ``get_annotation``
and through every parked document's regenerator, so a CONTENTS page read
by several threads at once exercises it too.
"""

from __future__ import annotations

import random
import sys
import threading
from collections import OrderedDict

from repro.core.manager import Graphitti
from repro.datatypes import DnaSequence

ANNOTATIONS = 120
CACHE_SIZE = 8  # far below the live rows, so readers evict each other constantly
READERS = 8
READS = 12000


def _manager() -> Graphitti:
    manager = Graphitti("row-cache")
    manager.register(DnaSequence("seq", "ACGT" * 400, domain="rc:1"))
    manager.commit_many(
        manager.new_annotation(f"rc-{serial}", keywords=["race"], body=f"row {serial}")
        .mark_sequence("seq", serial, serial + 4)
        .build()
        for serial in range(ANNOTATIONS)
    )
    manager._ROW_CACHE_SIZE = CACHE_SIZE
    manager._row_cache.clear()  # the commit seeded every row; start cold
    return manager


def _hammer(reader) -> list[str]:
    """Run *reader(offset, failures)* on READERS threads with a tiny switch
    interval; returns what they reported."""
    failures: list[str] = []
    start = threading.Barrier(READERS)

    def run(offset: int) -> None:
        try:
            start.wait(timeout=30)
            reader(offset, failures)
        except Exception as error:  # noqa: BLE001 - reported on the main thread
            failures.append(repr(error))

    threads = [threading.Thread(target=run, args=(offset,)) for offset in range(READERS)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not [thread for thread in threads if thread.is_alive()]
    return failures


def test_concurrent_point_reads_survive_each_others_evictions():
    manager = _manager()
    ids = manager.annotation_ids()

    def reader(offset: int, failures: list[str]) -> None:
        rng = random.Random(offset)
        for _ in range(READS):
            annotation_id = rng.choice(ids)
            if manager.annotation(annotation_id).annotation_id != annotation_id:
                failures.append(annotation_id)

    assert _hammer(reader) == []
    assert len(manager._row_cache) <= CACHE_SIZE


class _EvictedInTheWindow(OrderedDict):
    """A row cache in which another reader evicts each key the moment this
    reader has touched it: the interleaving the threaded test hunts for,
    made certain."""

    def get(self, key, default=None):
        value = super().get(key, default)
        self.pop(key, None)
        return value

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        self.pop(key, None)


def test_every_row_cache_touch_tolerates_an_eviction_in_between():
    manager = _manager()
    manager._row_cache = _EvictedInTheWindow()
    for annotation_id in manager.annotation_ids()[:3]:
        row = manager.annotation(annotation_id)  # a miss: cached, evicted at once
        assert row.annotation_id == annotation_id
        assert annotation_id not in manager._row_cache
        OrderedDict.__setitem__(manager._row_cache, annotation_id, row)
        assert manager.annotation(annotation_id) is row  # a hit, evicted before its move


def test_concurrent_first_readers_of_parked_documents_get_every_tree():
    manager = _manager()
    ids = manager.annotation_ids()
    expected = {
        annotation_id: manager.annotation(annotation_id).to_document().to_dict()
        for annotation_id in ids
    }
    assert manager.contents.lazy_document_count == ANNOTATIONS

    def reader(offset: int, failures: list[str]) -> None:
        for index in range(ANNOTATIONS):  # every thread a different rotation
            annotation_id = ids[(index + offset * 15) % ANNOTATIONS]
            if manager.contents.get(annotation_id).to_dict() != expected[annotation_id]:
                failures.append(annotation_id)

    assert _hammer(reader) == []
    assert manager.contents.lazy_document_count == 0

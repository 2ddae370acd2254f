"""Epoch-tagged LRU cache for query results.

Repeated structural queries dominate annotation workloads, so the serving
layer fronts the query engine with a result cache.  Correctness comes from
two ingredients:

* the **key** is the caller's query text (a built
  :class:`~repro.query.ast.Query` keys as ``("query", describe())``, so it
  never aliases a text): a hit costs no parse and no plan, and two
  spellings of one query are two entries with equal answers;
* every entry is **tagged with the mutation epoch** it was computed at.  The
  manager bumps its epoch on every mutation, and an entry from an older
  epoch is never served — invalidation is one integer compare, with no
  tracking of which queries a mutation could affect.  Epochs only grow, so
  the first lookup or store that names a newer epoch than any before drops
  every entry at once: a stale entry can never hit again, and kept until
  its own key came back it would pin the document versions its result
  holds (which the network worker's wire-text memo then cannot forget).

The cache is LRU-bounded and thread-safe (its own mutex; callers hold the
service read lock, which does not exclude other readers).
"""

from __future__ import annotations

import threading

from repro.errors import ConfigError
from collections import OrderedDict
from typing import Any, Hashable


class QueryResultCache:
    """A bounded, epoch-validated, thread-safe LRU of query results.

    ``capacity=0`` disables caching entirely (every lookup misses, nothing is
    stored) — the configuration the benchmarks use as the uncached baseline.
    """

    def __init__(self, capacity: int = 256):
        if capacity < 0:
            raise ConfigError("cache capacity must be >= 0")
        self.capacity = capacity
        self._entries: OrderedDict[Hashable, tuple[int, Any]] = OrderedDict()
        self._mutex = threading.Lock()
        #: The newest epoch a lookup or store has named; every entry is at it.
        self._epoch = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._invalidations = 0

    def __len__(self) -> int:
        with self._mutex:
            return len(self._entries)

    def get(self, key: Hashable, epoch: int) -> Any | None:
        """The cached value for *key* if it was computed at *epoch*, else None.

        An entry tagged with an older epoch is stale by definition (some
        mutation happened since); it is dropped and counted as an
        invalidation as well as a miss.
        """
        with self._mutex:
            self._advance(epoch)
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return None
            entry_epoch, value = entry
            if entry_epoch != epoch:
                del self._entries[key]
                self._invalidations += 1
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return value

    def put(self, key: Hashable, epoch: int, value: Any) -> None:
        """Store *value* for *key* computed at *epoch* (LRU-evicting)."""
        if self.capacity == 0:
            return
        with self._mutex:
            self._advance(epoch)
            if epoch != self._epoch:
                return  # computed before a mutation that has since landed
            self._entries[key] = (epoch, value)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._evictions += 1

    def _advance(self, epoch: int) -> None:
        """Drop every entry, as invalidated, when *epoch* is newer than all
        seen before (the caller holds the mutex)."""
        if epoch > self._epoch:
            self._epoch = epoch
            self._invalidations += len(self._entries)
            self._entries.clear()

    def stats(self) -> dict[str, int | float]:
        """Hit / miss / eviction / invalidation counters plus the hit rate."""
        with self._mutex:
            lookups = self._hits + self._misses
            return {
                "capacity": self.capacity,
                "entries": len(self._entries),
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "invalidations": self._invalidations,
                "hit_rate": (self._hits / lookups) if lookups else 0.0,
            }

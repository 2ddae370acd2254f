"""LRU cache for query results, dropped entry by entry as writes reach them.

Repeated structural queries dominate annotation workloads, so the serving
layer fronts the query engine with a result cache.  Correctness comes from
three ingredients:

* the **key** is the caller's query text (a built
  :class:`~repro.query.ast.Query` keys as ``("query", describe())``, so it
  never aliases a text): a hit costs no parse and no plan, and two
  spellings of one query are two entries with equal answers;
* every write hands the cache its footprint (:mod:`repro.core.footprint`)
  as it applies, and the cache drops the entries the footprint can reach at
  once; a write no footprint describes drops every entry.  A dropped entry
  never hits again, and kept until its own key came back it would pin the
  document versions its result holds (which the network worker's wire-text
  memo then cannot forget);
* every entry is stored with a **dependency** (:func:`page_dependency`) on
  its plan's first step, the *anchor*: the executor always materializes that
  step, so every row of the page matched it.  A write can add a row, remove
  one or change how one renders only through an annotation whose old or new
  state matches the anchor.  The footprint holds the written annotation's
  state before and after the write, and each annotation sharing one of its
  referents as it stands after; a write changes such a sharer only through
  the shared referents, which the written annotation's two states hold too,
  so the footprint covers every affected annotation's old and new states
  (:mod:`repro.core.footprint`).  A keyword is reached when all its tokens are
  footprint terms; an ontology constraint when one of its expanded terms
  is; a type by its type; an interval or region when one of the
  footprint's extents in its domain or space overlaps it; an OR through
  any of its parts.  Each test holds whenever the executor's probe of the
  anchor could change its answer, so the cache may drop too much, never
  too little.  A page whose rows depend on the a-graph beyond the anchor
  drops on every write: a query with a PATH anywhere, a first step that is
  NOT, no constraints at all, and a GRAPH page with rows.  A write tests
  every entry's dependency in one pass (at most ``capacity`` of them).

The cache is LRU-bounded and thread-safe (its own mutex; callers hold the
service read lock, which does not exclude other readers).  No entry is ever
stale: a page is computed and stored under the service read lock, and every
write -- the service's own write path and a replica follower applying a
shipment -- applies, and drops what it reaches, under the write lock, so no
page is stored after a write it does not reflect, and readers never pay the
drop.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Hashable

from repro.core.footprint import Footprint
from repro.errors import ConfigError
from repro.query.ast import (
    KeywordConstraint,
    OntologyConstraint,
    OrConstraint,
    OverlapConstraint,
    PathConstraint,
    RegionConstraint,
    ReturnKind,
    TypeConstraint,
)
from repro.query.stats import canonical_type
from repro.xmlstore.text_index import tokenize

KEYWORD, ONTOLOGY, TYPE, INTERVAL, REGION = "keyword", "ontology", "type", "interval", "region"

#: Constraints that hold no other constraint.
_LEAVES = (KeywordConstraint, OntologyConstraint, TypeConstraint, OverlapConstraint, RegionConstraint)


def page_dependency(manager, plan, result) -> tuple | None:
    """The dependency a page of *plan* (run on *manager*) is stored with:
    one ``(kind, payload)`` per anchor of its first step, or None when any
    write may change the page."""
    query = plan.query
    if (
        not plan.ordered_constraints
        or (query.return_kind is ReturnKind.GRAPH and result.count)
        or _has_path(query.constraints)
    ):
        return None
    return _anchors(manager, plan.ordered_constraints[0])


def _has_path(constraints) -> bool:
    for constraint in constraints:
        if isinstance(constraint, _LEAVES):
            continue
        if isinstance(constraint, PathConstraint):
            return True
        if isinstance(constraint, OrConstraint):
            if _has_path(constraint.parts):
                return True
        elif _has_path((constraint.inner,)):
            return True
    return False


def _anchors(manager, constraint) -> tuple | None:
    if isinstance(constraint, KeywordConstraint):
        tokens = tuple(tokenize(constraint.keyword))
        if not tokens:
            return None
        if constraint.mode == "or":
            return tuple((KEYWORD, (token,)) for token in tokens)
        return ((KEYWORD, tokens),)
    if isinstance(constraint, OverlapConstraint):
        return ((INTERVAL, (constraint.domain, constraint.start, constraint.end)),)
    if isinstance(constraint, OntologyConstraint):
        terms = manager._expand_ontology_term(  # noqa: SLF001 - the probe's expansion
            constraint.term, constraint.ontology, constraint.include_descendants
        )
        return ((ONTOLOGY, terms),)
    if isinstance(constraint, RegionConstraint):
        return ((REGION, (constraint.space, constraint.lo, constraint.hi)),)
    if isinstance(constraint, TypeConstraint):
        return ((TYPE, canonical_type(constraint.data_type)),)
    if isinstance(constraint, OrConstraint):
        anchors: tuple = ()
        for part in constraint.parts:
            found = _anchors(manager, part)
            if found is None:
                return None
            anchors += found
        return anchors
    return None  # NOT: any annotation a write leaves unmatched enters it


def _reaches(footprint: Footprint, dependency: tuple) -> bool:
    """Whether *footprint* reaches one of *dependency*'s anchors."""
    for kind, payload in dependency:
        if kind is KEYWORD:
            if footprint.terms.issuperset(payload):
                return True
        elif kind is ONTOLOGY:
            if not footprint.ontology.isdisjoint(payload):
                return True
        elif kind is TYPE:
            if payload in footprint.types:
                return True
        elif kind is INTERVAL:
            domain, start, end = payload
            for low, high in footprint.intervals.get(domain, ()):
                if start <= high and end >= low:
                    return True
        else:
            space, lo, hi = payload
            for low, high in footprint.regions.get(space, ()):
                # A box of another dimension never matches; reaching it
                # only drops too much.
                if len(low) != len(lo) or all(
                    low[axis] <= hi[axis] and high[axis] >= lo[axis] for axis in range(len(lo))
                ):
                    return True
    return False


class QueryResultCache:
    """A bounded, write-localised, thread-safe LRU of query results.

    ``capacity=0`` disables caching entirely (every lookup misses, nothing is
    stored) — the configuration the benchmarks use as the uncached baseline.
    Values must have a ``copy()``: a store keeps a private copy and a hit
    hands out another, so no two callers share one mutable value.
    """

    def __init__(self, capacity: int = 256):
        if capacity < 0:
            raise ConfigError("cache capacity must be >= 0")
        self.capacity = capacity
        #: key -> (value, dependency)
        self._entries: OrderedDict[Hashable, tuple[Any, tuple | None]] = OrderedDict()
        self._mutex = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._invalidations = 0
        self._kept = 0

    def __len__(self) -> int:
        with self._mutex:
            return len(self._entries)

    def get(self, key: Hashable) -> Any | None:
        """A copy of the cached value for *key*, else None."""
        with self._mutex:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
        return entry[0].copy()

    def put(self, key: Hashable, value: Any, dependency: tuple | None = None) -> None:
        """Store a copy of *value* for *key* (LRU-evicting) with its
        *dependency* (None: every write reaches it)."""
        if self.capacity == 0:
            return
        value = value.copy()
        with self._mutex:
            self._entries.pop(key, None)
            self._entries[key] = (value, dependency)  # a new key: the MRU end
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._evictions += 1

    def invalidate(self, footprint: Footprint | None) -> None:
        """Drop the entries *footprint* reaches (None: every entry)."""
        with self._mutex:
            entries = self._entries
            if not entries:
                return
            if footprint is None:
                self._invalidations += len(entries)
                entries.clear()
                return
            reached = [
                key
                for key, (_, dependency) in entries.items()
                if dependency is None or _reaches(footprint, dependency)
            ]
            for key in reached:
                del entries[key]
            self._invalidations += len(reached)
            self._kept += len(entries)

    def clear(self) -> None:
        """Drop every entry (a closed service keeps no pages alive)."""
        with self._mutex:
            self._entries.clear()

    def stats(self) -> dict[str, int | float]:
        """Hit / miss / eviction / invalidation / kept counters plus the hit
        rate; ``kept`` counts entries that outlived a write."""
        with self._mutex:
            lookups = self._hits + self._misses
            return {
                "capacity": self.capacity,
                "entries": len(self._entries),
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "invalidations": self._invalidations,
                "kept": self._kept,
                "hit_rate": (self._hits / lookups) if lookups else 0.0,
            }

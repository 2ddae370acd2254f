"""LRU cache for query results, dropped entry by entry as writes reach them.

Repeated structural queries dominate annotation workloads, so the serving
layer fronts the query engine with a result cache.  Correctness comes from
three ingredients:

* the **key** is the caller's query text (a built
  :class:`~repro.query.ast.Query` keys as ``("query", describe())``, so it
  never aliases a text): a hit costs no parse and no plan, and two
  spellings of one query are two entries with equal answers;
* every entry holds at **one mutation epoch**, the newest any lookup or
  store has named.  Moving to a newer epoch the cache reads the manager's
  footprint log (:mod:`repro.core.footprint`) for the writes in between and
  drops the entries they can reach; when a write left no footprint, or the
  log no longer holds it, every entry drops.  A dropped entry never hits
  again, and kept until its own key came back it would pin the document
  versions its result holds (which the network worker's wire-text memo then
  cannot forget);
* every entry is stored with a **dependency** (:func:`page_dependency`) on
  its plan's first step, the *anchor*: the executor always materializes that
  step, so every row of the page matched it.  A write can add a row, remove
  one or change how one renders only through an annotation whose old or new
  state matches the anchor, and the footprint holds both states of every
  annotation a write affects.  A keyword is reached when all its tokens are
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
service read lock, which does not exclude other readers, and the service
advances it eagerly under its write lock).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Hashable

from repro.core.footprint import Footprint, FootprintLog
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
            terms = footprint.terms
            if terms is None or terms.issuperset(payload):
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
    *footprints* is the manager's footprint log; without it every newer
    epoch drops every entry.  Values must have a ``copy()``: a store keeps
    a private copy and a hit hands out another, so no two callers share one
    mutable value.
    """

    def __init__(self, capacity: int = 256, footprints: FootprintLog | None = None):
        if capacity < 0:
            raise ConfigError("cache capacity must be >= 0")
        self.capacity = capacity
        self._footprints = footprints
        #: key -> (value, dependency)
        self._entries: OrderedDict[Hashable, tuple[Any, tuple | None]] = OrderedDict()
        self._mutex = threading.Lock()
        #: The newest epoch a lookup or store has named; every entry is at it.
        self._epoch = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._invalidations = 0
        self._kept = 0

    def __len__(self) -> int:
        with self._mutex:
            return len(self._entries)

    def get(self, key: Hashable, epoch: int) -> Any | None:
        """A copy of the cached value for *key* at *epoch*, else None.

        Moving to a newer *epoch* first drops the entries the writes in
        between reach; a lookup at an older epoch than the cache holds
        misses.
        """
        with self._mutex:
            if epoch > self._epoch:
                self._advance(epoch)
            entry = self._entries.get(key) if epoch == self._epoch else None
            if entry is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
        return entry[0].copy()

    def put(self, key: Hashable, epoch: int, value: Any, dependency: tuple | None = None) -> None:
        """Store a copy of *value* for *key* computed at *epoch* (LRU-evicting)
        with its *dependency* (None: every write reaches it)."""
        if self.capacity == 0:
            return
        value = value.copy()
        with self._mutex:
            if epoch > self._epoch:
                self._advance(epoch)
            elif epoch < self._epoch:
                return  # computed before a mutation that has since landed
            self._entries.pop(key, None)
            self._entries[key] = (value, dependency)  # a new key: the MRU end
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._evictions += 1

    def advance(self, epoch: int) -> None:
        """Move to *epoch* now, dropping what the writes since reached (the
        service calls this under its write lock, so readers never pay it)."""
        with self._mutex:
            self._advance(epoch)

    def clear(self) -> None:
        """Drop every entry (a closed service keeps no pages alive)."""
        with self._mutex:
            self._entries.clear()

    def _advance(self, epoch: int) -> None:
        """Move to *epoch* when it is newer (the caller holds the mutex)."""
        if epoch <= self._epoch:
            return
        log, since = self._footprints, self._epoch
        self._epoch = epoch
        entries = self._entries
        if not entries:
            return
        footprints = None if log is None else log.since(since, epoch)
        if footprints is None:
            self._invalidations += len(entries)
            entries.clear()
            return
        for footprint in footprints:
            reached = [
                key
                for key, (_, dependency) in entries.items()
                if dependency is None or _reaches(footprint, dependency)
            ]
            for key in reached:
                del entries[key]
            self._invalidations += len(reached)
        self._kept += len(entries)

    def stats(self) -> dict[str, int | float]:
        """Hit / miss / eviction / invalidation / kept counters plus the hit
        rate; ``kept`` counts entries that outlived a newer epoch."""
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

"""The Graphitti serving layer: concurrent, durable, cache-fronted access.

:class:`GraphittiService` wraps one :class:`~repro.core.manager.Graphitti`
instance in the coordination a multi-user deployment needs:

* **single-writer / multi-reader locking** — queries and explore calls share
  a read lock and never block each other; mutations serialize behind a
  writer-preference write lock;
* **durability** — every acknowledged mutation is appended to a write-ahead
  log layered on snapshots (see :mod:`repro.service.durability`), and
  :meth:`recover` rebuilds the exact pre-crash state from snapshot + replay;
* **query-result caching** — results are cached under the caller's text,
  and a write drops only the entries it can reach (see
  :mod:`repro.service.cache`), so a repeated text skips parsing, planning
  and execution entirely;
* **bulk ingest** — :meth:`bulk_commit` groups many annotations into one
  lock acquisition and one group-committed WAL batch, registered as one
  batch (each spatial index and the keyword index fed once).

The service's counters surface through ``Graphitti.statistics()`` under the
``"service"`` key, so existing stats tooling sees cache hit rates, WAL depth
and checkpoint counts without new plumbing.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator
from contextlib import contextmanager

from repro.analysis.annotations import mutates_state, requires_write_lock
from repro.core.annotation import Annotation
from repro.core.builder import AnnotationBuilder
from repro.core.manager import Graphitti
from repro.core.persistence import (
    CheckpointBase,
    encode_annotation,
    freeze_manager,
    snapshot_from_frozen,
)
from repro.errors import ServiceError
from repro.obs import Observability, ObservabilityConfig
from repro.query.ast import Query
from repro.query.executor import QueryExecutor
from repro.query.parser import parse_query
from repro.query.planner import QueryPlanner
from repro.query.result import QueryResult
from repro.service import ops
from repro.service.cache import QueryResultCache, page_dependency
from repro.service.durability import (
    DurableStore,
    enter_gil_courtesy,
    has_durable_state,
    leave_gil_courtesy,
    recover_manager,
)
from repro.service.locks import ReadWriteLock


@dataclass
class ServiceConfig:
    """Tunables of one :class:`GraphittiService`."""

    #: Result-cache entries kept (LRU); 0 disables result caching.
    cache_capacity: int = 256
    #: Mutations between automatic checkpoints; 0 means checkpoint manually.
    checkpoint_interval: int = 0
    #: WAL fsync policy: "always" (per record or batch) or "never".
    durability: str = "always"
    #: Checkpoint once more when the service closes.
    checkpoint_on_close: bool = True
    #: Observability knobs (metrics/tracing/slow-op log).  The config rides
    #: in ServiceConfig so it persists across recovery the same way the
    #: durability policy does; the registry itself is in-memory per instance,
    #: so recovery naturally resets counters while keeping the config.
    observability: ObservabilityConfig = ObservabilityConfig()


def _service_method(op: ops.Op) -> Callable | None:
    """What the table alone says about a verb on one instance.

    A durable row is one logged write-lock hold (:meth:`_durable`); a read
    the class does not write out is the manager's own method under a
    consistent read view.  Everything else is hand-written below.
    """
    if op.apply is not None:
        return lambda self, *args, **kwargs: self._durable(op, args, kwargs)
    if op.kind == ops.READ:

        def read(self, *args: Any, **kwargs: Any) -> Any:
            with self._read_view():
                return op.call(self._manager, *args, **kwargs)

        return read
    return None


@ops.surface(_service_method)
class GraphittiService:
    """A concurrent, durable, cache-fronted facade over one Graphitti.

    Every :meth:`query` call returns its own :class:`~repro.query.result.QueryResult`
    copy — the cache never hands the same object to two callers, so consuming
    a result in place cannot corrupt another reader's view.
    """

    def __init__(
        self,
        manager: Graphitti | None = None,
        root: str | Path | None = None,
        config: ServiceConfig | None = None,
    ):
        self._manager = manager if manager is not None else Graphitti()
        self.config = config or ServiceConfig()
        self.obs = Observability(self.config.observability)
        self._lock = ReadWriteLock()
        if self.obs.enabled:
            self._lock.instrument(self.obs.registry)
        capacity = self.config.cache_capacity
        self._cache = QueryResultCache(capacity)
        if capacity:
            self._manager.attach_footprints(self._cache.invalidate)
        self._store: DurableStore | None = None
        if root:
            store = DurableStore(root, durability=self.config.durability)
            store.wal.opened = None  # nothing recovers from this open's read
            self._attach_store(store)
        self._wal_failed = False
        self._fenced = False
        #: Called after every successful WAL append, before the mutation is
        #: acknowledged to the caller.  The replication fault harness uses it
        #: to model a primary dying *between* append and acknowledgement —
        #: the window where a record is durable but was never acked.
        self.after_append_hook: Callable[[str, int], None] | None = None
        self._ops_since_checkpoint = 0
        self._recovery_info: dict[str, Any] | None = None
        self._closed = False
        # Background-checkpoint state: at most one snapshot thread in flight.
        # Automatic (interval) checkpoints seal under the write lock and hand
        # serialization to the thread; manual checkpoint() waits for the
        # thread so its post-conditions (snapshot durable, segments pruned)
        # hold on return — but writers never wait on serialization.
        self._ckpt_thread: threading.Thread | None = None
        self._ckpt_error: Exception | None = None
        # What the last landed checkpoint leaves the next one, which copies
        # the records of unchanged rows from its file (see _run_checkpoint).
        self._ckpt_base: CheckpointBase | None = None
        self._rows_encoded = 0
        self._rows_copied = 0
        self._planner = QueryPlanner(self._manager)
        self._view = _ReadView(self._lock)
        self._manager.stats_providers.append(self._service_stats)

    # -- lifecycle -------------------------------------------------------------

    @classmethod
    def open(
        cls,
        root: str | Path,
        config: ServiceConfig | None = None,
        manager_factory: Callable[[], Graphitti] | None = None,
    ) -> "GraphittiService":
        """Open the instance at *root*: recover prior state or start fresh.

        When the directory holds a snapshot or WAL records, this is
        :meth:`recover`.  Otherwise a new instance is created (from
        *manager_factory* when given) and immediately checkpointed so the
        baseline is durable before any traffic is served.
        """
        if has_durable_state(root):
            return cls.recover(root, config=config)
        manager = manager_factory() if manager_factory is not None else None
        service = cls(manager=manager, root=root, config=config)
        service.checkpoint()
        return service

    @classmethod
    def recover(cls, root: str | Path, config: ServiceConfig | None = None) -> "GraphittiService":
        """Rebuild the service at *root* from its snapshot + WAL replay (of
        the records the store's WAL read as it opened: the log is read once)."""
        if not has_durable_state(root):
            raise ServiceError(f"no snapshot or WAL records to recover from in {root}")
        config = config or ServiceConfig()
        store = DurableStore(root, durability=config.durability)
        try:
            log, store.wal.opened = store.wal.opened, None
            manager, info = recover_manager(root, log)
        except BaseException:
            store.close()
            raise
        service = cls(manager=manager, config=config)
        service._attach_store(store)
        service._recovery_info = info
        return service

    def _attach_store(self, store: DurableStore) -> None:
        self._store = store
        if self.obs.enabled:
            store.wal.tracer = self.obs.tracer

    @property
    def manager(self) -> Graphitti:
        """The wrapped instance.  Route mutations through the service —
        touching the manager directly bypasses locking, logging and cache
        invalidation."""
        return self._manager

    @property
    def recovery_info(self) -> dict[str, Any] | None:
        """What recovery saw (None when this service did not recover)."""
        return self._recovery_info

    def close(self) -> None:
        """Checkpoint (per config) and release the WAL file handle — even
        when that checkpoint fails (the WAL keeps every acknowledged write)."""
        if self._closed:
            return
        try:
            # A background snapshot still in flight uses the store; wait it
            # out before the final checkpoint / handle release.
            self._join_checkpoint()
            if self._store is not None and self.config.checkpoint_on_close and not self._wal_failed:
                self.checkpoint()
        finally:
            self._join_checkpoint()
            if self._store is not None:
                self._store.close()
            # Detach our stats provider so a long-lived manager neither reports a
            # dead service's counters nor keeps it (and its cached results) alive.
            try:
                self._manager.stats_providers.remove(self._service_stats)
            except ValueError:
                pass
            # A long-lived manager stops building footprints for a dead cache.
            if self._cache.capacity:
                self._manager.detach_footprints(self._cache.invalidate)
            self._cache.clear()
            self._closed = True

    def __enter__(self) -> "GraphittiService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- locking helpers -------------------------------------------------------

    def _read_view(self) -> "_ReadView":
        """A consistent read view: the shared lock, nothing more.

        Nothing is deferred past a write: documents are parked and indexed
        when they are registered or edited, and a reader handed a parked
        document builds it itself (safe under the shared lock; see
        :meth:`DocumentCollection._materialize
        <repro.xmlstore.collection.DocumentCollection._materialize>`).
        """
        return self._view

    # -- fencing ---------------------------------------------------------------

    def fence(self) -> None:
        """Permanently refuse mutations on this service (demotion fencing).

        Failover promotes a follower and fences the old primary: a zombie —
        a demoted primary that still holds the write path — must not be able
        to acknowledge (or log) writes the promoted primary will never see.
        Reads stay allowed; a fenced instance serves at its last applied
        state like any stale follower.  Fencing is one-way.
        """
        self._fenced = True

    @property
    def fenced(self) -> bool:
        return self._fenced

    @property
    def last_wal_seq(self) -> int:
        """The highest WAL sequence number this service has logged (0 when
        non-durable).  Every acknowledged mutation is at or below it."""
        return self._store.wal.last_seq if self._store is not None else 0

    # -- write path ------------------------------------------------------------

    def _ensure_open(self) -> None:
        if self._closed:
            raise ServiceError("service is closed")
        if self._fenced:
            raise ServiceError(
                "service is fenced: a newer primary was promoted; "
                "writes here would be lost or double-applied"
            )

    @contextmanager
    def _traced_write(self, op: str) -> Iterator[None]:
        """One traced write-lock hold: lock wait → (caller's apply/log) spans.

        The root span is ``mutation.<op>``; the slow-op check runs after the
        lock is released so a slow mutation's trace lands in the log without
        extending the critical section.
        """
        obs = self.obs
        with obs.span(f"mutation.{op}") as root:
            with obs.span("lock.wait"):
                self._lock.acquire_write()
            try:
                # A failed append may have left a torn line; appending MORE
                # records after it would bury valid data behind mid-file
                # corruption that recovery rightly refuses to read past.
                if self._wal_failed:
                    raise ServiceError(
                        "a WAL append failed earlier; the log may end in a torn record — "
                        "recover from the existing snapshot + WAL before writing again"
                    )
                yield
            finally:
                self._lock.release_write()
        if obs.is_slow(root):
            obs.record_slow(op, root)

    @mutates_state
    def _durable(self, op: ops.Op, args: tuple, kwargs: dict[str, Any]) -> Any:
        """Run one durable table verb: lock, apply, log, acknowledge.

        Every WAL-logged mutation is this one write-lock hold: the row's live
        apply, one WAL record carrying the payload it returned, one
        checkpoint-interval tick.  The verb methods themselves
        (``commit``, ``update_annotation``, ...) are generated from the rows.
        """
        self._ensure_open()
        with self._traced_write(op.name):
            with self.obs.span("apply"):
                result, payload = op.apply_live(self._manager, *args, **kwargs)
            self._log(op.wal_op, [payload])
            self._after_mutation_locked(op.weight(result))
        return result

    @mutates_state
    def reserve_annotation_id(self) -> str:
        """Generate (and reserve) a fresh annotation id on this instance.

        The sharded router calls this on the shard an annotation routes to,
        so auto-generated ids carry the owning shard's namespace.  The
        underlying serial only advances, so two reservations never collide
        even if the first id is never committed.
        """
        self._ensure_open()
        with self._lock.write_locked():
            return self._manager._generate_annotation_id()  # noqa: SLF001 - id authority

    @mutates_state
    def new_annotation(self, *args: Any, **kwargs: Any) -> AnnotationBuilder:
        """Start building an annotation whose commit routes through the service.

        Returns the familiar fluent :class:`AnnotationBuilder`; its
        ``commit()`` lands here (lock + WAL + cache invalidation), not on the
        bare manager.
        """
        self._ensure_open()
        with self._lock.write_locked():
            builder = self._manager.new_annotation(*args, **kwargs)
        builder._manager = self  # noqa: SLF001 - route the builder's commit here
        return builder

    @mutates_state
    def bulk_commit(self, annotations: Iterable[Annotation | AnnotationBuilder]) -> list[Annotation]:
        """Commit a batch under ONE lock acquisition and ONE WAL group commit.

        The batch validates atomically (nothing applies if any member is
        invalid), is registered as one batch, and appends its WAL
        records with a single flush + fsync — the group-commit fast path the
        ingest benchmark measures.
        """
        batch = [
            item.build() if isinstance(item, AnnotationBuilder) else item for item in annotations
        ]
        if not batch:
            return []
        self._ensure_open()
        with self._traced_write("bulk_commit"):
            with self.obs.span("apply") as apply_span:
                committed = self._manager.commit_many(batch)
                apply_span.set("annotations", len(committed))
            self._log(
                ops.bulk_commit.wal_op,
                [encode_annotation(annotation) for annotation in committed],
                group=True,
            )
            self._after_mutation_locked(len(committed))
        return committed

    @requires_write_lock
    def _log(self, op: str, payloads: list[dict[str, Any]], group: bool = False) -> None:
        """Append one record per payload; *group* commits them with one sync."""
        if self._store is None:
            return
        wal = self._store.wal
        try:
            with self.obs.span("wal.append"):
                if group:
                    wal.append_many((op, payload) for payload in payloads)
                else:
                    for payload in payloads:
                        wal.append(op, payload)
        except Exception:
            # The in-memory apply preceded the append; the caller sees this
            # exception (the op is NOT acknowledged), and poisoning the
            # service stops any later checkpoint from durably persisting
            # state the log never acknowledged.
            self._wal_failed = True
            raise
        if self.after_append_hook is not None:
            # Fault window: the record is durable but the caller has not been
            # acknowledged yet.  A raise here models a crash in that window.
            self.after_append_hook(op, wal.last_seq)

    @requires_write_lock
    def _after_mutation_locked(self, count: int) -> None:
        """Post-mutation bookkeeping; caller holds the write lock."""
        self._ops_since_checkpoint += count
        interval = self.config.checkpoint_interval
        if self._store is not None and interval and self._ops_since_checkpoint >= interval:
            self._checkpoint_locked()

    # -- checkpointing ---------------------------------------------------------
    #
    # A checkpoint no longer serializes the corpus under the write lock.  The
    # under-lock part is O(1) + a copy-on-write freeze (array copies): seal
    # the active WAL segment, freeze the column store, release.  A background
    # thread then builds the snapshot payload from the frozen view, lands it
    # via temp-file + rename, and prunes the sealed segments it supersedes.
    # Writers proceed against the live columns the whole time (append-only
    # heaps are shared by length cap; fixed-width arrays were copied).

    @mutates_state
    def checkpoint(self) -> Path | None:
        """Durable checkpoint at a quiesce point; waits for completion.

        Rebuilds the a-graph component index, seals + freezes under the
        write lock, then serializes OFF-lock and joins the background thread
        before returning — callers observe the old post-conditions
        (snapshot durable, WAL empty) while concurrent writers never block
        on serialization.  Returns the snapshot path, or None for a
        non-durable service (the component rebuild still runs).
        """
        while True:
            self._join_checkpoint()
            self._raise_checkpoint_error()
            with self._lock.write_locked():
                thread = self._ckpt_thread
                if thread is not None and thread.is_alive():
                    # An interval checkpoint snuck in between the join and
                    # the lock; wait it out and seal again so the snapshot
                    # covers everything up to THIS call.
                    continue
                started = self._checkpoint_locked()
            if started is None:
                return None if self._store is None else self._store.snapshot_path
            self._join_checkpoint()
            self._raise_checkpoint_error()
            return self._store.snapshot_path

    @requires_write_lock
    def _checkpoint_locked(self) -> threading.Thread | None:
        """Seal + freeze + schedule the background snapshot (write lock held).

        Returns the snapshot thread, or None when nothing was scheduled
        (non-durable service, or a previous checkpoint still in flight — the
        interval path simply tries again later rather than stacking seals).
        """
        with self.obs.span("checkpoint"):
            self._manager.agraph.graph.rebuild_components()
            self._ops_since_checkpoint = 0
            if self._store is None:
                return None
            if self._wal_failed:
                raise ServiceError(
                    "a WAL append failed earlier; refusing to checkpoint state the "
                    "log never acknowledged — recover from the existing snapshot + WAL"
                )
            previous = self._ckpt_thread
            if previous is not None and previous.is_alive():
                return None
            wal_seq = self._store.seal_for_checkpoint()
            frozen = freeze_manager(self._manager)
            thread = threading.Thread(
                target=self._run_checkpoint,
                args=(frozen, wal_seq),
                name="repro-checkpoint",
                daemon=True,
            )
            # Open the courtesy window before start(), which returns only
            # once the new thread has run: at the default switch interval
            # that thread holds the GIL for 5 ms first, with the write lock
            # held here.  The thread closes the window.
            enter_gil_courtesy()
            try:
                thread.start()
            except BaseException:
                leave_gil_courtesy()
                raise
            self._ckpt_thread = thread
        self.obs.count("checkpoints")
        return thread

    def _run_checkpoint(self, frozen, wal_seq: int) -> None:
        """Background half of a checkpoint: serialize, land, prune.

        Only rows written since the previous checkpoint are encoded: the
        others are copied from the snapshot file that checkpoint landed,
        provided the file still verifies against the checksum it was written
        with (see :func:`snapshot_from_frozen`).  A landed checkpoint leaves
        its :class:`CheckpointBase` to the next one; a failed one leaves
        nothing, so the next encodes every row.  At most one checkpoint
        thread runs at a time, so the handoff needs no lock.

        Serialization is pure CPU; inside the courtesy window
        :meth:`_checkpoint_locked` opened (:func:`enter_gil_courtesy`) the
        interpreter hands the GIL back to concurrent committers promptly
        instead of making each of their re-acquisitions wait out the default
        5 ms switch interval.  This thread closes the window, whatever
        happens.
        """
        base, self._ckpt_base = self._ckpt_base, None
        try:
            try:
                source = None if base is None else self._store.read_previous_snapshot(base.crc32)
                payload = snapshot_from_frozen(frozen, None if source is None else base)
                payload["wal_seq"] = wal_seq
                self._store.write_snapshot(payload, source)
            finally:
                leave_gil_courtesy()
            self._store.finish_checkpoint(wal_seq)
        except Exception as exc:  # surfaced on the next checkpoint/close
            self._ckpt_error = exc
            return
        records = payload["annotations"]
        copied = sum(type(record) is slice for record in records)
        self._rows_copied += copied
        self._rows_encoded += len(records) - copied
        layout = self._store.layout
        self._ckpt_base = CheckpointBase(frozen, layout.spans, layout.crc32)

    def _join_checkpoint(self) -> None:
        """Wait for any in-flight background checkpoint (never under the lock)."""
        thread = self._ckpt_thread
        if thread is not None:
            thread.join()

    def _raise_checkpoint_error(self) -> None:
        error = self._ckpt_error
        if error is not None:
            self._ckpt_error = None
            raise ServiceError(f"background checkpoint failed: {error}") from error

    @mutates_state
    def compact(self) -> dict[str, Any]:
        """Compact column storage and prune WAL segments (manual maintenance).

        Rewrites the column heaps dropping tombstoned rows (under the write
        lock — compaction swaps in fresh arrays, so any in-flight frozen
        snapshot view keeps reading the old ones), then checkpoints, which
        seals and prunes every superseded WAL segment.  Returns before/after
        storage gauges.
        """
        self._ensure_open()
        with self._lock.write_locked():
            with self.obs.span("compact"):
                before = self._manager.storage_stats()
                self._manager.compact_storage()
                after = self._manager.storage_stats()
        path = self.checkpoint()
        report: dict[str, Any] = {"before": before, "after": after}
        report["snapshot"] = str(path) if path is not None else None
        if self._store is not None:
            report["wal"] = self._store.wal.segment_stats()
        return report

    # -- read path -------------------------------------------------------------

    def query(self, text_or_query: str | Query) -> QueryResult:
        """Run a GQL query through the result cache.

        Cache key: the caller's text, or ``("query", describe())`` for a
        :class:`Query` object, so a text never aliases a built query.  A
        hit parses and plans nothing.  A miss stores its page with a
        dependency on its plan's first step
        (:func:`~repro.service.cache.page_dependency`), and each write
        drops the pages its footprint reaches as it applies, so a page
        outlives every write that cannot change it.  The page is computed
        and stored inside one read view while every write applies under the
        write lock, so no page is stored after a write it does not reflect.
        A hit's ``step_details`` describe the run that made the page: counts
        of steps after the first may have moved since.

        Parsing and planning happen *inside* the read view: the planner
        reads live structures (the inverted index, catalogue dicts, the
        ontology registry, the interval trees and R-trees it walks to count)
        that a concurrent writer may be mutating, so counting needs the same
        shared lock the execution does.
        """
        obs = self.obs
        if isinstance(text_or_query, Query):
            key: Any = ("query", text_or_query.describe())
        else:
            key = text_or_query
        with self._read_view():
            # The cache hands out its own copy: concurrent readers share
            # the hot entry, and a caller consuming its pages in place must
            # not corrupt it for everyone else.
            cached = self._cache.get(key)
            if cached is not None:
                # A hit records nothing: a cached query runs in a few
                # microseconds, so even one counter increment is most of the
                # <10% overhead gate the cached path is the floor for.
                # metrics() reads the hit count off the cache instead.
                return cached
            with obs.span("query") as root:
                root.set("cache", "miss")
                parsed = text_or_query
                if not isinstance(parsed, Query):
                    with obs.span("parse"):
                        parsed = parse_query(parsed)
                with obs.span("plan"):
                    plan = self._planner.plan(parsed)
                with obs.span("execute") as execute_span:
                    executor = QueryExecutor(
                        self._manager, planner=self._planner, tracer=obs.tracer
                    )
                    result = executor.execute_plan(plan)
                    execute_span.set("rows", result.count)
                # The cache keeps a private copy, so post-return mutations by
                # THIS caller cannot leak into future hits either.
                if self._cache.capacity:
                    self._cache.put(key, result, page_dependency(self._manager, plan, result))
        if obs.is_slow(root):
            # explain() re-takes the read lock, so the slow capture runs only
            # after the query's own view is released.
            root.set("gql", text_or_query if isinstance(text_or_query, str) else key[1])
            obs.record_slow("query", root, explain=self.explain(text_or_query))
        return result

    def explain(self, text_or_query: str | Query) -> dict:
        """Plan explanation without execution (read-locked): the plan
        :meth:`query` would run at this epoch."""
        with self._read_view():
            return self._manager.explain(text_or_query)

    def approve(self, verb: str, *args: Any, **kwargs: Any) -> None:
        """Refuse what write *verb* would refuse here, under the read lock.

        A closed or fenced service refuses every write, so it refuses here
        too; the write itself still approves under its own write lock.
        """
        self._ensure_open()
        with self._lock.read_locked():
            ops.OPS[verb].approve(self._manager, *args, **kwargs)

    # -- reads -------------------------------------------------------------------
    #
    # Point reads and searches (``annotation``, ``search_by_keyword``,
    # ``related_annotations``, ``check_integrity``, builder support, ...) are
    # generated: the manager's method under a read view.

    def holds(self, annotation_id: str) -> bool:
        """Whether *annotation_id* is committed here.

        Deliberately lock-free: a GIL-atomic membership read, re-validated
        under the lock by whatever operation the sharded router runs next.
        """
        return self._manager.has_annotation(annotation_id)

    def statistics(self) -> dict[str, Any]:
        """Instance statistics, including THIS service's own counters.

        Several services can share one manager (the benchmarks do); the
        ``"service"`` key is overwritten with this instance's counters so the
        caller never reads a sibling's cache statistics.
        """
        with self._read_view():
            stats = self._manager.statistics()
            # The service-stats merge reads live shared state (cache stats,
            # WAL gauges, storage occupancy) and must happen under the same
            # read view as the manager statistics — outside it, a concurrent
            # writer can mutate between the two reads and the merged report
            # mixes two epochs.
            stats.update(self._service_stats())
        return stats

    def metrics(self) -> dict[str, Any]:
        """This instance's observability snapshot (JSON-compatible).

        ``{"enabled": False}`` when observability is off; otherwise counters,
        gauges, histograms (with p50/p95/p99), and slow-op-log stats.  The
        sharded and replicated facades merge these snapshots across their
        children; render with :func:`repro.obs.render_prometheus` for the
        text exposition format.

        Column-storage and WAL-segment gauges are refreshed into the registry
        here, so a scrape always reports the current slot/heap/segment
        occupancy without a counter on every mutation; so is the
        ``query.cache_hits`` counter, from the result cache's own count,
        so a hit pays no increment.
        """
        if self.obs.enabled:
            # Storage/WAL gauge sources (column occupancy, segment stats) are
            # shared mutable state; refresh them under the read lock so a
            # scrape cannot race a compaction swapping the arrays out.
            with self._lock.read_locked():
                self._refresh_storage_gauges()
            hits = self.obs.registry.counter("query.cache_hits")
            hits.inc(self._cache.stats()["hits"] - hits.value)
        return self.obs.snapshot()

    def _refresh_storage_gauges(self) -> None:
        registry = self.obs.registry
        stats = self._manager.storage_stats()
        for section in ("annotations", "referents"):
            for key, value in stats.get(section, {}).items():
                registry.gauge(f"storage.{section}.{key}").set(value)
        registry.gauge("storage.row_cache_entries").set(stats.get("row_cache_entries", 0))
        if self._store is not None:
            for key, value in self._store.wal.segment_stats().items():
                registry.gauge(f"wal.{key}").set(value)

    def slow_ops(self) -> list[dict[str, Any]]:
        """Retained slow-op log entries, oldest first (empty when disabled)."""
        if not self.obs.enabled:
            return []
        return self.obs.slow_log.entries()

    # -- stats provider ---------------------------------------------------------

    def _service_stats(self) -> dict[str, Any]:
        # Runs under the caller's read view (via manager.stats_providers or
        # statistics() above) — it must NOT touch self._lock, which is not
        # reentrant.
        stats: dict[str, Any] = {
            "query_cache": self._cache.stats(),
            "ops_since_checkpoint": self._ops_since_checkpoint,
            "durable": self._store is not None,
        }
        if self._store is not None:
            stats["wal"] = {
                "records": self._store.wal.record_count,
                "last_seq": self._store.wal.last_seq,
                "durability": self._store.wal.durability,
                **self._store.wal.segment_stats(),
            }
            stats["checkpoints"] = self._store.checkpoints
            stats["checkpoint_rows_encoded"] = self._rows_encoded
            stats["checkpoint_rows_copied"] = self._rows_copied
        stats["storage"] = self._manager.storage_stats()
        return {"service": stats}


class _ReadView:
    """What :meth:`GraphittiService._read_view` returns: one per service.

    It holds no per-use state, so concurrent and successive views share
    it.  A class rather than a generator context manager: every read, and
    every lookup a builder makes through the service, enters one, and a
    generator frame per entry costs more than the shared-lock round trip.
    """

    __slots__ = ("_lock",)

    def __init__(self, lock: ReadWriteLock):
        self._lock = lock

    def __enter__(self) -> None:
        self._lock.acquire_read()

    def __exit__(self, *exc_info: object) -> None:
        self._lock.release_read()

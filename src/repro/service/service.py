"""The Graphitti serving layer: concurrent, durable, cache-fronted access.

:class:`GraphittiService` wraps one :class:`~repro.core.manager.Graphitti`
instance in the coordination a multi-user deployment needs:

* **single-writer / multi-reader locking** — queries and explore calls share
  a read lock and never block each other; mutations serialize behind a
  writer-preference write lock;
* **durability** — every acknowledged mutation is appended to a write-ahead
  log layered on snapshots (see :mod:`repro.service.durability`), and
  :meth:`recover` rebuilds the exact pre-crash state from snapshot + replay;
* **query-result caching** — results are cached under (normalized GQL text,
  plan fingerprint) and invalidated wholesale by mutation-epoch compare (see
  :mod:`repro.service.cache`), with a prepared-plan memo so a cache hit
  skips parsing and planning entirely;
* **bulk ingest** — :meth:`bulk_commit` groups many annotations into one
  lock acquisition and one group-committed WAL batch, deferring per-commit
  keyword-index bookkeeping to the first subsequent search.

The service's counters surface through ``Graphitti.statistics()`` under the
``"service"`` key, so existing stats tooling sees cache hit rates, WAL depth
and checkpoint counts without new plumbing.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator
from contextlib import contextmanager

from repro.analysis.annotations import mutates_state, requires_write_lock
from repro.core.annotation import Annotation
from repro.core.builder import AnnotationBuilder
from repro.core.manager import Graphitti
from repro.core.persistence import encode_annotation, freeze_manager, snapshot_from_frozen
from repro.errors import ServiceError
from repro.obs import Observability, ObservabilityConfig
from repro.query.ast import Query
from repro.query.executor import QueryExecutor
from repro.query.parser import parse_query
from repro.query.planner import QueryPlan, QueryPlanner
from repro.query.result import QueryResult
from repro.service import ops
from repro.service.cache import QueryResultCache, normalize_gql
from repro.service.durability import (
    DurableStore,
    gil_courtesy,
    has_durable_state,
    recover_manager,
)
from repro.service.locks import ReadWriteLock


@dataclass
class ServiceConfig:
    """Tunables of one :class:`GraphittiService`."""

    #: Result-cache entries kept (LRU); 0 disables result caching.
    cache_capacity: int = 256
    #: Prepared-plan memo entries kept (LRU); 0 disables the memo.
    plan_cache_capacity: int = 512
    #: Mutations between automatic checkpoints; 0 means checkpoint manually.
    checkpoint_interval: int = 0
    #: WAL fsync policy: "always" (per record), "batch", or "never".
    durability: str = "always"
    #: Whether the planner applies selectivity ordering.
    enable_ordering: bool = True
    #: Explicit planner mode ("off", "static", "cost"); None keeps the
    #: implicit default (cost with the small-corpus static fallback).
    planner_mode: str | None = None
    #: Checkpoint once more when the service closes.
    checkpoint_on_close: bool = True
    #: Whole-scatter deadline (seconds) for the sharded facades; a shard
    #: that does not answer in time raises ShardTimeoutError instead of
    #: blocking the merge forever.  None disables the deadline.
    scatter_deadline_s: float | None = None
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
            # Pre-resolved: the cache-hit path pays one .inc(), not a
            # locked registry lookup per query.
            self._cache_hit_counter = self.obs.registry.counter("query.cache_hits")
        else:
            self._cache_hit_counter = None
        self._cache = QueryResultCache(self.config.cache_capacity)
        # normalized text -> (mutation epoch the plan was computed at, plan,
        # fingerprint).  Cost-based plans depend on live statistics, so a
        # memoized plan is only valid at the epoch it was planned at; any
        # mutation forces a re-plan, whose fingerprint (covering the chosen
        # order and estimates) keys the result cache.
        self._plans: OrderedDict[str, tuple[int, QueryPlan, str]] = OrderedDict()
        self._plans_mutex = threading.Lock()
        self._store = DurableStore(root, durability=self.config.durability) if root else None
        if self._store is not None and self.obs.enabled:
            self._store.wal.tracer = self.obs.tracer
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
        self._planner = QueryPlanner(
            enable_ordering=self.config.enable_ordering,
            manager=self._manager,
            mode=self.config.planner_mode,
        )
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
        """Rebuild the service at *root* from its snapshot + WAL replay."""
        manager, info = recover_manager(root)
        service = cls(manager=manager, root=root, config=config)
        service._recovery_info = info
        return service

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
        """Checkpoint (per config) and release the WAL file handle."""
        if self._closed:
            return
        # A background snapshot still in flight uses the store; wait it out
        # before the final checkpoint / handle release.
        self._join_checkpoint()
        if self._store is not None and self.config.checkpoint_on_close and not self._wal_failed:
            self.checkpoint()
        self._join_checkpoint()
        if self._store is not None:
            self._store.close()
        # Detach our stats provider so a long-lived manager neither reports a
        # dead service's counters nor keeps it (and its cached results) alive.
        try:
            self._manager.stats_providers.remove(self._service_stats)
        except ValueError:
            pass
        self._closed = True

    def __enter__(self) -> "GraphittiService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- locking helpers -------------------------------------------------------

    @contextmanager
    def _read_view(self) -> Iterator[None]:
        """A consistent read view: shared lock + fully drained deferred work.

        Deferred index work (from bulk commits) and stale document bodies
        (from in-place updates) must not be drained by a reader mid-search —
        materialization mutates shared dicts — so when either exists the
        view first drains both under the write lock, then downgrades to the
        shared lock.  The re-check loop covers a writer sneaking new
        deferred work in between the drain and the read acquisition.
        Documents a recovery merely parked (``add_lazy``) are not drained:
        a reader that needs one builds it itself, and most are never read.
        """
        contents = self._manager.contents
        while True:
            if contents.pending_index_count or contents.stale_document_count:
                with self._lock.write_locked():
                    contents.flush_index()
                    contents.materialize_documents()
            self._lock.acquire_read()
            if contents.pending_index_count or contents.stale_document_count:
                self._lock.release_read()
                continue
            break
        try:
            yield
        finally:
            self._lock.release_read()

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
        with self._lock.write_locked():
            return self._manager._generate_annotation_id()  # noqa: SLF001 - id authority

    @mutates_state
    def new_annotation(self, *args: Any, **kwargs: Any) -> AnnotationBuilder:
        """Start building an annotation whose commit routes through the service.

        Returns the familiar fluent :class:`AnnotationBuilder`; its
        ``commit()`` lands here (lock + WAL + cache invalidation), not on the
        bare manager.
        """
        with self._lock.write_locked():
            builder = self._manager.new_annotation(*args, **kwargs)
        builder._manager = self  # noqa: SLF001 - route the builder's commit here
        return builder

    @mutates_state
    def bulk_commit(self, annotations: Iterable[Annotation | AnnotationBuilder]) -> list[Annotation]:
        """Commit a batch under ONE lock acquisition and ONE WAL group commit.

        The batch validates atomically (nothing applies if any member is
        invalid), commits with deferred keyword indexing, and appends its WAL
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

        Drains deferred index work, rebuilds the a-graph component index,
        seals + freezes under the write lock, then serializes OFF-lock and
        joins the background thread before returning — callers observe the
        old post-conditions (snapshot durable, WAL empty) while concurrent
        writers never block on serialization.  Returns the snapshot path, or
        None for a non-durable service (the index/component drain still runs).
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
            self._manager.contents.flush_index()
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
            self._ckpt_thread = thread
            thread.start()
        self.obs.count("checkpoints")
        return thread

    def _run_checkpoint(self, frozen, wal_seq: int) -> None:
        """Background half of a checkpoint: serialize, land, prune.

        Serialization is pure CPU; inside a :func:`gil_courtesy` window the
        interpreter hands the GIL back to concurrent committers promptly
        instead of making each of their re-acquisitions wait out the default
        5 ms switch interval.
        """
        try:
            with gil_courtesy():
                payload = snapshot_from_frozen(frozen)
                payload["wal_seq"] = wal_seq
                self._store.write_snapshot(payload)
            self._store.finish_checkpoint(wal_seq)
        except Exception as exc:  # surfaced on the next checkpoint/close
            self._ckpt_error = exc

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

        Cache key: (normalized GQL text, plan fingerprint); entries are valid
        only at the mutation epoch they were computed at.  A hit for repeated
        text also skips parsing and planning via the prepared-plan memo.

        Planning happens *inside* the read view: the cost-based planner
        reads live structures (interval-tree spans, catalogue dicts, the
        ontology registry) that a concurrent writer may be mutating, so the
        estimate pass needs the same shared lock the execution does.
        """
        obs = self.obs
        prep_spans: list = []
        began = time.perf_counter()
        with self._read_view():
            normalized, plan, fingerprint = self._prepare(text_or_query, prep_spans)
            key = (normalized, fingerprint)
            epoch = self._manager.mutation_epoch
            cached = self._cache.get(key, epoch)
            if cached is not None:
                # Defensive copy: concurrent readers share the hot entry,
                # and a caller consuming its pages in place must not
                # corrupt the entry for everyone else.  A hit pays ONE
                # counter increment and no span: a cached query runs in a
                # few microseconds, so even a single span would breach the
                # <10% overhead gate the cached path is the floor for.
                if self._cache_hit_counter is not None:
                    self._cache_hit_counter.inc()
                return cached.copy()
            with obs.span("query") as root:
                if root:
                    # Backdate to before _prepare: the root span covers the
                    # parse/plan work even though it was opened only once
                    # the cache missed (the hit path must not pay for it).
                    root.start = began
                root.set("cache", "miss")
                # The parse/plan spans finished before the root existed;
                # adopt them so the trace still reads parse -> plan -> execute.
                for span in prep_spans:
                    span.reparent(root)
                with obs.span("execute") as execute_span:
                    executor = QueryExecutor(
                        self._manager, planner=self._planner, tracer=obs.tracer
                    )
                    result = executor.execute_plan(plan)
                    execute_span.set("rows", result.count)
                # Cache a private copy so post-return mutations by THIS caller
                # cannot leak into future hits either.
                self._cache.put(key, epoch, result.copy())
        if obs.is_slow(root):
            # explain() re-takes the read lock, so the slow capture runs only
            # after the query's own view is released.
            root.set("gql", normalized)
            obs.record_slow("query", root, explain=self.explain(text_or_query))
        return result

    def _prepare(
        self, text_or_query: str | Query, trace_sink: list | None = None
    ) -> tuple[str, QueryPlan, str]:
        """Normalize + parse + plan, memoized on (normalized text, epoch).

        A memoized plan is reused only while the manager's mutation epoch
        matches the epoch it was planned at: cost-based plans embed live
        cardinality estimates, and a mutation may change which order (and
        which fingerprint) the planner picks.  Re-planning after a mutation
        is what makes stats-driven plan changes miss stale result-cache
        entries naturally — the fingerprint is part of the result key.

        *trace_sink* collects the parse/plan spans so the caller can adopt
        them under a root span it opens only after the cache misses.
        """
        epoch = self._manager.mutation_epoch
        if isinstance(text_or_query, Query):
            with self.obs.span("plan") as plan_span:
                plan = self._planner.plan(text_or_query)
            if plan_span and trace_sink is not None:
                trace_sink.append(plan_span)
            return text_or_query.describe(), plan, plan.fingerprint()
        normalized = normalize_gql(text_or_query)
        with self._plans_mutex:
            prepared = self._plans.get(normalized)
            if prepared is not None and prepared[0] == epoch:
                # Memo hit: deliberately span-free — repeated hot queries
                # skip parse AND plan, and the trace should show that.
                self._plans.move_to_end(normalized)
                return (normalized, prepared[1], prepared[2])
        with self.obs.span("parse") as parse_span:
            parsed = parse_query(text_or_query)
        with self.obs.span("plan") as plan_span:
            plan = self._planner.plan(parsed)
            plan_span.set("mode", getattr(plan, "mode", None))
        if plan_span and trace_sink is not None:
            trace_sink.append(parse_span)
            trace_sink.append(plan_span)
        fingerprint = plan.fingerprint()
        if self.config.plan_cache_capacity:
            with self._plans_mutex:
                self._plans[normalized] = (epoch, plan, fingerprint)
                self._plans.move_to_end(normalized)
                while len(self._plans) > self.config.plan_cache_capacity:
                    self._plans.popitem(last=False)
        return normalized, plan, fingerprint

    def explain(self, text_or_query: str | Query) -> dict:
        """Plan explanation without execution (read-locked)."""
        with self._read_view():
            return self._manager.explain(
                text_or_query, enable_ordering=self.config.enable_ordering
            )

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
        occupancy without a counter on every mutation.
        """
        if self.obs.enabled:
            # Storage/WAL gauge sources (column occupancy, segment stats) are
            # shared mutable state; refresh them under the read lock so a
            # scrape cannot race a compaction swapping the arrays out.
            with self._lock.read_locked():
                self._refresh_storage_gauges()
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
        # reentrant.  The plan memo has its own mutex; hold it for the read
        # so a concurrent _prepare eviction can't be observed mid-resize.
        with self._plans_mutex:
            prepared_plans = len(self._plans)
        stats: dict[str, Any] = {
            "query_cache": self._cache.stats(),
            "prepared_plans": prepared_plans,
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
        stats["storage"] = self._manager.storage_stats()
        return {"service": stats}

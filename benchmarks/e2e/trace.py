"""Outside-in layer trace: spans recorded from the benchmark's own files.

The traced run wraps the public function at each layer boundary (plus the
two private seams no public one separates: the worker server's dispatch and
the sharded facade's result merge) and records, per call, a span with name,
start, end, parent and the id of the driver op it served.  Spans stay in
memory and are written out when the run ends.  ``repro.obs`` stays disabled
and no file under ``src/`` changes; end-to-end metrics are never taken from
a traced run.

A span's *self time* is its duration minus the part its child spans cover.
Children normally share their parent's thread (a per-thread stack links
them); the network tier crosses threads twice, and both hops are linked
explicitly: a client call started on a scatter-pool thread is a child of
whatever the driver thread is blocked in, and a worker's dispatch is a child
of the client call in flight to its shard.  Spans on other threads (the
background checkpoint) have no parent: they are reported, not blamed on an
op.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import statistics
import sys
import threading
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator

from benchmarks.e2e import metrics
from benchmarks.e2e.driver import Plan, Run, ops_per_s, run_workload

# Span tuple layout.
INDEX, NAME, TAG, START, END, PARENT, OP, VALUE = range(8)


class Tracer:
    """In-memory span recorder for one traced workload run."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.recording = False
        self._counter = itertools.count()
        self._local = threading.local()
        self._driver = threading.get_ident()
        self._driver_stack: list[int] = []
        self._op = -1
        self._root: tuple[int, str, float] | None = None
        #: shard index -> span index of the client call in flight to it.
        self._calls: dict[int, int] = {}

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._driver:
            return self._driver_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- driver hooks ------------------------------------------------------------

    def begin_op(self, op_id: int, kind: str) -> None:
        """Open the root span of driver op *op_id*; recording starts here."""
        self.recording = True
        self._op = op_id
        index = next(self._counter)
        self._driver_stack.append(index)
        self._root = (index, f"driver.{kind}", perf_counter())

    def end_op(self) -> None:
        end = perf_counter()
        index, name, start = self._root
        self._driver_stack.pop()
        self.spans.append((index, name, "", start, end, None, self._op, 0))
        self._op = -1

    # -- wrapping ----------------------------------------------------------------

    def wrap(
        self,
        function: Callable,
        name: str,
        tag: str,
        value: Callable[[tuple, Any], float] | None = None,
        shard_of: Callable[[tuple], int] | None = None,
        hop: str = "",
    ) -> Callable:
        """*function* recorded as span *name*.

        *value* extracts a number from ``(args, result)`` (bytes, a hit
        flag).  *hop* marks the two cross-thread links: ``"call"`` (a client
        call: child of the driver thread's open span, remembered per shard)
        and ``"serve"`` (a worker dispatch: child of the call to its shard).
        """
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.recording:
                return function(*args, **kwargs)
            stack = tracer._stack()
            index = next(tracer._counter)
            if stack:
                parent = stack[-1]
            elif hop == "call" and tracer._driver_stack:
                parent = tracer._driver_stack[-1]
            elif hop == "serve":
                parent = tracer._calls.get(shard_of(args))
            else:
                parent = None
            if hop == "call":
                tracer._calls[shard_of(args)] = index
            op = tracer._op
            stack.append(index)
            measured = 0
            start = perf_counter()
            try:
                result = function(*args, **kwargs)
                if value is not None:
                    measured = value(args, result)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans.append((index, name, tag, start, end, parent, op, measured))

        traced.__wrapped__ = function
        return traced

    # -- output --------------------------------------------------------------------

    def dump(self, path: Path, workload: str, seed: int) -> None:
        """Write every span to *path* (JSON), with the column legend."""
        payload = {
            "workload": workload,
            "seed": seed,
            "columns": ["index", "name", "function", "start", "end", "parent", "op", "value"],
            "spans": self.spans,
        }
        path.write_text(json.dumps(payload), encoding="utf-8")


# -- what gets wrapped ---------------------------------------------------------------


def _boundaries() -> list[tuple]:
    """(owner, attribute, span name, wrap options) for every layer boundary.

    An owner is a class or a module; a module's function is also patched in
    every loaded ``repro`` module that imported it by name.
    """
    from repro.agraph.agraph import AGraph
    from repro.agraph.multigraph import LabeledMultigraph
    from repro.core import persistence
    from repro.core.manager import Graphitti
    from repro.net import codec, wire
    from repro.net.client import ShardClient
    from repro.net.server import ShardWorkerServer
    from repro.query import parser
    from repro.query.executor import QueryExecutor
    from repro.query.planner import QueryPlanner
    from repro.service import durability
    from repro.service import wal as wal_module
    from repro.service.cache import QueryResultCache
    from repro.service.durability import DurableStore
    from repro.service.locks import ReadWriteLock
    from repro.service.service import GraphittiService
    from repro.service.wal import WriteAheadLog
    from repro.shard import router
    from repro.shard.service import ShardedGraphittiService
    from repro.spatial.interval_tree import IntervalIndexFamily
    from repro.spatial.rtree import RTreeFamily
    from repro.xmlstore.text_index import InvertedIndex

    shard = {"shard_of": lambda args: args[0].shard_index}
    return [
        (parser, "parse_query", "query.parse", {}),
        (QueryPlanner, "plan", "query.plan", {}),
        (QueryExecutor, "execute_plan", "query.execute", {}),
        (IntervalIndexFamily, "search_overlap", "spatial.search", {}),
        (RTreeFamily, "search_overlap", "spatial.search", {}),
        (InvertedIndex, "search", "xmlstore.search", {}),
        # PATH evaluates through the multi-source sweep and GRAPH pages
        # through connect(); AGraph.path is the pairwise form of the same walk.
        (AGraph, "path", "agraph.path", {}),
        (AGraph, "multi_source_distances", "agraph.path", {}),
        (AGraph, "connect", "agraph.path", {}),
        (QueryResultCache, "get", "service.cache",
         {"value": lambda args, result: 0 if result is None else 1}),
        (QueryResultCache, "put", "service.cache", {}),
        (ReadWriteLock, "acquire_read", "service.locks", {}),
        (ReadWriteLock, "acquire_write", "service.locks", {}),
        (WriteAheadLog, "append", "service.wal.append", {}),
        (WriteAheadLog, "append_many", "service.wal.append", {}),
        (WriteAheadLog, "append_record", "service.wal.append", {}),
        (os, "fsync", "service.wal.fsync", {}),
        (os, "fdatasync", "service.wal.fsync", {}),
        (GraphittiService, "checkpoint", "service.checkpoint", {}),
        # An interval checkpoint never passes through checkpoint(): its
        # under-lock half and its background half are these public steps.
        (DurableStore, "seal_for_checkpoint", "service.checkpoint", {}),
        (persistence, "freeze_manager", "service.checkpoint", {}),
        (persistence, "snapshot_from_frozen", "service.checkpoint", {}),
        (DurableStore, "write_snapshot", "service.checkpoint",
         {"value": lambda args, result: result.stat().st_size}),
        (DurableStore, "finish_checkpoint", "service.checkpoint", {}),
        (durability, "recover_manager", "service.recover.snapshot", {}),
        (persistence, "rebuild", "service.recover.snapshot", {}),
        (wal_module, "read_segmented_records", "service.recover.replay", {}),
        (durability, "apply_record", "service.recover.replay", {}),
        (Graphitti, "commit", "core.manager.apply", {}),
        (Graphitti, "update_annotation", "core.manager.apply", {}),
        (Graphitti, "delete_annotation", "core.manager.delete", {}),
        # The component rebuild a delete forces (and an update or checkpoint
        # finds nothing to do in) is the bulk of a delete's cost.
        (LabeledMultigraph, "rebuild_components", "core.manager.delete", {}),
        (persistence, "encode_annotation", "core.persistence.encode", {}),
        (persistence, "encode_update_changes", "core.persistence.encode", {}),
        (router, "shard_for_annotation", "shard.router", {}),
        (router, "shard_from_annotation_id", "shard.router", {}),
        (ShardedGraphittiService, "_merge_results", "net.facade.merge", {}),
        (ShardClient, "call", "net.client.wait", {"hop": "call", **shard}),
        (wire, "encode_frame", "net.wire.encode",
         {"value": lambda args, result: len(result)}),
        (wire.FrameDecoder, "feed", "net.wire.decode",
         {"value": lambda args, result: len(args[1])}),
        (codec, "encode_query_result", "net.codec", {}),
        (codec, "decode_query_result", "net.codec", {}),
        (ShardWorkerServer, "_dispatch", "net.server.dispatch", {"hop": "serve", **shard}),
    ]


@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[None]:
    """Patch every layer boundary to record into *tracer*; undo on exit.

    Install before the deployment opens: a WAL binds ``os.fsync`` when it is
    constructed.
    """
    undo: list[tuple[Any, str, Any]] = []
    try:
        for owner, attribute, name, options in _boundaries():
            original = getattr(owner, attribute)
            tag = f"{getattr(owner, '__name__', owner)}.{attribute}"
            wrapper = tracer.wrap(original, name, tag, **options)
            holders = [owner]
            if not isinstance(owner, type):
                # A module-level function: patch every module that imported it.
                holders += [
                    module
                    for module_name, module in list(sys.modules.items())
                    if module_name.startswith("repro")
                    and module is not owner
                    and getattr(module, attribute, None) is original
                ]
            for holder in holders:
                undo.append((holder, attribute, original))
                setattr(holder, attribute, wrapper)
        yield
    finally:
        tracer.recording = False
        for holder, attribute, original in reversed(undo):
            setattr(holder, attribute, original)


def traced_run(plan: Plan, work_dir: Path) -> tuple[Tracer, Run, Run]:
    """The same ops twice from the same fresh state: untraced, then traced.

    Returns ``(tracer, traced run, untraced run)``; their throughput ratio is
    the tracing overhead.  Both use thread workers for ``net`` so that they
    differ in nothing but the tracing, and each keeps its own data root under
    *work_dir*.
    """
    untraced = run_workload(
        plan, work_dir / "untraced", setups=1, recoveries=1, thread_workers=True
    )
    tracer = Tracer()
    with installed(tracer):
        run = run_workload(
            plan,
            work_dir / "traced",
            setups=1,
            recoveries=1,
            thread_workers=True,
            begin_op=tracer.begin_op,
            end_op=tracer.end_op,
        )
    return tracer, run, untraced


# -- analysis --------------------------------------------------------------------------


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span index -> self time: duration minus what its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    result: dict[int, float] = {}
    for span in spans:
        start, end = span[START], span[END]
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(span[INDEX], ())):
            child_start = max(child_start, cursor)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        result[span[INDEX]] = max(0.0, (end - start) - covered)
    return result


def summary(tracer: Tracer) -> dict[str, float]:
    """Root time, summed self time and what no child span accounts for."""
    spans = sorted(tracer.spans)  # by index: a parent always precedes its children
    own = self_times(spans)
    rooted: set[int] = set()
    root_time = summed = unattributed = 0.0
    for span in spans:
        if span[NAME].startswith("driver."):
            rooted.add(span[INDEX])
            root_time += span[END] - span[START]
            unattributed += own[span[INDEX]]
        elif span[PARENT] in rooted:
            rooted.add(span[INDEX])
        else:
            continue
        summed += own[span[INDEX]]
    return {"root_s": root_time, "summed_self_s": summed, "unattributed_s": unattributed}


def _stall_ms(tracer: Tracer) -> float:
    """Median over checkpoint cycles of the slowest write inside the cycle."""
    seals = sorted(
        span[START] for span in tracer.spans if span[TAG] == "DurableStore.seal_for_checkpoint"
    )
    ends = sorted(
        span[END] for span in tracer.spans if span[TAG] == "DurableStore.finish_checkpoint"
    )
    writes = [
        (span[START], span[END])
        for span in tracer.spans
        if span[NAME] in ("driver.write", "driver.delete")
    ]
    worst: list[float] = []
    for seal in seals:
        finish = next((end for end in ends if end >= seal), None)
        if finish is None:
            continue
        inside = [end - start for start, end in writes if start <= finish and end >= seal]
        if inside:
            worst.append(max(inside))
    return statistics.median(worst) * 1e3 if worst else 0.0


def per_layer(tracer: Tracer, run: Run, untraced: Run) -> dict[str, float]:
    """Every per-layer metric of one traced run (and its untraced twin)."""
    spans = tracer.spans
    own = self_times(spans)
    ops = max(1, len(run.phase.executed))
    writes = max(1, run.phase.acked_writes)
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    for span in spans:
        calls[span[NAME]] = calls.get(span[NAME], 0) + 1
        busy[span[NAME]] = busy.get(span[NAME], 0.0) + own[span[INDEX]]
    values: dict[str, float] = {}
    for name in metrics.SPANS:
        values[f"{name}.calls_per_op"] = calls.get(name, 0) / ops
        values[f"{name}.self_us_per_op"] = busy.get(name, 0.0) / ops * 1e6

    by_index = {span[INDEX]: span for span in spans}
    gets = [span for span in spans if span[TAG] == "QueryResultCache.get"]
    # One cache lookup per service-level query; a plan-memo miss is a parse
    # by a service (the sharded facade parses too, to learn the result shape,
    # but its parses run on the driver thread directly under the op).
    in_service = "net.server.dispatch" if run.plan.workload.deployment == "net" else None
    parses = [
        span
        for span in spans
        if span[NAME] == "query.parse"
        and span[OP] >= 0
        and (in_service is None or _ancestor(span, by_index, in_service))
    ]
    fsyncs = sum(
        1
        for span in spans
        if span[NAME] == "service.wal.fsync"
        and span[PARENT] is not None
        and by_index[span[PARENT]][NAME] == "service.wal.append"
    )
    snapshots = [span for span in spans if span[TAG] == "DurableStore.write_snapshot"]
    frames = [span for span in spans if span[NAME] in ("net.wire.encode", "net.wire.decode")]
    totals = summary(tracer)
    values.update(
        {
            "service.cache.hit_ratio": sum(span[VALUE] for span in gets) / max(1, len(gets)),
            "service.plan_memo.hit_ratio": 1.0 - len(parses) / max(1, len(gets)),
            "service.wal.fsyncs_per_write": fsyncs / writes,
            "service.wal.bytes_per_write": run.phase.wal_bytes / writes,
            "service.checkpoint.count": sum(
                1 for span in spans if span[TAG] == "DurableStore.seal_for_checkpoint"
            ),
            "service.checkpoint.bytes_written": sum(span[VALUE] for span in snapshots),
            "service.checkpoint.stall_ms": _stall_ms(tracer),
            "net.client.round_trips_per_op": calls.get("net.client.wait", 0) / ops,
            "net.wire.bytes_per_op": sum(span[VALUE] for span in frames) / ops,
            "trace.overhead_ratio": ops_per_s(run.phase) / ops_per_s(untraced.phase),
            "trace.unattributed_share": totals["unattributed_s"] / max(totals["root_s"], 1e-12),
        }
    )
    values.update(metrics.driver_layer(untraced))
    return values


def _ancestor(span: tuple, by_index: dict[int, tuple], name: str) -> bool:
    parent = span[PARENT]
    while parent is not None:
        node = by_index.get(parent)
        if node is None:
            return False
        if node[NAME] == name:
            return True
        parent = node[PARENT]
    return False

"""Metric names, units and bounds -- the vocabulary of every later speed claim.

``BENCHMARK.json`` repeats these tables for the driver; the smoke test holds
the two together.
"""

from __future__ import annotations

import statistics

from benchmarks.e2e.corpus import DELETE, READ, WRITE
from benchmarks.e2e.driver import (
    Run,
    calibration_cv,
    cpu_ms_per_op,
    fastest,
    latency_ms,
    ops_per_s,
    tail_ms,
)
from benchmarks.e2e.oracle import Verdict

#: name -> (unit, better, bound).  Bound: the share of the parent's median by
#: which the metric may get worse before a change is a regression, and how far
#: two sets of runs of the same code may differ.  The accepting driver refuses
#: a benchmark whose ten-seed interquartile spread exceeds the bound, so a
#: bound has to sit clear of the widest spread seen on the defining host while
#: its neighbours were at their noisiest (raw spreads of 0.10-0.47): 0.08 for
#: the three phase timings, 0.14 for ``recover_s``.  ``setup_s`` carries the
#: widest bound the driver allows, as its contract asks.  Two latencies are not
#: here because no admissible bound clears their spread, so they are the
#: un-gated ``driver.write_ms`` (a third of it is one fsync on the sandbox's
#: disk, which moves by a fifth within minutes: 0.10-0.18) and
#: ``driver.delete_ms`` (``net`` has 24 deletes a run).  Writes and deletes
#: stay gated through ``churn``'s ``ops_per_s`` and ``cpu_ms_per_op`` --
#: deletes are two fifths of ``churn``'s time -- and ``wal_bytes_per_write``.
END_TO_END: dict[str, tuple[str, str, float]] = {
    "setup_s": ("s", "lower", 0.25),
    "ops_per_s": ("1/s", "higher", 0.15),
    "read_ms": ("ms", "lower", 0.15),
    "cpu_ms_per_op": ("ms", "lower", 0.15),
    "recover_s": ("s", "lower", 0.25),
    "wal_bytes_per_write": ("B", "lower", 0.02),
    "disk_bytes_per_annotation": ("B", "lower", 0.02),
    "rss_mb": ("MiB", "lower", 0.05),
}

#: The end-to-end metrics that are counts: a seed's runs must agree exactly.
EXACT = ("wal_bytes_per_write", "disk_bytes_per_annotation")

#: Spans the traced run attributes time to; layer names are the repo's modules.
SPANS = (
    "query.parse",
    "query.plan",
    "query.execute",
    "spatial.search",
    "xmlstore.search",
    "agraph.path",
    "service.cache",
    "service.locks",
    "service.wal.append",
    "service.wal.fsync",
    "service.checkpoint",
    "service.recover.snapshot",
    "service.recover.replay",
    "core.manager.apply",
    "core.manager.delete",
    "core.persistence.encode",
    "shard.router",
    "net.facade.merge",
    "net.client.wait",
    "net.wire.encode",
    "net.wire.decode",
    "net.codec",
    "net.server.dispatch",
)

#: name -> (unit, better) of the per-layer ratios and counts beside the spans.
LAYER_EXTRAS: dict[str, tuple[str, str]] = {
    "service.cache.hit_ratio": ("ratio", "higher"),
    "service.plan_memo.hit_ratio": ("ratio", "higher"),
    "service.wal.fsyncs_per_write": ("count", "lower"),
    "service.wal.bytes_per_write": ("B", "lower"),
    "service.checkpoint.count": ("count", "lower"),
    "service.checkpoint.bytes_written": ("B", "lower"),
    "service.checkpoint.stall_ms": ("ms", "lower"),
    "net.client.round_trips_per_op": ("count", "lower"),
    "net.wire.bytes_per_op": ("B", "lower"),
    "driver.write_ms": ("ms", "lower"),
    "driver.delete_ms": ("ms", "lower"),
    "driver.read_p95_ms": ("ms", "lower"),
    "driver.read_p95_samples": ("count", "higher"),
    "driver.write_p95_ms": ("ms", "lower"),
    "driver.write_p95_samples": ("count", "higher"),
    "driver.delete_p95_ms": ("ms", "lower"),
    "driver.delete_p95_samples": ("count", "higher"),
    "driver.calibration_cv": ("ratio", "lower"),
    "trace.overhead_ratio": ("ratio", "higher"),
    "trace.unattributed_share": ("ratio", "lower"),
}


def per_layer_table() -> dict[str, tuple[str, str]]:
    """Every per-layer metric name -> (unit, better)."""
    table: dict[str, tuple[str, str]] = {}
    for span in SPANS:
        table[f"{span}.calls_per_op"] = ("count", "lower")
        table[f"{span}.self_us_per_op"] = ("us", "lower")
    table.update(LAYER_EXTRAS)
    return table


def end_to_end(run: Run, verdict: Verdict) -> dict[str, float]:
    """The end-to-end values of one untraced run."""
    phase = run.phase
    return {
        "setup_s": statistics.median(timed.seconds for timed in run.setups),
        "ops_per_s": ops_per_s(phase),
        "read_ms": latency_ms(phase, READ),
        "cpu_ms_per_op": cpu_ms_per_op(phase),
        "recover_s": fastest(run.recoveries).seconds,
        "wal_bytes_per_write": phase.wal_bytes / max(1, phase.acked_writes),
        "disk_bytes_per_annotation": verdict.disk_bytes / max(1, verdict.live),
        "rss_mb": run.rss_mib,
    }


def raw_timings(run: Run) -> dict[str, float]:
    """The un-normalised twins of the timing metrics, printed beside them."""
    phase = run.phase
    return {
        "setup_s": statistics.median(timed.raw_seconds for timed in run.setups),
        "ops_per_s": ops_per_s(phase, normalised=False),
        "read_ms": latency_ms(phase, READ, normalised=False),
        "recover_s": fastest(run.recoveries).raw_seconds,
    }


def driver_layer(run: Run) -> dict[str, float]:
    """The ``driver.*`` per-layer values (tails with their sample counts)."""
    values: dict[str, float] = {
        "driver.calibration_cv": calibration_cv(run.phase),
        # Per-block mean latency (ack after the WAL fsync), normalised, median
        # of blocks: both demoted from the end-to-end metrics.
        "driver.write_ms": latency_ms(run.phase, WRITE),
        "driver.delete_ms": latency_ms(run.phase, DELETE),
    }
    for kind in (READ, WRITE, DELETE):
        tail, count = tail_ms(run.phase, kind)
        values[f"driver.{kind}_p95_ms"] = tail
        values[f"driver.{kind}_p95_samples"] = count
    return values

"""PERF-9: columnar storage residency + non-blocking checkpoint stalls.

Two workloads measure what the columnar annotation store and the
copy-on-write checkpoint pipeline buy at the storage layer:

* **write latency during checkpoints** — per-commit durable write latency
  on a seeded corpus, measured with no checkpoint activity and again while
  a background thread runs ``service.checkpoint()`` in a loop (seal +
  freeze under the lock, serialization off-lock).  Floor: **p99 during
  checkpoints <= 2x the no-checkpoint p99** (with a small absolute grace
  for sub-millisecond baselines) — the old implementation serialized the
  whole corpus under the write lock, so this is the number that proves
  checkpoints stopped blocking writers.  The ratio floor is enforced on
  multi-core hosts; on a single core the committer and the background
  serializer share the CPU, so scheduler timeslices dominate the tail no
  matter how non-blocking the design is — there only the absolute ceiling
  (which a serialize-under-lock regression would blow past) is enforced.
* **cold recovery RSS + time** — a checkpointed root is recovered in a
  fresh subprocess two ways: the columnar path (lazy documents, packed
  columns) and the pre-refactor object-graph baseline
  (``rebuild`` followed by ``contents.get`` of every document: every
  annotation document built from its record up front, every annotation
  materialized and retained).  Each probe reports ``rss_bytes`` (peak RSS) and
  ``recovery_s``.  Floor: **columnar RSS <= object-graph RSS**.

``python -m benchmarks.bench_storage`` prints the table, writes
``BENCH_storage.json`` via the harness, and exits non-zero below a floor.
Set ``BENCH_SMOKE=1`` for the CI-sized run (floors still apply).  The
``--probe MODE ROOT`` form is internal: it runs one recovery measurement
in this process and prints a JSON result line.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import sys
import tempfile
import threading
import time
from pathlib import Path

from benchmarks._harness import (
    current_rss_bytes,
    format_row,
    peak_rss_bytes,
    percentile,
    sample_stats,
    subprocess_probe,
    usable_cores,
    write_results,
)

#: p99 commit latency while checkpoints run, relative to the quiet p99.
STALL_P99_FACTOR = 2.0

#: Absolute grace for the ratio floor: when the quiet p99 is sub-millisecond
#: the ratio is dominated by scheduler and filesystem-journal noise the quiet
#: phase never sees; a p99 of a few milliseconds under continuous checkpoint
#: churn still honors the non-blocking promise.
STALL_P99_GRACE_S = 0.005

#: Unconditional ceiling, enforced even where the ratio floor is not: a
#: regression to serialize-under-the-write-lock stalls commits for the full
#: serialization (hundreds of milliseconds at smoke scale, seconds at 100k),
#: which this catches on any host.
STALL_P99_CEILING_S = 0.1

_SMOKE = bool(os.environ.get("BENCH_SMOKE"))

#: (corpus annotations, latency-sample commits, bulk-commit batch size).
#: Enough latency samples that the p99 reflects the stall distribution
#: rather than a single unlucky scheduler artifact.
SCALE = (2_000, 300, 500) if _SMOKE else (100_000, 600, 2_000)

_KEYWORDS = ("storage", "binding", "cleavage", "regulatory", "conserved", "mutation")


def _build_batch(manager, object_ids, count: int, prefix: str):
    rng = random.Random(len(prefix) * 7919 + count)
    batch = []
    for index in range(count):
        object_id = object_ids[index % len(object_ids)]
        start = rng.randrange(0, 900)
        builder = manager.new_annotation(
            f"{prefix}-{index}",
            title=f"storage annotation {index}",
            creator=f"bench-{index % 5}",
            keywords=["storage", rng.choice(_KEYWORDS)],
            body=f"columnar storage benchmark annotation over {object_id}",
        ).mark_sequence(object_id, start, start + rng.randrange(10, 120))
        batch.append(builder.build())
    return batch


def _open_corpus(root: str, annotations: int):
    """A durable service at *root* seeded with *annotations* committed rows."""
    from repro.core.manager import Graphitti
    from repro.service import GraphittiService, ServiceConfig
    from repro.workloads.service_scenario import seed_service_objects

    _, _, batch_size = SCALE
    manager = Graphitti("bench-storage")
    object_ids = seed_service_objects(manager)
    service = GraphittiService(
        manager=manager,
        root=root,
        config=ServiceConfig(durability="always", checkpoint_on_close=False),
    )
    committed = 0
    while committed < annotations:
        step = min(batch_size, annotations - committed)
        batch = _build_batch(manager, object_ids, step, prefix=f"seed{committed}")
        service.bulk_commit(batch)
        committed += step
    return service, manager, object_ids


def _commit_latencies(service, manager, object_ids, count: int, prefix: str) -> list[float]:
    """Per-commit durable write latencies (seconds) for *count* fresh commits."""
    samples: list[float] = []
    for index, annotation in enumerate(_build_batch(manager, object_ids, count, prefix)):
        del index
        start = time.perf_counter()
        service.commit(annotation)
        samples.append(time.perf_counter() - start)
    return samples


def measure_checkpoint_stall() -> dict:
    """p99 commit latency, quiet vs. under a continuous checkpoint loop."""
    annotations, latency_commits, _ = SCALE
    root = tempfile.mkdtemp(prefix="bench-storage-stall-")
    try:
        service, manager, object_ids = _open_corpus(root, annotations)
        try:
            service.checkpoint()  # start both phases from a sealed baseline
            baseline = _commit_latencies(
                service, manager, object_ids, latency_commits, prefix="quiet"
            )
            stop = threading.Event()

            def churn() -> None:
                while not stop.is_set():
                    service.checkpoint()

            churner = threading.Thread(target=churn, name="bench-ckpt-churn", daemon=True)
            churner.start()
            try:
                during = _commit_latencies(
                    service, manager, object_ids, latency_commits, prefix="busy"
                )
            finally:
                stop.set()
                churner.join()
            checkpoints = service.statistics()["service"]["checkpoints"]
        finally:
            service.close()
    finally:
        shutil.rmtree(root, ignore_errors=True)
    baseline_p99 = percentile(baseline, 99)
    during_p99 = percentile(during, 99)
    row = {
        "workload": "write_latency_during_checkpoint",
        "corpus_annotations": annotations,
        "latency_samples": latency_commits,
        "checkpoints_completed": checkpoints,
        "p99_ratio": (during_p99 / baseline_p99) if baseline_p99 > 0 else 0.0,
        "p99_ratio_floor": STALL_P99_FACTOR,
        "p99_grace_seconds": STALL_P99_GRACE_S,
        "p99_ceiling_seconds": STALL_P99_CEILING_S,
        "ratio_floor_enforced": usable_cores() > 1,
    }
    row.update(sample_stats(baseline, prefix="baseline"))
    row.update(sample_stats(during, prefix="during"))
    return row


def measure_recovery() -> list[dict]:
    """Cold-recovery RSS and time: columnar vs. the object-graph baseline.

    Both probes run in fresh subprocesses — peak RSS is monotonic per
    process, so sharing an interpreter would let the first probe's
    high-water mark mask the second's.
    """
    annotations, _, _ = SCALE
    root = tempfile.mkdtemp(prefix="bench-storage-recovery-")
    try:
        service, _, _ = _open_corpus(root, annotations)
        service.checkpoint()
        service.close()
        rows = []
        for mode in ("object_graph", "columnar"):
            probe = subprocess_probe("benchmarks.bench_storage", "--probe", mode, root)
            rows.append(
                {
                    "workload": "cold_recovery",
                    "mode": mode,
                    "corpus_annotations": annotations,
                    "rss_bytes": probe["rss_bytes"],
                    "peak_rss_bytes": probe["peak_rss_bytes"],
                    "recovery_s": probe["recovery_s"],
                    "recovered_annotations": probe["annotations"],
                }
            )
        return rows
    finally:
        shutil.rmtree(root, ignore_errors=True)


def _probe_main(mode: str, root: str) -> int:
    """Measure one cold recovery in THIS process; print a JSON result line.

    ``rss_bytes`` is the steady-state residency with the recovered state
    still alive (post-gc): both probes pay the same transient spike parsing
    the snapshot JSON, so peak RSS would only compare parser ceilings —
    what the columnar store actually changes is what stays resident.
    """
    import gc

    if mode == "columnar":
        from repro.service import GraphittiService, ServiceConfig

        start = time.perf_counter()
        service = GraphittiService.recover(
            root, config=ServiceConfig(checkpoint_on_close=False)
        )
        count = service.statistics()["annotations"]
        recovery_s = time.perf_counter() - start
        retained = service  # keep the recovered service resident
    elif mode == "object_graph":
        payload = json.loads((Path(root) / "snapshot.json").read_text())
        start = time.perf_counter()
        manager = _object_graph(payload)
        retained = (manager, list(manager.annotations()))  # the old resident graph
        count = len(retained[1])
        recovery_s = time.perf_counter() - start
        del payload
    else:
        print(f"unknown probe mode: {mode}", file=sys.stderr)
        return 2
    gc.collect()
    result = {
        "mode": mode,
        "annotations": count,
        "recovery_s": recovery_s,
        "rss_bytes": current_rss_bytes(),
        "peak_rss_bytes": peak_rss_bytes(),
    }
    if mode == "columnar":
        retained.close()
    print(json.dumps(result))
    return 0


def _object_graph(payload: dict):
    """The object-graph baseline: a rebuild with every document built."""
    from repro.core.persistence import rebuild

    manager = rebuild(payload)
    for doc_id in manager.contents.document_ids():
        manager.contents.get(doc_id)
    return manager


def _recovery_equivalence_check() -> None:
    """Sanity: the columnar recovery serves the object-graph oracle's answers."""
    from repro.service import GraphittiService, ServiceConfig

    root = tempfile.mkdtemp(prefix="bench-storage-eq-")
    try:
        service, _, _ = _open_corpus(root, 60)
        service.checkpoint()
        service.close()
        recovered = GraphittiService.recover(
            root, config=ServiceConfig(checkpoint_on_close=False)
        )
        probe = recovered.query('SELECT contents WHERE { CONTENT CONTAINS "storage" }')
        served = (sorted(probe.annotation_ids), recovered.statistics()["annotations"])
        recovered.close()
        payload = json.loads((Path(root) / "snapshot.json").read_text())
        oracle = _object_graph(payload)
        oracle_ids = sorted(
            annotation.annotation_id for annotation in oracle.annotations()
        )
        assert served == (oracle_ids, len(oracle_ids)), (
            "columnar recovery diverged from the object-graph oracle"
        )
    finally:
        shutil.rmtree(root, ignore_errors=True)


# -- report -------------------------------------------------------------------


def report() -> tuple[str, bool]:
    _recovery_equivalence_check()
    annotations, latency_commits, batch_size = SCALE
    stall_row = measure_checkpoint_stall()
    recovery_rows = measure_recovery()
    by_mode = {row["mode"]: row for row in recovery_rows}
    rss_ok = by_mode["columnar"]["rss_bytes"] <= by_mode["object_graph"]["rss_bytes"]
    during_p99 = stall_row["during_p99_seconds"]
    ratio_budget = max(
        STALL_P99_FACTOR * stall_row["baseline_p99_seconds"], STALL_P99_GRACE_S
    )
    stall_ok = during_p99 <= STALL_P99_CEILING_S
    if stall_row["ratio_floor_enforced"]:
        stall_ok = stall_ok and during_p99 <= ratio_budget
    lines = [
        "PERF-9  columnar storage: checkpoint stalls + cold-recovery residency "
        f"({annotations} annotations{', smoke' if _SMOKE else ''})"
    ]
    widths = [32, 18, 18, 12]
    lines.append(format_row(["workload", "baseline", "candidate", "floor"], widths))
    lines.append(
        format_row(
            [
                "p99 commit (ms)",
                f"{stall_row['baseline_p99_seconds'] * 1e3:.3f}",
                f"{stall_row['during_p99_seconds'] * 1e3:.3f} (ckpt)",
                f"<= {STALL_P99_FACTOR:.0f}x",
            ],
            widths,
        )
    )
    lines.append(
        format_row(
            [
                "cold recovery RSS (MiB)",
                f"{by_mode['object_graph']['rss_bytes'] / 2**20:.1f}",
                f"{by_mode['columnar']['rss_bytes'] / 2**20:.1f}",
                "<= baseline",
            ],
            widths,
        )
    )
    lines.append(
        format_row(
            [
                "cold recovery time (s)",
                f"{by_mode['object_graph']['recovery_s']:.3f}",
                f"{by_mode['columnar']['recovery_s']:.3f}",
                "-",
            ],
            widths,
        )
    )
    path = write_results(
        "storage",
        [stall_row, *recovery_rows],
        annotations=annotations,
        latency_samples=latency_commits,
        bulk_batch_size=batch_size,
        smoke=_SMOKE,
        stall_p99_factor=STALL_P99_FACTOR,
    )
    lines.append(f"results written to {path}")
    if not stall_row["ratio_floor_enforced"]:
        lines.append(
            "note: single-core host — the 2x ratio floor is not enforced here "
            f"(measured {stall_row['p99_ratio']:.2f}x); the "
            f"{1e3 * STALL_P99_CEILING_S:.0f}ms absolute ceiling still is"
        )
    ok = True
    if not stall_ok:
        ok = False
        lines.append(
            f"FAIL: p99 commit latency during checkpoints is "
            f"{1e3 * during_p99:.1f}ms "
            f"(budget {1e3 * min(ratio_budget, STALL_P99_CEILING_S):.1f}ms; "
            f"{stall_row['p99_ratio']:.2f}x the quiet p99, floor {STALL_P99_FACTOR:.0f}x)"
        )
    if not rss_ok:
        ok = False
        lines.append(
            "FAIL: columnar cold-recovery RSS exceeds the object-graph baseline"
        )
    return "\n".join(lines), ok


if __name__ == "__main__":
    if len(sys.argv) >= 4 and sys.argv[1] == "--probe":
        raise SystemExit(_probe_main(sys.argv[2], sys.argv[3]))
    text, ok = report()
    print(text)
    raise SystemExit(0 if ok else 1)

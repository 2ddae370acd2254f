"""PERF-8: the serving layer's two fast paths, with enforced floors.

Two workloads measure what :mod:`repro.service` adds over the bare engine:

* **cached repeated queries** — the same GQL query set executed repeatedly
  through a cache-fronted service vs. one with caching disabled (both pay
  the same locking; the delta is the epoch-validated result cache).
  Floor: **>= 5x**.
* **bulk vs. sequential durable commits** — N annotations committed through
  ``bulk_commit`` (one lock acquisition, one group-committed WAL batch,
  one batch registration) vs. one ``commit`` per annotation (per-record
  fsync), on a fresh durable root each round.  Floor: **>= 2x**.

``python -m benchmarks.bench_service`` prints the table, writes
``BENCH_service.json`` via the harness, and exits non-zero below a floor.
Set ``BENCH_SMOKE=1`` for the CI-sized run (floors still apply).
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
import time

import pytest

from benchmarks._harness import format_row, sample_stats, speedup, time_samples, write_results
from repro.core.manager import Graphitti
from repro.service import GraphittiService, ServiceConfig
from repro.workloads.service_scenario import READER_QUERIES, seed_service_objects

#: Minimum acceptable speedups.
CACHE_SPEEDUP_FLOOR = 5.0
BULK_SPEEDUP_FLOOR = 2.0

_SMOKE = bool(os.environ.get("BENCH_SMOKE"))

#: (annotations in the query corpus, query repetitions, bulk-commit batch).
SCALE = (150, 20, 80) if _SMOKE else (800, 50, 300)

_KEYWORDS = ("workload", "binding", "cleavage", "regulatory", "conserved", "mutation")


def build_corpus() -> Graphitti:
    """A populated instance the repeated-query workload runs against."""
    annotation_count, _, _ = SCALE
    rng = random.Random(20240702)
    manager = Graphitti("bench-service")
    object_ids = seed_service_objects(manager)
    for index in range(annotation_count):
        object_id = object_ids[index % len(object_ids)]
        start = rng.randrange(0, 900)
        (
            manager.new_annotation(
                f"bench-{index}",
                title=f"bench annotation {index}",
                creator=f"bench-{index % 5}",
                keywords=["workload", rng.choice(_KEYWORDS)],
                body=f"benchmark annotation over {object_id}",
            )
            .mark_sequence(object_id, start, start + rng.randrange(10, 120))
            .commit()
        )
    return manager


def _run_queries(service: GraphittiService) -> int:
    total = 0
    for text in READER_QUERIES:
        total += service.query(text).count
    return total


def measure_cache() -> dict[str, float]:
    """Repeated-query latency, cache-fronted vs. cache-disabled."""
    _, repetitions, _ = SCALE
    manager = build_corpus()
    uncached = GraphittiService(manager=manager, config=ServiceConfig(cache_capacity=0))
    cached = GraphittiService(manager=manager, config=ServiceConfig())
    baseline_hits = _run_queries(uncached)
    warm_hits = _run_queries(cached)  # warm the cache once
    assert baseline_hits == warm_hits, "cached and uncached services disagree"

    def uncached_pass() -> None:
        for _ in range(repetitions):
            _run_queries(uncached)

    def cached_pass() -> None:
        for _ in range(repetitions):
            _run_queries(cached)

    uncached_samples = time_samples(uncached_pass, repeat=3)
    cached_samples = time_samples(cached_pass, repeat=3)
    uncached_seconds = min(uncached_samples)
    cached_seconds = min(cached_samples)
    row = {
        "workload": "cached_repeated_queries",
        "baseline_seconds": uncached_seconds,
        "candidate_seconds": cached_seconds,
        "speedup": speedup(uncached_seconds, cached_seconds),
        "queries_per_pass": repetitions * len(READER_QUERIES),
        "hit_rate": cached.statistics()["service"]["query_cache"]["hit_rate"],
    }
    row.update(sample_stats(uncached_samples, prefix="baseline"))
    row.update(sample_stats(cached_samples, prefix="candidate"))
    return row


def _build_batch(manager: Graphitti, object_ids: list[str], count: int) -> list:
    rng = random.Random(7)
    batch = []
    for index in range(count):
        object_id = object_ids[index % len(object_ids)]
        start = rng.randrange(0, 900)
        builder = manager.new_annotation(
            f"ingest-{index}",
            title=f"ingest annotation {index}",
            creator="ingester",
            keywords=["workload", rng.choice(_KEYWORDS)],
            body=f"bulk ingest benchmark annotation over {object_id}",
        ).mark_sequence(object_id, start, start + rng.randrange(10, 120))
        batch.append(builder.build())
    return batch


def _time_ingest(bulk: bool, rounds: int = 3) -> list[float]:
    """Wall-clock seconds per round to durably commit the batch, fresh state per round."""
    _, _, batch_size = SCALE
    samples: list[float] = []
    for _ in range(rounds):
        root = tempfile.mkdtemp(prefix="bench-service-")
        try:
            manager = Graphitti("bench-ingest")
            object_ids = seed_service_objects(manager)
            batch = _build_batch(manager, object_ids, batch_size)
            service = GraphittiService(
                manager=manager,
                root=root,
                config=ServiceConfig(durability="always", checkpoint_on_close=False),
            )
            start = time.perf_counter()
            if bulk:
                service.bulk_commit(batch)
            else:
                for annotation in batch:
                    service.commit(annotation)
            samples.append(time.perf_counter() - start)
            service.close()
        finally:
            shutil.rmtree(root, ignore_errors=True)
    return samples


def measure_bulk() -> dict[str, float]:
    """Durable ingest: one group-committed batch vs. per-annotation commits."""
    _, _, batch_size = SCALE
    sequential_samples = _time_ingest(bulk=False)
    bulk_samples = _time_ingest(bulk=True)
    sequential_seconds = min(sequential_samples)
    bulk_seconds = min(bulk_samples)
    row = {
        "workload": "bulk_commit",
        "baseline_seconds": sequential_seconds,
        "candidate_seconds": bulk_seconds,
        "speedup": speedup(sequential_seconds, bulk_seconds),
        "batch_size": batch_size,
    }
    row.update(sample_stats(sequential_samples, prefix="baseline"))
    row.update(sample_stats(bulk_samples, prefix="candidate"))
    return row


def _bulk_equivalence_check() -> None:
    """Sanity: bulk and sequential ingest produce identical served state."""
    roots = [tempfile.mkdtemp(prefix="bench-service-eq-") for _ in range(2)]
    try:
        states = []
        for bulk, root in zip((False, True), roots):
            manager = Graphitti("bench-ingest")
            object_ids = seed_service_objects(manager)
            batch = _build_batch(manager, object_ids, 40)
            service = GraphittiService(manager=manager, root=root)
            if bulk:
                service.bulk_commit(batch)
            else:
                for annotation in batch:
                    service.commit(annotation)
            probe = service.query('SELECT contents WHERE { CONTENT CONTAINS "workload" }')
            stats = service.statistics()
            states.append((sorted(probe.annotation_ids), stats["annotations"], stats["referents"]))
            service.close()
        assert states[0] == states[1], "bulk commit changed the served state"
    finally:
        for root in roots:
            shutil.rmtree(root, ignore_errors=True)


# -- pytest-benchmark entry points --------------------------------------------


@pytest.fixture(scope="module")
def corpus_services():
    manager = build_corpus()
    uncached = GraphittiService(manager=manager, config=ServiceConfig(cache_capacity=0))
    cached = GraphittiService(manager=manager, config=ServiceConfig())
    _run_queries(cached)
    return uncached, cached


def test_uncached_queries(benchmark, corpus_services):
    uncached, _ = corpus_services
    benchmark(lambda: _run_queries(uncached))


def test_cached_queries(benchmark, corpus_services):
    _, cached = corpus_services
    benchmark(lambda: _run_queries(cached))


# -- report -------------------------------------------------------------------


def report() -> tuple[str, bool]:
    _bulk_equivalence_check()
    annotation_count, repetitions, batch_size = SCALE
    cache_row = measure_cache()
    bulk_row = measure_bulk()
    floors = {
        "cached_repeated_queries": CACHE_SPEEDUP_FLOOR,
        "bulk_commit": BULK_SPEEDUP_FLOOR,
    }
    lines = [
        "PERF-8  serving layer: result cache + group-committed bulk ingest "
        f"({annotation_count} annotations, {batch_size}-annotation batches"
        f"{', smoke' if _SMOKE else ''})"
    ]
    widths = [26, 16, 16, 10, 8]
    lines.append(
        format_row(["workload", "baseline (ms)", "service (ms)", "speedup", "floor"], widths)
    )
    ok = True
    for row in (cache_row, bulk_row):
        floor = floors[row["workload"]]
        ok = ok and row["speedup"] >= floor
        row["speedup_floor"] = floor
        lines.append(
            format_row(
                [
                    row["workload"],
                    f"{row['baseline_seconds'] * 1e3:.3f}",
                    f"{row['candidate_seconds'] * 1e3:.3f}",
                    f"{row['speedup']:.1f}x",
                    f"{floor:.0f}x",
                ],
                widths,
            )
        )
    path = write_results(
        "service",
        [cache_row, bulk_row],
        annotations=annotation_count,
        query_repetitions=repetitions,
        bulk_batch_size=batch_size,
        smoke=_SMOKE,
        cache_speedup_floor=CACHE_SPEEDUP_FLOOR,
        bulk_speedup_floor=BULK_SPEEDUP_FLOOR,
    )
    lines.append(f"results written to {path}")
    if not ok:
        lines.append("FAIL: at least one workload is below its speedup floor")
    return "\n".join(lines), ok


if __name__ == "__main__":
    text, ok = report()
    print(text)
    raise SystemExit(0 if ok else 1)

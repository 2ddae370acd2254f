"""PERF-10: observability overhead on the cached-query fast path, with a gate.

The ``repro.obs`` layer (metrics registry + span tracing + slow-op log) is
threaded through every query.  Its design contract is near-zero cost on the
hottest path — a cache-hit query records nothing: no span, no counter
(``metrics()`` reads the hit count off the result cache).  This benchmark
enforces that contract: the same warmed cached-query pass through a service
with observability **enabled** vs. **disabled** must differ by less than
:data:`OVERHEAD_GATE` (10%).

Two export-surface assertions ride along so CI fails loudly if either
regresses:

* ``service.metrics()`` must render through
  :func:`repro.obs.render_prometheus` with histogram/counter series present;
* the written ``BENCH_observability.json`` row must carry the
  ``*_p99_seconds`` percentile keys the harness now emits for every bench.

Measurement is paired: each round times one disabled and one enabled
pass back to back (the order flips every round, so neither side always runs
second) and keeps their ratio; the overhead is the median of those
per-round ratios.  Drift between rounds cancels inside each pair, and the
median ignores the odd round a scheduler hiccup lands in, where comparing
two best-of minima measures the host more than the code.  Up to
:data:`MAX_BATCHES` batches of :data:`ROUNDS_PER_BATCH` rounds are taken,
the median over every round so far deciding after each batch.

``python -m benchmarks.bench_observability`` prints the table, writes
``BENCH_observability.json``, and exits non-zero over the gate.  Set
``BENCH_SMOKE=1`` for the CI-sized run (the gate still applies).
"""

from __future__ import annotations

import os
import random

from benchmarks._harness import format_row, percentile, sample_stats, time_samples, write_results
from repro.core.manager import Graphitti
from repro.obs import ObservabilityConfig, render_prometheus
from repro.service import GraphittiService, ServiceConfig
from repro.workloads.service_scenario import READER_QUERIES, seed_service_objects

#: Maximum acceptable enabled-over-disabled slowdown on the cached path.
OVERHEAD_GATE = 0.10

_SMOKE = bool(os.environ.get("BENCH_SMOKE"))

#: (annotations in the corpus, cached-query passes per sample).
SCALE = (150, 24) if _SMOKE else (400, 40)

#: Paired enabled/disabled rounds per batch, and retry batches.
ROUNDS_PER_BATCH = 101
MAX_BATCHES = 4

_KEYWORDS = ("workload", "binding", "cleavage", "regulatory", "conserved")


def build_corpus() -> Graphitti:
    annotation_count, _ = SCALE
    rng = random.Random(20260808)
    manager = Graphitti("bench-obs")
    object_ids = seed_service_objects(manager)
    for index in range(annotation_count):
        object_id = object_ids[index % len(object_ids)]
        start = rng.randrange(0, 900)
        (
            manager.new_annotation(
                f"obs-{index}",
                title=f"obs annotation {index}",
                creator=f"bench-{index % 5}",
                keywords=["workload", rng.choice(_KEYWORDS)],
                body=f"observability benchmark annotation over {object_id}",
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


def _check_export_surfaces(service: GraphittiService) -> dict:
    """The metrics endpoint must actually render; returns the snapshot."""
    snapshot = service.metrics()
    assert snapshot.get("enabled"), "enabled service reports observability off"
    assert "span.query" in snapshot.get("histograms", {}), (
        "query spans missing from the metrics registry"
    )
    assert "p99" in snapshot["histograms"]["span.query"], "histogram lacks p99"
    text = render_prometheus(snapshot)
    assert "# TYPE" in text and "repro_span_query" in text.replace(".", "_"), (
        "Prometheus rendering lost the span histograms"
    )
    return snapshot


def measure() -> dict[str, float]:
    """Cached-pass latency, observability on vs. off, and the median of
    the per-round on/off ratios."""
    _, passes = SCALE
    manager = build_corpus()
    enabled = GraphittiService(
        manager=manager,
        config=ServiceConfig(observability=ObservabilityConfig(enabled=True)),
    )
    disabled = GraphittiService(
        manager=manager,
        config=ServiceConfig(observability=ObservabilityConfig(enabled=False)),
    )
    baseline_hits = _run_queries(disabled)  # warm both caches once
    assert _run_queries(enabled) == baseline_hits, "observability changed results"
    assert disabled.metrics() == {"enabled": False}, "disabled service leaks metrics"

    def enabled_pass() -> None:
        for _ in range(passes):
            _run_queries(enabled)

    def disabled_pass() -> None:
        for _ in range(passes):
            _run_queries(disabled)

    enabled_samples: list[float] = []
    disabled_samples: list[float] = []
    ratios: list[float] = []
    overhead = float("inf")
    for _ in range(MAX_BATCHES):
        for _ in range(ROUNDS_PER_BATCH):
            if len(ratios) % 2:
                [on] = time_samples(enabled_pass, repeat=1)
                [off] = time_samples(disabled_pass, repeat=1)
            else:
                [off] = time_samples(disabled_pass, repeat=1)
                [on] = time_samples(enabled_pass, repeat=1)
            disabled_samples.append(off)
            enabled_samples.append(on)
            ratios.append(on / off)
        overhead = percentile(ratios, 50) - 1.0
        if overhead < OVERHEAD_GATE:
            break

    snapshot = _check_export_surfaces(enabled)
    row = {
        "workload": "cached_query_overhead",
        "baseline_seconds": min(disabled_samples),
        "candidate_seconds": min(enabled_samples),
        "overhead": overhead,
        "overhead_rounds": len(ratios),
        "overhead_gate": OVERHEAD_GATE,
        "queries_per_pass": passes * len(READER_QUERIES),
        "spans_recorded": snapshot["histograms"]["span.query"]["count"],
    }
    row.update(sample_stats(disabled_samples, prefix="baseline"))
    row.update(sample_stats(enabled_samples, prefix="candidate"))
    return row


def test_cached_query_overhead_under_gate():
    row = measure()
    assert row["overhead"] < OVERHEAD_GATE


def report() -> tuple[str, bool]:
    annotation_count, passes = SCALE
    row = measure()
    ok = row["overhead"] < OVERHEAD_GATE
    widths = [24, 14, 14, 10, 8]
    lines = [
        "PERF-10  observability overhead on the cached-query path "
        f"({annotation_count} annotations, {passes} passes/sample"
        f"{', smoke' if _SMOKE else ''})",
        format_row(["workload", "off (ms)", "on (ms)", "overhead", "gate"], widths),
        format_row(
            [
                row["workload"],
                f"{row['baseline_seconds'] * 1e3:.3f}",
                f"{row['candidate_seconds'] * 1e3:.3f}",
                f"{row['overhead']:+.1%}",
                f"<{OVERHEAD_GATE:.0%}",
            ],
            widths,
        ),
    ]
    path = write_results(
        "observability",
        [row],
        annotations=annotation_count,
        smoke=_SMOKE,
        overhead_gate=OVERHEAD_GATE,
    )
    for key in ("baseline_p99_seconds", "candidate_p99_seconds"):
        assert key in row, f"percentile key {key} missing from the results row"
    lines.append(f"results written to {path}")
    if not ok:
        lines.append(
            f"FAIL: enabled observability costs {row['overhead']:+.1%} on the "
            f"cached-query path (gate <{OVERHEAD_GATE:.0%})"
        )
    return "\n".join(lines), ok


if __name__ == "__main__":
    text, ok = report()
    print(text)
    raise SystemExit(0 if ok else 1)

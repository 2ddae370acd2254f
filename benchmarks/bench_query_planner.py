"""PERF-6 / Q-2: the stats-driven adaptive planner on skewed cardinalities.

One low-selectivity keyword (matching ~90% of a >=10k-annotation corpus)
conjoined with one high-selectivity spatial window (matching a handful).
The baseline is the in-bench reference the old constant-table planner ran
for exactly this query: materialize the keyword's ~10k-row match set
(``search_by_keyword``), materialize the window's
(``search_by_overlap_interval``), intersect.  The planner measures both
cardinalities, runs the window first, and **semi-join probes** the
surviving candidates against the keyword index.  Floor: **>= 3x**, with
identical ids.

``python -m benchmarks.bench_query_planner`` prints the table, writes
``BENCH_query_planner.json`` via the harness, and exits non-zero below the
floor (the CI benchmark job runs exactly that).
"""

from __future__ import annotations

import random

import pytest

from benchmarks._harness import (
    format_row,
    sample_stats,
    speedup,
    time_samples,
    write_results,
)
from repro import Graphitti
from repro.datatypes import DnaSequence
from repro.query.builder import QueryBuilder
from repro.workloads.generators import WorkloadConfig, generate_annotation_workload

SIZES = (200, 1000, 3000)

#: Minimum acceptable speedup of the adaptive pipeline over the
#: materialize-and-intersect reference on the skewed workload.
ADAPTIVE_SPEEDUP_FLOOR = 3.0

#: Skewed-workload scale (>= 10k annotations per the acceptance criteria).
SKEW_ANNOTATIONS = 12_000
#: Fraction of the corpus carrying the low-selectivity keyword.
SKEW_KEYWORD_FRACTION = 0.9
#: The selective window: only annotations marking [0, _WINDOW_END] match.
_WINDOW_END = 400
_DOMAIN = "genome:chrB"


def _make_graphitti(annotation_count: int) -> Graphitti:
    g = Graphitti("planner-bench")
    config = WorkloadConfig(
        seed=6,
        sequence_count=20,
        annotation_count=annotation_count,
        image_count=5,
        regions_per_image=30,
    )
    generate_annotation_workload(g, config)
    return g


def _query():
    # A selective keyword + a broad type constraint: ordering matters.
    return (
        QueryBuilder.contents()
        .of_type("dna_sequence")
        .contains("epitope")
        .build()
    )


def build_skewed_corpus(annotation_count: int = SKEW_ANNOTATIONS) -> Graphitti:
    """A corpus where the keyword is broad and the spatial window is narrow.

    ~90% of annotations contain the keyword ``ubiquitous`` but mark intervals
    far from the query window; only ~0.2% mark inside ``[0, 400]``.  The
    per-class constant table cannot see that skew — the live statistics can.
    """
    rng = random.Random(20260726)
    manager = Graphitti("planner-skew")
    length = 500_000
    manager.register(DnaSequence("chrB", "ACGT" * (length // 4), domain=_DOMAIN))
    window_members = max(annotation_count // 500, 8)
    batch = []
    for index in range(annotation_count):
        in_window = index < window_members
        has_keyword = rng.random() < SKEW_KEYWORD_FRACTION or in_window
        if in_window:
            start = rng.randrange(0, _WINDOW_END - 50)
        else:
            start = rng.randrange(_WINDOW_END + 100, length - 200)
        keywords = ["ubiquitous"] if has_keyword else ["rare"]
        builder = manager.new_annotation(
            f"skew-{index:06d}",
            title=f"skew annotation {index}",
            keywords=keywords,
            body=f"annotation {index} is {'ubiquitous' if has_keyword else 'rare'} text",
        ).mark_sequence("chrB", start, start + rng.randrange(20, 120))
        batch.append(builder.build())
    manager.commit_many(batch)
    return manager


def skewed_query():
    return (
        QueryBuilder.contents()
        .contains("ubiquitous")
        .overlaps_interval(_DOMAIN, 0, _WINDOW_END)
        .build()
    )


def skewed_reference(manager: Graphitti) -> list[str]:
    """Materialize both match sets and intersect: no planner, no probes."""
    keyword = set(manager.search_by_keyword("ubiquitous"))
    window = set(manager.search_by_overlap_interval(_DOMAIN, 0, _WINDOW_END))
    return sorted(keyword & window)


def measure_skewed() -> dict[str, float]:
    """Skewed conjunction: materialize-and-intersect reference vs. adaptive."""
    manager = build_skewed_corpus()
    query = skewed_query()
    adaptive_result = manager.query(query)
    assert adaptive_result.annotation_ids == skewed_reference(manager), (
        "adaptive pipeline and reference disagree"
    )
    probe_steps = [d for d in adaptive_result.step_details if d["mode"] == "probe"]
    reference_samples = time_samples(lambda: skewed_reference(manager), repeat=5)
    adaptive_samples = time_samples(lambda: manager.query(query), repeat=5)
    reference_seconds = min(reference_samples)
    adaptive_seconds = min(adaptive_samples)
    row = {
        "workload": "skewed_cardinalities",
        "annotations": SKEW_ANNOTATIONS,
        "matches": len(adaptive_result.annotation_ids),
        "baseline_seconds": reference_seconds,
        "candidate_seconds": adaptive_seconds,
        "speedup": speedup(reference_seconds, adaptive_seconds),
        "probe_steps": len(probe_steps),
        "speedup_floor": ADAPTIVE_SPEEDUP_FLOOR,
    }
    row.update(sample_stats(reference_samples, prefix="baseline"))
    row.update(sample_stats(adaptive_samples, prefix="candidate"))
    return row


# -- pytest-benchmark entry points --------------------------------------------


@pytest.mark.parametrize("size", SIZES)
def test_query(benchmark, size):
    g = _make_graphitti(size)
    query = _query()
    benchmark(lambda: g.query(query))


@pytest.fixture(scope="module")
def skewed_corpus():
    return build_skewed_corpus()


def test_skewed_reference(benchmark, skewed_corpus):
    benchmark(lambda: skewed_reference(skewed_corpus))


def test_skewed_adaptive(benchmark, skewed_corpus):
    query = skewed_query()
    benchmark(lambda: skewed_corpus.query(query))


# -- report -------------------------------------------------------------------


def report() -> tuple[str, bool]:
    lines = ["PERF-6  query planner: stats-driven adaptivity on skewed cardinalities"]
    skew_row = measure_skewed()
    lines.append(
        f"skewed cardinalities ({skew_row['annotations']} annotations, "
        f"{skew_row['matches']} matches, {skew_row['probe_steps']} probe step(s))"
    )
    widths = [24, 16, 16, 10, 8]
    lines.append(format_row(["workload", "reference (ms)", "adaptive (ms)", "speedup", "floor"], widths))
    lines.append(
        format_row(
            [
                skew_row["workload"],
                f"{skew_row['baseline_seconds'] * 1e3:.3f}",
                f"{skew_row['candidate_seconds'] * 1e3:.3f}",
                f"{skew_row['speedup']:.1f}x",
                f"{ADAPTIVE_SPEEDUP_FLOOR:.0f}x",
            ],
            widths,
        )
    )
    ok = skew_row["speedup"] >= ADAPTIVE_SPEEDUP_FLOOR
    path = write_results(
        "query_planner",
        [skew_row],
        skew_annotations=SKEW_ANNOTATIONS,
        skew_keyword_fraction=SKEW_KEYWORD_FRACTION,
        adaptive_speedup_floor=ADAPTIVE_SPEEDUP_FLOOR,
    )
    lines.append(f"results written to {path}")
    if not ok:
        lines.append("FAIL: adaptive pipeline is below its speedup floor")
    return "\n".join(lines), ok


if __name__ == "__main__":
    text, ok = report()
    print(text)
    raise SystemExit(0 if ok else 1)

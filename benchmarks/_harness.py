"""Shared measurement helpers for the benchmark report() functions.

``pytest-benchmark`` drives the ``test_*`` functions; the ``report()``
functions use :func:`time_samples` so EXPERIMENTS.md can be regenerated with a
plain ``python -m benchmarks.bench_x`` invocation that does not depend on the
pytest-benchmark plugin.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable


def time_samples(fn: Callable, repeat: int = 5, number: int = 1) -> list[float]:
    """Per-round mean per-call times (seconds), one sample per round.

    The raw samples are what percentile reporting needs: the *best* round
    tracks the code's floor, while
    p50/p95/p99 of the rounds expose the latency tail a mean hides — the
    reason the known small-corpus planner regression went unnoticed.
    """
    samples: list[float] = []
    for _ in range(repeat):
        start = time.perf_counter()
        for _ in range(number):
            fn()
        samples.append((time.perf_counter() - start) / number)
    return samples


def percentile(samples: list[float], q: float) -> float:
    """The *q*-th percentile (0..100) of *samples*, linearly interpolated."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    fraction = rank - low
    return ordered[low] + fraction * (ordered[high] - ordered[low])


def sample_stats(samples: list[float], prefix: str = "") -> dict[str, float]:
    """Summary keys for one measurement's samples: best/mean/p50/p95/p99.

    With *prefix* (e.g. ``"candidate"``) the keys become
    ``candidate_p50_seconds`` etc., ready to merge into an existing result
    row without renaming the keys CI floors already read.
    """
    stats = {
        "best_seconds": min(samples) if samples else 0.0,
        "mean_seconds": (sum(samples) / len(samples)) if samples else 0.0,
        "p50_seconds": percentile(samples, 50),
        "p95_seconds": percentile(samples, 95),
        "p99_seconds": percentile(samples, 99),
    }
    if prefix:
        return {f"{prefix}_{key}": value for key, value in stats.items()}
    return stats


def speedup(baseline_seconds: float, candidate_seconds: float) -> float:
    """Speed-up factor of candidate over baseline (guards divide-by-zero)."""
    if candidate_seconds <= 0:
        return float("inf")
    return baseline_seconds / candidate_seconds


def peak_rss_bytes() -> int:
    """Peak resident-set size of this process so far, in bytes.

    ``ru_maxrss`` is kibibytes on Linux and bytes on macOS; normalising here
    keeps the ``rss_bytes`` keys in BENCH files comparable across platforms.
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        return int(peak)
    return int(peak) * 1024


def current_rss_bytes() -> int:
    """Resident-set size of this process right now, in bytes.

    Unlike :func:`peak_rss_bytes` this is not monotonic: transient spikes
    (e.g. parsing a whole snapshot into one dict) fall back out of it, so
    it is the number that answers "what does this process cost to keep
    running" — measure it after the transient work, ideally post-gc.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except OSError:  # pragma: no cover - non-Linux platform
        pass
    return peak_rss_bytes()  # pragma: no cover - non-Linux fallback


def subprocess_probe(module: str, *args: str, env: dict[str, str] | None = None) -> dict[str, Any]:
    """Run ``python -m module args...`` and parse its last stdout line as JSON.

    Memory measurements demand a fresh process: peak RSS is monotonic, so a
    probe that ran after a bigger workload in the same interpreter would
    inherit its high-water mark.  The probe prints a single JSON object as
    its final line; everything before it is free-form progress output.
    """
    merged = dict(os.environ)
    merged["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    if env:
        merged.update(env)
    completed = subprocess.run(
        [sys.executable, "-m", module, *args],
        capture_output=True,
        text=True,
        env=merged,
        check=True,
    )
    lines = [line for line in completed.stdout.splitlines() if line.strip()]
    if not lines:
        raise RuntimeError(f"probe {module} produced no output: {completed.stderr}")
    return json.loads(lines[-1])


def measure_recovery(open_fn: Callable[[], Any]) -> tuple[Any, float]:
    """Time a cold open/recovery; returns ``(opened, seconds)``."""
    start = time.perf_counter()
    opened = open_fn()
    return opened, time.perf_counter() - start


def usable_cores() -> int:
    """Cores this process may run on (its affinity mask, where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def format_row(values, widths) -> str:
    """Format a table row with fixed column widths."""
    cells = []
    for value, width in zip(values, widths):
        cells.append(str(value).ljust(width))
    return "  ".join(cells)


def results_dir() -> Path:
    """Directory machine-readable results are written to.

    Defaults to ``benchmarks/results/`` next to this file; override with the
    ``BENCH_RESULTS_DIR`` environment variable (CI points it at a workspace
    artifact path).
    """
    configured = os.environ.get("BENCH_RESULTS_DIR")
    base = Path(configured) if configured else Path(__file__).parent / "results"
    base.mkdir(parents=True, exist_ok=True)
    return base


def write_results(name: str, rows: list[dict[str, Any]], **metadata: Any) -> Path:
    """Write one benchmark's results as machine-readable ``BENCH_<name>.json``.

    *rows* is a list of flat dicts (one measurement each, times in seconds).
    The file is what tracks the performance trajectory across PRs: each CI
    run uploads it, and any regression shows up as a diff of numbers rather
    than of prose.  The host (usable cores, platform string) is recorded
    with every result, since a floor read on one core means something else
    on eight.  Returns the path written.
    """
    payload = {
        "benchmark": name,
        "unit": "seconds",
        "cores": usable_cores(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "rows": rows,
    }
    payload.update(metadata)
    path = results_dir() / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n")
    return path

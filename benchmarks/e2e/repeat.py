"""Repeatability of the benchmark: run it N times, compare the runs.

``python3 benchmarks/e2e/repeat.py [--runs 10]`` runs every workload *runs*
times with the one committed seed, each run in a fresh interpreter, and
writes ``results/repeatability.json``: per workload and end-to-end metric the
min / quartiles / max, the interquartile and full range as shares of the
median, the same of the raw un-normalised twin, and the gap between the
medians of two sets of the runs (alternating runs, and first half against
second).  It fails if, for any end-to-end metric of any workload,

* the two-set median gap exceeds the metric's bound, or
* (max - min) / median exceeds twice the bound, or
* an exact count (``wal_bytes_per_write``, ``disk_bytes_per_annotation``)
  differs between two runs at all (on ``net`` by more than 0.02: its
  announce files carry ports and pids).

``--distinct-seeds`` gives run *i* the seed ``base + i`` and applies the
accepting driver's rule instead (writing ``results/repeatability_seeds.json``):
the interquartile range over the median, ``statistics.quantiles(n=4)``, must
stay within the bound on every metric but ``setup_s`` (which the driver
exempts from this half of its rule), and the second half's median may not be
worse than the first half's by more than the bound on any metric.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
for entry in (str(REPO / "src"), str(REPO)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks.e2e.driver import WORKLOADS  # noqa: E402
from benchmarks.e2e.metrics import END_TO_END, EXACT  # noqa: E402
from benchmarks.e2e.run import DEFAULT_SECONDS, DEFAULT_SEED, host_facts  # noqa: E402

_RAW = re.compile(r"^(\w+)/(\w+)\s+\S+ \S+\s+\(raw (\S+)\)$")


def one_run(workload: str, seed: int, seconds: int) -> tuple[dict[str, float], dict[str, float]]:
    """(normalised values, raw timing values) of one fresh-interpreter run."""
    done = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
        ],
        capture_output=True,
        text=True,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: failed\n{done.stdout}\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    values = {name: entry["value"] for name, entry in result["metrics"].items()}
    raw = {m.group(2): float(m.group(3)) for m in map(_RAW.match, lines) if m}
    return values, raw


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    first, _second, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def full_range(values: list[float]) -> float:
    return (max(values) - min(values)) / statistics.median(values)


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse *second* is than *first*, as a share of *first*."""
    change = (second - first) / first
    return change if better == "lower" else -change


def summarise(
    workload: str, runs: list[dict[str, float]], raws: list[dict[str, float]], distinct_seeds: bool
) -> tuple[dict, list[str]]:
    """Per-metric statistics of one workload's runs, and the rules broken."""
    table: dict[str, dict] = {}
    broken: list[str] = []
    for name, (unit, better, bound) in END_TO_END.items():
        values = [run[name] for run in runs]
        quartiles = statistics.quantiles(values, n=4)
        # Two ways to cut the runs in two: alternating (drift lands on both
        # sets alike) and first half against second (it does not: this is what
        # two sets run one after the other see).
        halves = [statistics.median(values[0::2]), statistics.median(values[1::2])]
        middle = len(values) // 2
        ends = [statistics.median(values[:middle]), statistics.median(values[middle:])]
        row = {
            "unit": unit,
            "bound": bound,
            "min": min(values),
            "q1": quartiles[0],
            "median": quartiles[1],
            "q3": quartiles[2],
            "max": max(values),
            "spread": spread(values),
            "range": full_range(values),
            "set_medians": halves,
            "set_gap": abs(worse_by(halves[0], halves[1], better)),
            "half_medians": ends,
            "half_worse": worse_by(ends[0], ends[1], better),
            "values": values,
        }
        if all(name in raw for raw in raws):
            twin = [raw[name] for raw in raws]
            row["raw_spread"] = spread(twin)
            row["raw_range"] = full_range(twin)
        table[name] = row
        if distinct_seeds:
            if name != "setup_s" and row["spread"] > bound:
                broken.append(f"{name}: spread {row['spread']:.3f} > bound {bound}")
            if row["half_worse"] > bound:
                broken.append(f"{name}: second half worse by {row['half_worse']:.3f} > bound {bound}")
            continue
        if row["set_gap"] > bound:
            broken.append(f"{name}: two-set gap {row['set_gap']:.3f} > bound {bound}")
        if row["range"] > 2 * bound:
            broken.append(f"{name}: range {row['range']:.3f} > twice the bound {bound}")
        if name in EXACT and row["range"] > (0.02 if workload == "net" else 0.0):
            broken.append(f"{name}: an exact count differs between runs of one seed ({row['range']:.2g})")
    return table, broken


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--distinct-seeds", action="store_true")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    names = args.workload or list(WORKLOADS)
    seeds = [args.seed + (index if args.distinct_seeds else 0) for index in range(args.runs)]
    collected: dict[str, tuple[list, list]] = {name: ([], []) for name in names}
    started = time.time()
    # Interleaved: run i of every workload before run i+1 of any, so slow host
    # drift lands on all workloads and both alternating sets alike.
    for index, seed in enumerate(seeds):
        for name in names:
            values, raw = one_run(name, seed, DEFAULT_SECONDS)
            collected[name][0].append(values)
            collected[name][1].append(raw)
            print(f"run {index + 1}/{args.runs} {name}: " + " ".join(
                f"{key}={value:.5g}" for key, value in values.items()
            ), flush=True)
    report = {
        "host": host_facts(),
        "rule": "accepting driver's (distinct seeds)" if args.distinct_seeds else "issue 13's (one seed)",
        "seeds": seeds,
        "seconds": DEFAULT_SECONDS,
        "wall_s": round(time.time() - started, 1),
        "workloads": {},
    }
    failures: list[str] = []
    for name in names:
        table, broken = summarise(name, *collected[name], args.distinct_seeds)
        report["workloads"][name] = table
        failures += [f"{name}/{line}" for line in broken]
        for metric, row in table.items():
            raw = f" (raw {row['raw_spread']:.3f}/{row['raw_range']:.3f})" if "raw_spread" in row else ""
            print(
                f"{name}/{metric:<28} median {row['median']:>12.6g} {row['unit']:<4} "
                f"iqr/range {row['spread']:.3f}/{row['range']:.3f}{raw}  set gap {row['set_gap']:.3f}  "
                f"2nd half worse {row['half_worse']:+.3f}  bound {row['bound']}"
            )
    report["failures"] = failures
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    out = results / ("repeatability_seeds.json" if args.distinct_seeds else "repeatability.json")
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for line in failures:
        print(f"OUT OF BOUND {line}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

"""The repo's one benchmark: ``python3 benchmarks/e2e/run.py``.

Without ``--workload`` every workload runs, each in its own fresh
interpreter, in fixed order; every metric is printed by name with its unit
and the command exits non-zero if any answer was wrong.  With ``--workload``
one workload runs in this process and the last line of standard output is
one JSON object (``correct``, ``attempted``, ``failed``, ``metrics``):
end-to-end metrics untraced, per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
for entry in (str(REPO / "src"), str(REPO)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks.e2e import calibrate, metrics, trace  # noqa: E402
from benchmarks.e2e.corpus import FULL  # noqa: E402
from benchmarks.e2e.driver import WORKLOADS, make_plan, run_workload  # noqa: E402
from benchmarks.e2e.oracle import verify  # noqa: E402

DEFAULT_SEED = 20080407
DEFAULT_SECONDS = 10
#: Share of the op count the traced run replays (untraced, then traced).
TRACE_SHARE = 1 / 3


def _filesystem(path: Path) -> str:
    """Filesystem type holding *path* (longest mount-point prefix)."""
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as handle:
            for line in handle:
                _device, mount, fstype = line.split()[:3]
                if str(path).startswith(mount) and len(mount) > len(best):
                    best, kind = mount, fstype
    except OSError:
        pass
    return kind


def _git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def host_facts() -> dict:
    """The stamp every output carries (the host's half; a run adds its own)."""
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "flush_policy": "ServiceConfig(durability='always'): fsync per WAL record",
        "observability": "repro.obs disabled",
        "ref_s": calibrate.REF_S,
        "commit": _git_commit(),
    }


def run_one(name: str, seed: int, seconds: int, traced: bool) -> dict:
    """Run workload *name* in this process; returns the result object."""
    workload = WORKLOADS[name]
    work_dir = HERE / ".work" / f"{name}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        op_count = workload.ops_per_second * seconds * (TRACE_SHARE if traced else 1.0)
        plan = make_plan(workload, seed, round(op_count), FULL)
        print(f"# {name}: {workload.why}")
        facts = host_facts() | {
            "annotations": FULL.annotations,
            "ops": len(plan.ops),
            "warmup_ops": len(plan.warmup),
            "blocks": FULL.blocks,
            "seed": seed,
            "data_root": str(work_dir.relative_to(REPO)),
            "data_root_fs": _filesystem(work_dir),
        }
        print("# host " + json.dumps(facts, sort_keys=True))
        if not traced:
            run = run_workload(plan, work_dir)
            verdict = verify(run)
            values = metrics.end_to_end(run, verdict)
            table = {key: unit for key, (unit, _better, _bound) in metrics.END_TO_END.items()}
            raw = metrics.raw_timings(run)
            extra = metrics.driver_layer(run)
        else:
            tracer, run, untraced = trace.traced_run(plan, work_dir)
            untraced.close()
            verdict = verify(run, thread_workers=True)
            values = trace.per_layer(tracer, run, untraced)
            table = {key: unit for key, (unit, _better) in metrics.per_layer_table().items()}
            raw, extra = {}, {}
            results = HERE / "results"
            results.mkdir(exist_ok=True)
            tracer.dump(results / f"trace_{name}.json", name, seed)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for key, value in values.items():
        suffix = f"   (raw {raw[key]:.6g})" if key in raw else ""
        print(f"{name}/{key:<40} {value:>14.6g} {table[key]}{suffix}")
    for key, value in extra.items():
        print(f"{name}/{key:<40} {value:>14.6g} {metrics.LAYER_EXTRAS[key][0]}   (un-gated)")
    series = [round(block.kernel_s * 1e3, 3) for block in run.phase.blocks]
    print(
        f"# {name}: calibration kernel, mean ms per block "
        f"({len(run.phase.repetitions)} repetitions): {series}"
    )
    for label, times in (("set-ups", run.setups), ("recoveries", run.recoveries)):
        each = ", ".join(f"{timed.seconds:.4f} (raw {timed.raw_seconds:.4f})" for timed in times)
        print(f"# {name}: {label}, s: {each}")
    for problem in verdict.problems:
        print(f"# {name}: WRONG: {problem}")
    attempted = len(run.phase.executed)
    failed = min(attempted, len(verdict.problems))
    return {
        "correct": not verdict.problems and run.warmup_failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": table[key]} for key, value in values.items()},
    }


def run_all(seed: int, seconds: int, traced: bool) -> int:
    """Every workload, each in a fresh interpreter, in fixed order."""
    wrong = 0
    for name in WORKLOADS:
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(int(traced)),
        ]
        done = subprocess.run(command, capture_output=True, text=True)
        sys.stdout.write(done.stdout)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            reason = (done.stderr.strip().splitlines() or ["no reason given"])[-1]
            print(f"# {name}: skipped -- the workload could not run: {reason}")
            wrong += 1
            continue
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            wrong += 1
    return 1 if wrong else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args.seed, args.seconds, bool(args.trace))
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

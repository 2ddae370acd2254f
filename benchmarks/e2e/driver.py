"""The closed-loop driver: one client, one thread, four workloads.

A workload run is: set the deployment up (open, register, bulk ingest, first
checkpoint, warm-up), run a fixed list of operations cut into equal blocks
with the calibration kernel run between the operations, close, recover three
times, then hand the deployment and the executed operations to the oracle.
Work is a fixed op *count* derived from ``--seconds`` through a committed
per-workload rate, so byte and call counts repeat exactly for a seed; every
timing is corrected by the speed factor of the few hundredths of a second it
fell in, computed per block, and the run reports the median over blocks.
"""

from __future__ import annotations

import gc
import math
import os
import random
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.errors import GraphittiError
from repro.net import NetworkShardedGraphittiService
from repro.obs import ObservabilityConfig
from repro.service.durability import WAL_FILE
from repro.service.service import GraphittiService, ServiceConfig
from repro.service.wal import sealed_segment_paths
from repro.shard.router import shard_dir_name

from benchmarks.e2e.calibrate import Yardstick
from benchmarks.e2e.corpus import (
    CORPUS_SEED,
    DECK,
    DELETE,
    READ,
    WRITE,
    Corpus,
    Scale,
    Schedule,
    zipf_reads,
)

#: Shards of the network deployment.
NET_SHARDS = 2

#: Set-ups timed per untraced run; ``setup_s`` is their median.
SETUPS = 3

#: Recoveries timed after the phase; ``recover_s`` is the one that was fastest
#: as measured, at reference speed.  Not their median: a quarter of ``net``'s
#: recoveries take 0.9 s instead of 0.45 s because both worker processes stall
#: while they start (the sandbox, not Graphitti), which captures a median of
#: three in one run out of six; in process the two differ by nothing (a warm
#: process's recoveries get slower by a few percent from first to third).
RECOVERIES = 3

#: Query texts in the ``browse``/``churn`` pool (fits the 256-entry result
#: cache and the 512-entry plan memo four times over).
POOL_SIZE = 64


@dataclass(frozen=True)
class Workload:
    """One traffic mix against one deployment."""

    name: str
    why: str
    #: "service" (bare GraphittiService) or "net" (process-per-shard workers).
    deployment: str
    #: One write per this many ops (20 -> 95/5, 2 -> 50/50).
    write_every: int
    #: "pool" draws Zipf(1.1) from POOL_SIZE texts; "distinct" never repeats.
    reads: str
    #: RNG stream of the op schedule (``net`` replays a prefix of ``adhoc``'s).
    stream: str
    #: Ops per second of ``--seconds``: work is a count, never a duration.
    #: Fixed once on the defining host so that the timed phase lasts about
    #: ``--seconds`` there (``net`` 8 s of 10: each of the eight times a run
    #: closes its worker processes takes 2.3 s, and the accepting driver
    #: budgets the whole run, not the phase), and so that ``net``, with the
    #: fewest writes, runs whole decks of 20 of them.
    ops_per_second: int
    #: Background checkpoints that must complete inside the phase (0: none).
    checkpoints: int = 0


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="browse",
            why="95/5 mix, reads Zipf(1.1) over 64 texts: the result cache and plan memo "
            "do the work and every write empties them; only here does a cache change show",
            deployment="service",
            write_every=20,
            reads="pool",
            stream="browse",
            ops_per_second=1680,
        ),
        Workload(
            name="adhoc",
            why="same 95/5 mix, every query text distinct: parse, plan, execute and the "
            "indexes do all the work, the cache is bypassed; the control for browse",
            deployment="service",
            write_every=20,
            reads="distinct",
            stream="adhoc",
            ops_per_second=960,
        ),
        Workload(
            name="churn",
            why="50/50 mix with background checkpoints inside the phase: manager, columns, "
            "WAL and durability do the work; the cache is pure overhead here",
            deployment="service",
            write_every=2,
            reads="pool",
            stream="churn",
            ops_per_second=576,
            checkpoints=5,
        ),
        Workload(
            name="net",
            why="a prefix of adhoc's exact schedule through 2 worker processes over TCP: "
            "wire, codec, client, server and scatter/merge add the cost; the wire tax",
            deployment="net",
            write_every=20,
            reads="distinct",
            stream="adhoc",
            ops_per_second=480,
        ),
    )
}


# -- applying operations -------------------------------------------------------------


def build_annotation(target: Any, spec: dict):
    """A builder for *spec* on *target* (any deployment, or a bare manager)."""
    builder = target.new_annotation(
        spec["id"],
        title=spec["title"],
        creator=spec["creator"],
        keywords=spec["keywords"],
        body=spec["body"],
    )
    if spec["content_terms"]:
        builder.refer_ontology(*spec["content_terms"])
    for mark in spec["marks"]:
        if mark["kind"] == "seq":
            builder.mark_sequence(
                mark["object"], mark["start"], mark["end"], ontology_terms=mark["terms"]
            )
        else:
            builder.mark_region(mark["object"], mark["lo"], mark["hi"], ontology_terms=mark["terms"])
    return builder


def apply_op(target: Any, op: tuple) -> Any:
    """Apply one generated op through *target*'s public surface."""
    verb = op[1]
    if verb == "query":
        return target.query(op[2])
    if verb == "commit":
        return build_annotation(target, op[2]).commit()
    if verb == "update":
        return target.update_annotation(op[2], op[3])
    return target.delete_annotation(op[2])


# -- deployments ---------------------------------------------------------------------


def service_config(checkpoint_interval: int = 0) -> ServiceConfig:
    """The flush policy every side runs: the production default, fsync per record."""
    return ServiceConfig(
        durability="always",
        checkpoint_interval=checkpoint_interval,
        # The phase ends like a crash would: recovery must replay the WAL tail.
        checkpoint_on_close=False,
        observability=ObservabilityConfig(enabled=False),
    )


def open_deployment(
    workload: Workload, root: Path, checkpoint_interval: int = 0, thread_workers: bool = False
):
    """Open (or recover) *workload*'s deployment at *root*.

    *thread_workers* is the traced run's network deployment: both sides of
    the socket must land in one trace, so the workers are threads, and there
    is no heartbeat thread whose pings would be mistaken for traffic.
    """
    config = service_config(checkpoint_interval)
    if workload.deployment == "service":
        return GraphittiService.open(root, config=config)
    return NetworkShardedGraphittiService.open(
        root,
        shards=NET_SHARDS,
        config=config,
        worker_mode="thread" if thread_workers else "process",
        start_monitor=not thread_workers,
    )


def worker_pids(target: Any) -> list[int]:
    """Pids of the deployment's worker processes (empty when in-process)."""
    status = getattr(target, "network_status", None)
    if status is None:
        return []
    return [row["pid"] for row in status()["workers"] if row.get("pid")]


def _proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of *pid* so far (0 once it is gone)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _proc_peak_rss_kib(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mib(pids: list[int]) -> float:
    """Peak RSS of this process plus its workers' high-water marks, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own + sum(_proc_peak_rss_kib(pid) for pid in pids)) / 1024.0


def wal_roots(workload: Workload, root: Path) -> list[Path]:
    """Directories holding a WAL under *root* (one per shard for ``net``)."""
    if workload.deployment == "service":
        return [root]
    return [root / shard_dir_name(index) for index in range(NET_SHARDS)]


class WalWatcher:
    """Exact count of bytes appended to the WAL, from the files alone.

    Polled after every acknowledged write.  The active segment only grows
    until a checkpoint seals it (renames it to a numbered segment and starts
    an empty one); the sealed file outlives the background snapshot that
    supersedes it, so a poll right after the sealing write still finds its
    final size.
    """

    def __init__(self, roots: list[Path]):
        self._active = [root / WAL_FILE for root in roots]
        self._sizes = [self._size(path) for path in self._active]
        self.appended = 0

    @staticmethod
    def _size(path: Path) -> int:
        try:
            return path.stat().st_size
        except OSError:
            return 0

    def poll(self) -> None:
        for index, path in enumerate(self._active):
            size = self._size(path)
            previous = self._sizes[index]
            if size < previous:
                # Sealed since the last poll: the newest sealed segment is the
                # old active file at its final size.
                sealed = sealed_segment_paths(path)
                self.appended += self._size(sealed[-1]) - previous + size
            else:
                self.appended += size - previous
            self._sizes[index] = size


def directory_bytes(root: Path) -> int:
    """Bytes of every regular file under *root*."""
    return sum(
        (Path(folder) / name).stat().st_size
        for folder, _dirs, names in os.walk(root)
        for name in names
    )


# -- set-up --------------------------------------------------------------------------


def _no_tick() -> None:
    """Nobody is timing: nothing to do between steps."""


def ingest(target: Any, corpus: Corpus, tick: Callable[[], None] = _no_tick) -> None:
    """Register the objects and bulk-commit the corpus in batches.

    *tick* is called between batches (a timed set-up calibrates there).
    """
    corpus.register_into(target)
    # A bare manager (the oracle) spells its batch commit differently.
    bulk = getattr(target, "bulk_commit", None) or target.commit_many
    batch = corpus.scale.ingest_batch
    for start in range(0, len(corpus.initial), batch):
        tick()
        bulk([build_annotation(target, spec).build() for spec in corpus.initial[start : start + batch]])


def run_ops(target: Any, ops: list[tuple], tick: Callable[[], None] = _no_tick) -> int:
    """Apply *ops* (the warm-up), *tick* after each; returns how many failed."""
    failed = 0
    for op in ops:
        try:
            apply_op(target, op)
        except GraphittiError:
            failed += 1
        tick()
    return failed


# -- the timed phase -------------------------------------------------------------------


@dataclass
class Block:
    """One block of the timed phase (kernel repetitions are in none of it)."""

    ops: int
    #: Wall seconds as measured, and at reference speed.
    wall_s: float
    normalised_wall_s: float
    #: Process (+ worker) CPU seconds as measured.
    cpu_s: float
    #: kind -> latencies (seconds) of the block's ops of that kind, as
    #: measured and at reference speed.
    samples: dict[str, list[float]]
    normalised: dict[str, list[float]]
    #: Mean kernel repetition during the block, in seconds.
    kernel_s: float

    @property
    def factor(self) -> float:
        """Host speed over the block (its segments weighted by their length)."""
        return self.normalised_wall_s / self.wall_s


@dataclass
class Phase:
    """Everything measured during one timed phase."""

    blocks: list[Block] = field(default_factory=list)
    #: Every kernel repetition run during the phase, in order.
    repetitions: list[float] = field(default_factory=list)
    executed: list[tuple] = field(default_factory=list)
    #: Indices (into ``executed``) of ops that raised.
    failed: list[int] = field(default_factory=list)
    #: Writes (commits, updates, deletes) the deployment acknowledged.
    acked_writes: int = 0
    wal_bytes: int = 0


def run_phase(
    target: Any,
    ops: list[tuple],
    blocks: int,
    watcher: WalWatcher,
    pids: list[int],
    begin_op: Callable[[int, str], None] | None = None,
    end_op: Callable[[], None] | None = None,
) -> Phase:
    """Run *ops* in *blocks* equal blocks, calibrating between the ops."""
    phase = Phase()
    size = len(ops) // blocks
    #: Per block: (first segment, last segment, CPU seconds, samples, segments).
    measured: list[tuple] = []
    gc.collect()
    yard = Yardstick()
    yard.start()
    for number in range(blocks):
        chunk = ops[number * size : (number + 1) * size]
        first = yard.segment
        samples: dict[str, list[float]] = {READ: [], WRITE: [], DELETE: []}
        #: kind -> the segment each sample fell in.
        segments: dict[str, list[int]] = {READ: [], WRITE: [], DELETE: []}
        worker_cpu = sum(_proc_cpu_s(pid) for pid in pids)
        kernel_cpu = yard.kernel_cpu_s
        cpu_start = time.process_time()
        for offset, op in enumerate(chunk):
            kind = op[0]
            if begin_op is not None:
                begin_op(number * size + offset, kind)
            begin = time.perf_counter()
            try:
                apply_op(target, op)
            except GraphittiError:
                phase.failed.append(number * size + offset)
            else:
                if kind != READ:
                    phase.acked_writes += 1
            end = time.perf_counter()
            if end_op is not None:
                end_op()
            samples[kind].append(end - begin)
            segments[kind].append(yard.segment)
            if kind != READ:
                watcher.poll()
            if offset + 1 < len(chunk):
                yard.tick()
        yard.cut()
        cpu = time.process_time() - cpu_start - (yard.kernel_cpu_s - kernel_cpu)
        cpu += sum(_proc_cpu_s(pid) for pid in pids) - worker_cpu
        measured.append((first, yard.segment, cpu, samples, segments))
    phase.executed = ops[: size * blocks]
    # Corrected only now: nothing but the ops runs between two repetitions.
    for first, last, cpu, samples, segments in measured:
        phase.blocks.append(
            Block(
                ops=size,
                wall_s=yard.seconds(first, last, normalised=False),
                normalised_wall_s=yard.seconds(first, last),
                cpu_s=cpu,
                samples=samples,
                normalised={
                    kind: [
                        sample * yard.factor(segment)
                        for sample, segment in zip(samples[kind], segments[kind])
                    ]
                    for kind in samples
                },
                kernel_s=statistics.fmean(yard.repetitions[first : last + 1]),
            )
        )
    phase.repetitions = yard.repetitions
    phase.wal_bytes = watcher.appended
    return phase


# -- statistics ------------------------------------------------------------------------


def grouped_means(per_block: list[list[float]], minimum: int = 5) -> list[float]:
    """Means of consecutive block groups holding at least *minimum* samples.

    Reads and writes fill every block; deletes are rare, so their blocks pool
    until a group has enough samples for a mean to mean something.
    """
    means: list[float] = []
    group: list[float] = []
    for samples in per_block:
        group.extend(samples)
        if len(group) >= minimum:
            means.append(statistics.fmean(group))
            group = []
    if group and not means:
        means.append(statistics.fmean(group))
    return means


def latency_ms(phase: Phase, kind: str, normalised: bool = True) -> float:
    """Median over block groups of the per-group mean latency of *kind*.

    The mean inside a block, not the median: seven query shapes (and, on
    ``browse``, cache hits against misses) make the latencies multi-modal
    with the median in a gap between two modes -- on ``churn`` the 45th
    percentile read takes 0.57 ms and the 55th 0.83 ms, so which texts a seed
    happens to draw moves a median by a fifth.  The median over blocks then
    sets aside the blocks a collection or a checkpoint landed in.
    """
    per_block = [
        (block.normalised if normalised else block.samples)[kind] for block in phase.blocks
    ]
    means = grouped_means(per_block)
    return statistics.median(means) * 1e3 if means else 0.0


def tail_ms(phase: Phase, kind: str) -> tuple[float, int]:
    """Pooled normalised p95 of *kind* and its sample count (never gated)."""
    pooled = sorted(sample for block in phase.blocks for sample in block.normalised[kind])
    if not pooled:
        return 0.0, 0
    return pooled[min(len(pooled) - 1, int(0.95 * len(pooled)))] * 1e3, len(pooled)


def ops_per_s(phase: Phase, normalised: bool = True) -> float:
    """Median over blocks of ops / wall time, at reference speed."""
    return statistics.median(
        block.ops / (block.normalised_wall_s if normalised else block.wall_s)
        for block in phase.blocks
    )


def cpu_ms_per_op(phase: Phase) -> float:
    """Process (+ worker) CPU over the whole phase per op, at reference speed.

    A sum, not a median: background checkpoint and worker CPU land in
    whichever block they land in, and a median over blocks would hide them.
    """
    cpu = sum(block.cpu_s * block.factor for block in phase.blocks)
    return cpu / sum(block.ops for block in phase.blocks) * 1e3


def fastest(times: list["Timed"]) -> "Timed":
    """The one of *times* that took the least time as measured."""
    return min(times, key=lambda taken: taken.raw_seconds)


def calibration_cv(phase: Phase) -> float:
    """Coefficient of variation of the kernel's time across the phase."""
    return statistics.pstdev(phase.repetitions) / statistics.fmean(phase.repetitions)


@dataclass(frozen=True)
class Timed:
    """A long one-off duration (a set-up, a recovery)."""

    #: Seconds at reference speed.
    seconds: float
    raw_seconds: float


def timed(action: Callable[[Callable[[], None]], Any]) -> tuple[Any, Timed]:
    """Run *action*, calibrating wherever it ticks; (its result, its timing).

    *action* is handed the tick to call between its steps.  A recovery is one
    call and cannot tick: it is calibrated at its two ends alone.
    """
    # A set-up or a recovery allocates the whole corpus: whether it also pays
    # for a full collection must not depend on where the collector's counters
    # happened to stand.
    gc.collect()
    yard = Yardstick()
    yard.start()
    result = action(yard.tick)
    yard.stop()
    return result, Timed(yard.seconds(), yard.seconds(normalised=False))


# -- one workload run --------------------------------------------------------------------


@dataclass
class Plan:
    """The generated inputs of one workload run."""

    workload: Workload
    corpus: Corpus
    warmup: list[tuple]
    ops: list[tuple]
    checkpoint_interval: int


def make_plan(workload: Workload, seed: int, op_count: int, scale: Scale) -> Plan:
    """Generate the corpus and op lists of *workload* for *seed*.

    *op_count* is rounded to whole decks of writes and to equal blocks, so
    every block has the same op count and mix and every run the same
    proportions of write kinds and annotation shapes; a shorter plan is a
    prefix of a longer one.
    """
    corpus = Corpus(scale)
    if workload.reads == "pool":
        pool = corpus.query_pool(POOL_SIZE, random.Random(f"{CORPUS_SEED}:pool"))
        reads = zipf_reads(pool, 1.1, random.Random(f"{seed}:{workload.stream}:zipf"))
    else:
        reads = corpus.distinct_queries(random.Random(f"{seed}:{workload.stream}:reads"))
    schedule = Schedule(corpus, random.Random(f"{seed}:{workload.stream}:ops"))
    every = workload.write_every
    warmup = schedule.mixed(max(1, scale.warmup_ops // every), every, reads)
    whole = math.lcm(DECK, scale.blocks)
    ops = schedule.mixed(whole * max(1, round(op_count / every / whole)), every, reads)
    interval = 0
    if workload.checkpoints:
        writes = (len(warmup) + len(ops)) // every
        interval = max(1, writes // workload.checkpoints - 1)
    return Plan(workload, corpus, warmup, ops, interval)


@dataclass
class Run:
    """What one workload run measured, before it is turned into metrics."""

    plan: Plan
    phase: Phase
    setups: list[Timed]
    recoveries: list[Timed]
    rss_mib: float
    root: Path
    warmup_failed: int
    #: The deployment as last recovered, left open for the oracle (which
    #: closes it); ``None`` if no recovery was asked for.
    recovered: Any = None

    def close(self) -> None:
        """Close the recovered deployment, if the oracle has not taken it."""
        recovered, self.recovered = self.recovered, None
        if recovered is not None:
            recovered.close()


def set_up(
    plan: Plan, root: Path, thread_workers: bool, tick: Callable[[], None] = _no_tick
) -> tuple[Any, int]:
    """One full set-up: open, ingest, first checkpoint, warm-up.

    Returns the deployment and how many warm-up ops failed.
    """
    target = open_deployment(plan.workload, root, plan.checkpoint_interval, thread_workers)
    try:
        ingest(target, plan.corpus, tick)
        tick()
        target.checkpoint()
        tick()
        return target, run_ops(target, plan.warmup, tick)
    except BaseException:
        target.close()  # worker processes must not outlive a failed set-up
        raise


def run_workload(
    plan: Plan,
    work_dir: Path,
    setups: int = SETUPS,
    recoveries: int = RECOVERIES,
    thread_workers: bool = False,
    begin_op: Callable[[int, str], None] | None = None,
    end_op: Callable[[], None] | None = None,
) -> Run:
    """Set up (*setups* times, keeping the last), run the phase, close, recover."""
    root = work_dir / "data"
    setup_times: list[Timed] = []
    target = None
    try:
        for _ in range(setups):
            if target is not None:
                target.close()
                target = None
            shutil.rmtree(root, ignore_errors=True)
            (target, warmup_failed), taken = timed(
                lambda tick: set_up(plan, root, thread_workers, tick)
            )
            setup_times.append(taken)
        pids = worker_pids(target)
        watcher = WalWatcher(wal_roots(plan.workload, root))
        phase = run_phase(
            target, plan.ops, plan.corpus.scale.blocks, watcher, pids, begin_op, end_op
        )
        rss = peak_rss_mib(pids)
    finally:
        # Also on an error: worker processes must not outlive the run.
        if target is not None:
            target.close()

    recovery_times: list[Timed] = []
    recovered = None
    for _ in range(recoveries):
        if recovered is not None:
            recovered.close()
        recovered, taken = timed(
            lambda _tick: open_deployment(plan.workload, root, thread_workers=thread_workers)
        )
        recovery_times.append(taken)
    return Run(plan, phase, setup_times, recovery_times, rss, root, warmup_failed, recovered)

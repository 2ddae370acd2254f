"""PERF-10: process-per-shard serving vs the threaded facade, with floors.

The workload is built to be GIL-bound: four client threads issue CPU-heavy,
uncached structural queries (content scans + interval joins over the whole
corpus, result caching disabled) against four shards.  In the threaded
facade every shard executes inside ONE interpreter, so the GIL serialises
the scatter — four concurrent queries contend for one core.  In the network
facade each shard is its own OS process: the same scatter fans out across
four interpreters and runs genuinely in parallel, which must outweigh the
RPC tax (framing + TCP + JSON codec) by construction.

Measured, best of rounds:

* throughput (queries/second across the four client threads), and
* per-query p99 latency (the tail a browsing scientist actually feels).

Floors, when at least two cores are available: network throughput
**>= 1.25x** threaded, and network p99 **no worse than** the threaded p99
(ratio >= 1.0) — the tail must not regress even though every query pays
the wire.  On a single-core machine process parallelism is physically
impossible (four workers time-slice one CPU), so the floors degrade to a
bounded-RPC-tax contract instead: the network tier must stay within a
constant factor of threaded on both throughput and p99.  The JSON records
which contract was enforced (``parallel_floors``/``cores``).

An oracle gate runs first: the network facade must answer the whole probe
set bit-identically to the threaded facade over the same corpus.

``python -m benchmarks.bench_network`` prints the table, writes
``BENCH_network.json``, and exits non-zero below a floor (or on an oracle
mismatch).  ``BENCH_SMOKE=1`` runs the CI-sized version (floors still
apply).
"""

from __future__ import annotations

import os
import random
import tempfile
import threading
import time
from pathlib import Path

import pytest

from benchmarks._harness import format_row, percentile, speedup, usable_cores, write_results
from repro.datatypes.sequence import DnaSequence
from repro.net import NetworkShardedGraphittiService
from repro.service import ServiceConfig
from repro.shard import ShardedGraphittiService

CORES = usable_cores()

#: With >= 2 cores, process-per-shard must WIN: the scatter fans out across
#: interpreters while the threaded facade serialises on the GIL.
PARALLEL_FLOORS = CORES >= 2

#: Network throughput must beat threaded by at least this multiple.
NETWORK_THROUGHPUT_FLOOR = 1.25

#: Network p99 must be no worse than threaded p99 (threaded_p99 / net_p99).
NETWORK_P99_FLOOR = 1.0

#: Single-core fallback: parallelism cannot exist, so the floor is a bound
#: on the RPC tax — the network tier must keep at least this fraction of
#: threaded throughput, and its p99 at most 1/floor times threaded.
SINGLE_CORE_THROUGHPUT_FLOOR = 0.35
SINGLE_CORE_P99_FLOOR = 0.30

SHARD_COUNT = 4

#: Client threads issuing queries concurrently (one per shard: the point is
#: that the threaded facade serialises them on the GIL, processes do not).
THREADS = 4

_SMOKE = bool(os.environ.get("BENCH_SMOKE"))

#: (corpus annotations, queries per client thread, measurement rounds).
SCALE = (4000, 10, 2) if _SMOKE else (6400, 16, 3)

OBJECTS = 16

#: Rare-tag keyword space: each ``tag-NNN`` matches corpus/401 annotations.
#: 401 is coprime with OBJECTS, so one tag's matches spread across all
#: objects and therefore all shards — the scatter genuinely fans out
#: (annotations co-locate with the object they mark).
TAG_MODULUS = 401

#: CPU-heavy but result-light probes.  Every probe joins against the wide
#: interval index (candidate verification is O(corpus)-ish, and the result
#: cache is off so every execution pays it again), yet matches only a thin
#: rare-tag slice — or caps the page with LIMIT — so the cost under
#: measurement is the *join*, which the GIL serialises in-process and
#: worker processes run genuinely in parallel.  Broad probes that return
#: most of the corpus would instead measure the JSON wire tax, which is not
#: the claim under test.
QUERIES = (
    'SELECT contents WHERE { CONTENT CONTAINS "tag-007" INTERVAL OVERLAPS net:chr1 [0, 30000] }',
    'SELECT contents WHERE { CONTENT CONTAINS "tag-123" INTERVAL OVERLAPS net:chr1 [0, 30000] }',
    'SELECT contents WHERE { ANY { CONTENT CONTAINS "tag-042" CONTENT CONTAINS "tag-178" } '
    "INTERVAL OVERLAPS net:chr1 [500, 25000] }",
    'SELECT contents WHERE { CONTENT CONTAINS "tag-299" INTERVAL OVERLAPS net:chr1 [0, 30000] }',
    "SELECT referents WHERE { INTERVAL OVERLAPS net:chr1 [1000, 9000] } LIMIT 8",
    'SELECT contents WHERE { NOT { CONTENT CONTAINS "delta" } } LIMIT 8',
)

_KEYWORDS = ("alpha", "beta", "gamma", "delta", "epsilon")

#: Caches off: the benchmark measures execution, not cache hits.
def _config() -> ServiceConfig:
    return ServiceConfig(cache_capacity=0, durability="never")


def seed_corpus(service, corpus: int) -> None:
    object_ids = []
    for index in range(OBJECTS):
        obj = DnaSequence(
            f"net{index}", "ACGT" * 250, domain="net:chr1", offset=index * 1000
        )
        service.register(obj)
        object_ids.append(obj.object_id)
    rng = random.Random(13)
    batch = []
    for index in range(corpus):
        batch.append(
            service.new_annotation(
                f"seed-{index:05d}",
                title=f"seed annotation {index}",
                keywords=[
                    rng.choice(_KEYWORDS),
                    f"tag-{index % TAG_MODULUS:03d}",
                    "common",
                ],
                body=f"network benchmark corpus {index}",
            ).mark_sequence(
                object_ids[index % OBJECTS], (index * 13) % 900, (index * 13) % 900 + 40
            )
        )
    service.bulk_commit(batch)


def run_query_storm(service, queries_per_thread: int) -> tuple[float, list[float]]:
    """THREADS concurrent clients; returns (elapsed, per-query latencies)."""
    latencies: list[list[float]] = [[] for _ in range(THREADS)]

    def client(thread_index: int) -> None:
        rng = random.Random(500 + thread_index)
        for _ in range(queries_per_thread):
            text = QUERIES[rng.randrange(len(QUERIES))]
            begin = time.perf_counter()
            service.query(text)
            latencies[thread_index].append(time.perf_counter() - begin)

    threads = [
        threading.Thread(target=client, args=(index,), name=f"bench-net-{index}")
        for index in range(THREADS)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    return elapsed, [sample for bucket in latencies for sample in bucket]


def check_oracle_equivalence(threaded, network) -> None:
    """The network facade must answer bit-identically to the threaded one."""
    for text in QUERIES:
        left = network.query(text)
        right = threaded.query(text)
        if left.annotation_ids != right.annotation_ids:
            raise AssertionError(f"network result diverges from threaded for {text!r}")
        left_refs = [referent.referent_id for referent in left.referents]
        right_refs = [referent.referent_id for referent in right.referents]
        if left_refs != right_refs:
            raise AssertionError(f"network referent page diverges for {text!r}")


def measure() -> list[dict[str, float]]:
    corpus, queries_per_thread, rounds = SCALE
    total = THREADS * queries_per_thread
    threaded = ShardedGraphittiService(
        shards=SHARD_COUNT, name="bench-net-threaded", config=_config()
    )
    seed_corpus(threaded, corpus)
    root = Path(tempfile.mkdtemp(prefix="bench-network-")) / "root"
    network = NetworkShardedGraphittiService.open(
        root, shards=SHARD_COUNT, config=_config(), start_monitor=False
    )
    seed_corpus(network, corpus)
    try:
        check_oracle_equivalence(threaded, network)
        run_query_storm(threaded, 2)  # warm plan caches on both tiers
        run_query_storm(network, 2)
        samples = {"threaded": [], "network": []}
        tails = {"threaded": [], "network": []}
        for _ in range(rounds):
            elapsed, latencies = run_query_storm(threaded, queries_per_thread)
            samples["threaded"].append(elapsed)
            tails["threaded"].append(percentile(latencies, 99))
            elapsed, latencies = run_query_storm(network, queries_per_thread)
            samples["network"].append(elapsed)
            tails["network"].append(percentile(latencies, 99))
    finally:
        network.close()
        threaded.close()
    rows = []
    for name in ("threaded", "network"):
        best = min(samples[name])
        rows.append(
            {
                "system": name,
                "shards": SHARD_COUNT,
                "threads": THREADS,
                "corpus": corpus,
                "queries": total,
                "ops_per_second": total / best,
                "best_seconds": best,
                "mean_seconds": sum(samples[name]) / len(samples[name]),
                "p99_seconds": min(tails[name]),
            }
        )
    rows[1]["speedup"] = speedup(rows[0]["best_seconds"], rows[1]["best_seconds"])
    rows[1]["p99_ratio"] = speedup(rows[0]["p99_seconds"], rows[1]["p99_seconds"])
    return rows


def floors() -> tuple[float, float]:
    """(throughput floor, p99 floor) for this machine's core count."""
    if PARALLEL_FLOORS:
        return NETWORK_THROUGHPUT_FLOOR, NETWORK_P99_FLOOR
    return SINGLE_CORE_THROUGHPUT_FLOOR, SINGLE_CORE_P99_FLOOR


def report() -> int:
    throughput_floor, p99_floor = floors()
    rows = measure()
    print("oracle check: network == threaded (bit-identical, ordering included)")
    mode = (
        f"{CORES} core(s): processes-must-win floors"
        if PARALLEL_FLOORS
        else f"{CORES} core(s): single-core RPC-tax floors"
    )
    print(mode)
    widths = (10, 8, 14, 14, 12, 10)
    print(format_row(("system", "shards", "queries/sec", "p99 (ms)", "speedup", "p99 gain"), widths))
    for row in rows:
        print(
            format_row(
                (
                    row["system"],
                    row["shards"],
                    f"{row['ops_per_second']:.1f}",
                    f"{row['p99_seconds'] * 1000:.1f}",
                    f"{row.get('speedup', 1.0):.2f}x",
                    f"{row.get('p99_ratio', 1.0):.2f}x",
                ),
                widths,
            )
        )
    write_results(
        "network",
        rows,
        smoke=_SMOKE,
        parallel_floors=PARALLEL_FLOORS,
        throughput_floor=throughput_floor,
        p99_floor=p99_floor,
        shard_count=SHARD_COUNT,
        client_threads=THREADS,
    )
    failures = []
    if rows[1]["speedup"] < throughput_floor:
        failures.append(
            f"process-per-shard throughput ratio {rows[1]['speedup']:.2f}x is below "
            f"the {throughput_floor:.2f}x floor"
        )
    if rows[1]["p99_ratio"] < p99_floor:
        failures.append(
            f"network p99 ratio {rows[1]['p99_ratio']:.2f}x is below the "
            f"{p99_floor:.2f}x floor"
        )
    for failure in failures:
        print(f"FAIL: {failure}")
    if not failures:
        print(
            f"network floors OK: {rows[1]['speedup']:.2f}x throughput "
            f"(>= {throughput_floor:.2f}x), p99 ratio {rows[1]['p99_ratio']:.2f}x "
            f"(>= {p99_floor:.2f}x)"
        )
    return 1 if failures else 0


def test_network_matches_threaded_oracle():
    threaded = ShardedGraphittiService(
        shards=SHARD_COUNT, name="oracle-net-threaded", config=_config()
    )
    root = Path(tempfile.mkdtemp(prefix="bench-network-oracle-")) / "root"
    network = NetworkShardedGraphittiService.open(
        root, shards=SHARD_COUNT, config=_config(), start_monitor=False
    )
    try:
        seed_corpus(threaded, 400)
        seed_corpus(network, 400)
        check_oracle_equivalence(threaded, network)
    finally:
        network.close()
        threaded.close()


@pytest.mark.benchmark(group="network")
def test_network_throughput_floor(benchmark):
    throughput_floor, p99_floor = floors()
    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    assert rows[1]["speedup"] >= throughput_floor
    assert rows[1]["p99_ratio"] >= p99_floor


if __name__ == "__main__":
    raise SystemExit(report())

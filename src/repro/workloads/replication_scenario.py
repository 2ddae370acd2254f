"""Read-heavy mixed workload against a (possibly replicated) service.

Models the read-scaling traffic shape replication targets: ~95% repeated
structural queries, ~5% single-annotation commits.  On an unreplicated
service every commit drops the hot pages it reaches, so each of them
re-executes right after the write.  Behind a
:class:`~repro.replica.ReplicatedGraphittiService`, commits land on the
primary while eventual-consistency reads round-robin the followers — whose
result caches drop pages only when a WAL shipment is applied, i.e. at the
ship interval rather than per write.

The driver only uses the common service surface (``register`` /
``new_annotation`` / ``commit`` / ``bulk_commit`` / ``query``), so the same
code path drives a plain :class:`~repro.service.GraphittiService`, a
replicated one, or a sharded deployment.  Deterministic per thread (seeded
RNGs); returns a summary with counters, the committed-id ledger, and wall
clock, so benchmarks can derive throughput and tests can verify no acked
write went missing.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Any

from repro.datatypes.sequence import DnaSequence

#: The hot query set readers cycle through (repetition is the point: the
#: follower result caches are what convert replicas into read throughput).
REPLICATION_QUERIES = (
    'SELECT contents WHERE { CONTENT CONTAINS "alpha" }',
    'SELECT contents WHERE { CONTENT CONTAINS "beta" INTERVAL OVERLAPS rep:chr1 [0, 9000] }',
    "SELECT contents WHERE { INTERVAL OVERLAPS rep:chr1 [500, 4000] MINCOUNT 1 }",
    'SELECT contents WHERE { ANY { CONTENT CONTAINS "gamma" CONTENT CONTAINS "delta" } }',
    'SELECT contents WHERE { CONTENT CONTAINS "epsilon" INTERVAL OVERLAPS rep:chr1 [1000, 12000] }',
    "SELECT referents WHERE { INTERVAL OVERLAPS rep:chr1 [2000, 6000] }",
)

_KEYWORDS = ("alpha", "beta", "gamma", "delta", "epsilon")


def seed_replication_corpus(service, corpus: int, objects: int = 8) -> list[str]:
    """Register the shared object pool and bulk-load *corpus* annotations."""
    object_ids = []
    for index in range(objects):
        obj = DnaSequence(
            f"rep{index}", "ACGT" * 250, domain="rep:chr1", offset=index * 1000
        )
        service.register(obj)
        object_ids.append(obj.object_id)
    rng = random.Random(23)
    batch = []
    for index in range(corpus):
        batch.append(
            service.new_annotation(
                f"seed-{index:05d}",
                title=f"seed annotation {index}",
                keywords=[rng.choice(_KEYWORDS), "common"],
                body=f"replication workload corpus {index}",
            ).mark_sequence(object_ids[index % objects], (index * 17) % 900, (index * 17) % 900 + 40)
        )
    service.bulk_commit(batch)
    return object_ids


def run_replication_workload(
    service,
    object_ids: list[str],
    threads: int = 4,
    ops_per_thread: int = 200,
    write_every: int = 20,
    seed: int = 29,
    tag: str = "rep",
) -> dict[str, Any]:
    """Drive the 95/5 read/write mix; return counters, ledger, and elapsed.

    One write per *write_every* operations per thread (the default 20 gives
    the 95/5 split).  Reads use the service's default consistency level —
    bounded-staleness follower reads on a replicated service — and writes
    go through ``commit`` (acknowledged once WAL-appended on the primary).
    """
    errors: list[str] = []
    committed_ids: list[str] = []
    ledger_mutex = threading.Lock()
    counters = {"reads": 0, "writes": 0, "rows": 0}
    counters_mutex = threading.Lock()

    def worker(worker_id: int) -> None:
        rng = random.Random(seed * 1000 + worker_id)
        reads = writes = rows = 0
        serial = 0
        try:
            for op in range(ops_per_thread):
                if write_every and op % write_every == write_every - 1:
                    annotation = (
                        service.new_annotation(
                            f"{tag}-w{worker_id}-{serial}",
                            title="replication workload write",
                            keywords=[rng.choice(_KEYWORDS)],
                            body="written mid-workload",
                        )
                        .mark_sequence(
                            object_ids[rng.randrange(len(object_ids))],
                            rng.randrange(900),
                            rng.randrange(900, 950),
                        )
                        .commit()
                    )
                    serial += 1
                    writes += 1
                    with ledger_mutex:
                        committed_ids.append(annotation.annotation_id)
                else:
                    result = service.query(
                        REPLICATION_QUERIES[rng.randrange(len(REPLICATION_QUERIES))]
                    )
                    reads += 1
                    rows += result.count
        except Exception as exc:  # pragma: no cover - surfaced via summary
            errors.append(f"worker {worker_id}: {type(exc).__name__}: {exc}")
        with counters_mutex:
            counters["reads"] += reads
            counters["writes"] += writes
            counters["rows"] += rows

    pool = [
        threading.Thread(target=worker, args=(worker_id,), name=f"rep-worker-{worker_id}")
        for worker_id in range(threads)
    ]
    start = time.perf_counter()
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    elapsed = time.perf_counter() - start

    summary: dict[str, Any] = dict(counters)
    summary["elapsed"] = elapsed
    summary["ops"] = counters["reads"] + counters["writes"]
    summary["errors"] = errors
    summary["committed_ids"] = sorted(committed_ids)
    return summary

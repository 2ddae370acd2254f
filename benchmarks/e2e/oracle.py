"""The correctness oracle: the same schedule, replayed without the system.

After a timed phase the set-up, warm-up and executed operations are replayed
into an in-memory reference -- a bare :class:`~repro.core.manager.Graphitti`
for the in-process workloads, and for ``net`` the in-memory threaded sharded
service with the same shard count (the repository's own oracle for the
network tier: PATH and GRAPH pages are shard-local by design, so only a
same-router reference can be bit-identical).  The recovered deployment must
then agree with the reference on a probe set of query pages, on the live-id
set and annotation count, and on every annotation an acknowledged write
touched: acknowledged writes readable, acknowledged deletes gone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any

from repro.core.manager import Graphitti
from repro.core.persistence import encode_annotation
from repro.errors import GraphittiError
from repro.net.codec import encode_query_result
from repro.shard.service import ShardedGraphittiService

from benchmarks.e2e.corpus import CORPUS_SEED, READ, Corpus
from benchmarks.e2e.driver import (
    NET_SHARDS,
    Run,
    apply_op,
    directory_bytes,
    ingest,
    open_deployment,
    run_ops,
)

#: Query texts in the probe set.
PROBES = 32

#: Matches every annotation: no content contains this token.
_ALL_IDS = 'SELECT contents WHERE { NOT { CONTENT CONTAINS "zzqxnevermatches" } }'

#: Volatile parts of an encoded result that are not part of its pages.
_NOT_PAGE = ("step_details", "plan_fingerprint", "referents_by_annotation")


@dataclass
class Verdict:
    """What the oracle found."""

    problems: list[str] = field(default_factory=list)
    live: int = 0
    #: Bytes under the data root after the final checkpoint.
    disk_bytes: int = 0


def pages(result: Any) -> dict:
    """The result pages of *result* in canonical (wire codec) form."""
    payload = encode_query_result(result)
    for key in _NOT_PAGE:
        payload.pop(key, None)
    return payload


def reference_for(run: Run) -> Any:
    """The in-memory reference holding what the deployment should hold."""
    if run.plan.workload.deployment == "net":
        reference = ShardedGraphittiService(shards=NET_SHARDS, name="oracle")
    else:
        reference = Graphitti("oracle")
    ingest(reference, run.plan.corpus)
    run_ops(reference, run.plan.warmup)
    return reference


def probe_texts(corpus: Corpus) -> list[str]:
    """The probe set: every read shape, fixed like the corpus it probes."""
    return corpus.query_pool(PROBES, random.Random(f"{CORPUS_SEED}:probes"))


def _encoded(target: Any, annotation_id: str) -> dict | None:
    try:
        return encode_annotation(target.annotation(annotation_id))
    except GraphittiError:
        return None


def verify(run: Run, thread_workers: bool = False) -> Verdict:
    """Hold the recovered deployment (recovering it, if need be) against the reference."""
    verdict = Verdict()
    problems = verdict.problems
    reference = reference_for(run)
    touched: list[str] = []
    for index, op in enumerate(run.phase.executed):
        if op[0] == READ:
            continue
        touched.append(op[2]["id"] if op[1] == "commit" else op[2])
        try:
            apply_op(reference, op)
        except GraphittiError as exc:
            problems.append(f"op {index} {op[1]} is invalid against the reference: {exc}")
    for index in run.phase.failed:
        problems.append(f"op {index} {run.phase.executed[index][1]} raised in the deployment")

    target, run.recovered = run.recovered, None
    if target is None:
        target = open_deployment(run.plan.workload, run.root, thread_workers=thread_workers)
    try:
        if target.annotation_count != reference.annotation_count:
            problems.append(
                f"annotation_count {target.annotation_count} != {reference.annotation_count}"
            )
        expected_ids = reference.query(_ALL_IDS).annotation_ids
        if target.query(_ALL_IDS).annotation_ids != expected_ids:
            problems.append("live-id set differs from the reference")
        verdict.live = len(expected_ids)
        for text in probe_texts(run.plan.corpus):
            if pages(target.query(text)) != pages(reference.query(text)):
                problems.append(f"probe page differs: {text}")
        for annotation_id in dict.fromkeys(touched):
            if _encoded(target, annotation_id) != _encoded(reference, annotation_id):
                problems.append(f"acknowledged write to {annotation_id} not recovered as acknowledged")
        target.checkpoint()
    finally:
        target.close()
        if hasattr(reference, "close"):
            reference.close()
    verdict.disk_bytes = directory_bytes(run.root)
    return verdict

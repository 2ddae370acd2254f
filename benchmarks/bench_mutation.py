"""PERF-9: in-place update vs delete+recommit on a churned 10k corpus.

Until this PR every annotation "edit" was a delete+recommit: two lock
acquisitions, two WAL records, the full index teardown (content document,
inverted-index postings, a-graph nodes, spatial extent, id-space slot,
catalogue entries) followed by the full rebuild.  ``update_annotation``
applies the *diff* instead — term-diff re-posting, one remove+insert in the
owning spatial tree, set-difference catalogue adjustment, stable id slot.

Two measured workloads, each applying the **same logical edit stream**
(title/keyword/body rewrite + extent move) to a 10k-annotation corpus:

* **manager-level** — bare :class:`Graphitti`: ``update_annotation`` vs
  delete + recommit of a pre-built replacement (the replacement objects are
  prepared *outside* the timed region, so the baseline pays only the two
  index churns, not object construction).
* **service-level** — through :class:`GraphittiService` (no durability root):
  adds what the serving layer pays per mutation — lock traffic, epoch/cache
  bookkeeping and the re-derivation of the component a delete touched.

A third row, ``delete_component_local``, measures that re-derivation itself:
the p50 of ``service.delete_annotation`` against the same deletes each
followed by a forced from-scratch derivation of the whole component index
(what every delete paid before component-local maintenance).

Floors: **>= 2x** on both edit streams at full scale — the acceptance
criterion's 10k-annotation corpus, which is what CI runs — and **>= 5x** on
``delete_component_local``.  ``python -m benchmarks.bench_mutation`` prints
the table, writes ``BENCH_mutation.json``, and exits non-zero below a floor.
``BENCH_SMOKE=1`` shrinks the corpus for quick local runs; at 1/5 scale the
edit-stream ratios are dominated by fixed per-op costs, so their floor relaxes
to 1.4x.  The service row shares the manager row's floors: the 43x it used to
show was the whole-graph component rebuild its delete+recommit baseline paid,
and with that gone both rows measure the same thing, update vs two index
churns (about 2.2x at 10k).
"""

from __future__ import annotations

import os
import random
import time

import pytest

from benchmarks._harness import format_row, sample_stats, speedup, write_results
from repro.core.manager import Graphitti
from repro.core.persistence import decode_annotation, encode_annotation
from repro.datatypes.sequence import DnaSequence
from repro.service import GraphittiService, ServiceConfig

#: Minimum acceptable update-over-recommit speedup.
MUTATION_SPEEDUP_FLOOR = 2.0
#: Minimum acceptable component-local-over-from-scratch delete speedup (p50).
DELETE_LOCAL_FLOOR = 5.0

_SMOKE = bool(os.environ.get("BENCH_SMOKE"))

#: The smoke corpus is too small for the edit-stream ratios to express the
#: asymptotic win (fixed per-op costs dominate at 1/5 scale); their floor
#: relaxes there.  Full scale — what CI runs — keeps 2x.
_EDIT_FLOOR = 1.4 if _SMOKE else MUTATION_SPEEDUP_FLOOR

#: (corpus annotations, objects, timed edit operations)
SCALE = (2_000, 16, 120) if _SMOKE else (10_000, 40, 300)

_KEYWORDS = ("refined", "retracted", "curated", "remapped", "revised", "flagged")
_DOMAIN = "bench:chr1"
_OBJECT_LENGTH = 2_000


def build_corpus(name: str) -> tuple[Graphitti, list[str]]:
    """A populated manager plus the ids of the annotations it holds."""
    annotations, objects, _ = SCALE
    rng = random.Random(20260726)
    manager = Graphitti(name)
    object_ids = []
    for index in range(objects):
        object_id = f"bench_mut_seq_{index}"
        manager.register(
            DnaSequence(
                object_id,
                "ACGT" * (_OBJECT_LENGTH // 4),
                domain=_DOMAIN,
                offset=index * _OBJECT_LENGTH,
            )
        )
        object_ids.append(object_id)
    batch = []
    seen_extents: set[tuple[str, int, int]] = set()
    for serial in range(annotations):
        object_id = object_ids[serial % len(object_ids)]
        # Distinct extents per annotation: a *shared* referent moves for every
        # annotation marking it (the substructure itself is refined), while a
        # recommit forks a private copy — a real semantic difference the
        # equivalence probe below must not trip over.
        while True:
            start = rng.randrange(0, _OBJECT_LENGTH - 200)
            end = start + rng.randrange(20, 150)
            if (object_id, start, end) not in seen_extents:
                seen_extents.add((object_id, start, end))
                break
        batch.append(
            manager.new_annotation(
                f"mut-{serial}",
                title=f"churn annotation {serial}",
                creator=f"curator-{serial % 4}",
                keywords=["churn", _KEYWORDS[serial % len(_KEYWORDS)]],
                body=f"initial body of annotation {serial} on {object_id}",
            )
            .mark_sequence(object_id, start, end)
            .build()
        )
    manager.commit_many(batch)
    manager.contents.flush_index()
    annotation_ids = [annotation.annotation_id for annotation in batch]
    return manager, annotation_ids


def _edit_stream(annotation_ids: list[str], operations: int) -> list[tuple[str, dict]]:
    """The shared logical edit stream: (victim id, edit spec).

    Realistic churn mix (per 10 edits): 5 content-only refinements (title /
    keyword / body), 3 extent-only moves, 2 full revisions touching both —
    the shapes the motivation names (curators refine extents, fix terms).
    """
    rng = random.Random(77)
    victims = rng.sample(annotation_ids, operations)
    stream = []
    for op_index, victim in enumerate(victims):
        # Half-integer starts cannot collide with the integer corpus extents,
        # and the linear walk keeps the moved extents distinct from each
        # other — so neither path ever merges referents mid-stream.
        start = 0.5 + (op_index * 5.5) % (_OBJECT_LENGTH - 300)
        bucket = op_index % 10
        spec: dict = {}
        if bucket < 5 or bucket >= 8:  # content edit
            spec.update(
                {
                    "title": f"edited {op_index}",
                    "keywords": [
                        "churn",
                        _KEYWORDS[op_index % len(_KEYWORDS)],
                        f"stamp{op_index}",
                    ],
                    "body": f"revised body {op_index} after curator review",
                }
            )
        if bucket >= 5:  # extent move
            spec["_move"] = (start, start + 60)
        stream.append((victim, spec))
    return stream


def _update_changes(manager: Graphitti, victim: str, spec: dict) -> dict:
    """The ``update_annotation`` changes dict for one edit."""
    changes = {key: value for key, value in spec.items() if not key.startswith("_")}
    if "_move" in spec:
        annotation = manager.annotation(victim)
        referent_id = annotation.referents[0].referent_id
        start, end = spec["_move"]
        changes["move_referents"] = {referent_id: {"start": start, "end": end}}
    return changes


def _recommit_replacement(manager: Graphitti, victim: str, spec: dict):
    """A pre-built replacement annotation embodying the same edit."""
    replacement = decode_annotation(encode_annotation(manager.annotation(victim)))
    dublin_core = replacement.content.dublin_core
    if "title" in spec:
        dublin_core.title = spec["title"]
        dublin_core.subject = list(spec["keywords"])
        replacement.content.body = spec["body"]
    if "_move" in spec:
        referent = replacement.referents[0]
        start, end = spec["_move"]
        from repro.spatial.interval import Interval

        referent.ref.interval = Interval(start, end, domain=referent.ref.interval.domain)
        referent.ref.descriptor["start"] = start
        referent.ref.descriptor["end"] = end
    return replacement


def measure(level: str) -> dict[str, float]:
    """Timed edit stream through *level* ('manager' or 'service')."""
    _, _, operations = SCALE
    update_manager, annotation_ids = build_corpus(f"bench-mut-update-{level}")
    recommit_manager, _ = build_corpus(f"bench-mut-recommit-{level}")
    stream = _edit_stream(annotation_ids, operations)

    if level == "service":
        update_surface = GraphittiService(
            manager=update_manager, config=ServiceConfig(cache_capacity=0)
        )
        recommit_surface = GraphittiService(
            manager=recommit_manager, config=ServiceConfig(cache_capacity=0)
        )
    else:
        update_surface = update_manager
        recommit_surface = recommit_manager

    # Prepare both paths' inputs OUTSIDE the timed regions: the baseline pays
    # only its two index churns, never replacement-object construction.
    update_ops = [
        (victim, _update_changes(update_manager, victim, spec)) for victim, spec in stream
    ]
    recommit_ops = [
        (victim, _recommit_replacement(recommit_manager, victim, spec))
        for victim, spec in stream
    ]

    # Per-edit samples: the edit stream mutates state so it runs once, and
    # the per-operation latencies are what percentile reporting summarises.
    recommit_samples = []
    for victim, replacement in recommit_ops:
        start_time = time.perf_counter()
        recommit_surface.delete_annotation(victim)
        recommit_surface.commit(replacement)
        recommit_samples.append(time.perf_counter() - start_time)
    recommit_seconds = sum(recommit_samples)

    update_samples = []
    for victim, changes in update_ops:
        start_time = time.perf_counter()
        update_surface.update_annotation(victim, changes)
        update_samples.append(time.perf_counter() - start_time)
    update_seconds = sum(update_samples)

    # Both paths must land the same query-visible state.
    probes = (
        'SELECT contents WHERE { CONTENT CONTAINS "stamp7" }',
        'SELECT contents WHERE { CONTENT CONTAINS "revised" }',
        f"SELECT contents WHERE {{ INTERVAL OVERLAPS {_DOMAIN} [0, 500] }}",
    )
    for text in probes:
        updated = update_manager.query(text).annotation_ids
        recommitted = recommit_manager.query(text).annotation_ids
        assert updated == recommitted, f"update and recommit disagree on {text!r}"
    assert update_manager.stats_catalogue.counts() == recommit_manager.stats_catalogue.counts()

    row = {
        "workload": f"{level}_edit_stream",
        "baseline_seconds": recommit_seconds,
        "candidate_seconds": update_seconds,
        "speedup": speedup(recommit_seconds, update_seconds),
        "operations": operations,
    }
    row.update(sample_stats(recommit_samples, prefix="baseline"))
    row.update(sample_stats(update_samples, prefix="candidate"))
    return row


def measure_delete() -> dict[str, float]:
    """p50 of a service delete: component-local vs forced from-scratch."""
    _, _, operations = SCALE
    samples: dict[str, list[float]] = {}
    for side in ("baseline", "candidate"):
        manager, annotation_ids = build_corpus(f"bench-mut-delete-{side}")
        service = GraphittiService(manager=manager, config=ServiceConfig(cache_capacity=0))
        graph = manager.agraph.graph
        samples[side] = []
        for victim in random.Random(99).sample(annotation_ids, operations):
            start_time = time.perf_counter()
            service.delete_annotation(victim)
            if side == "baseline":
                graph._rebuild_components()  # noqa: SLF001 - the from-scratch reference
            samples[side].append(time.perf_counter() - start_time)
    row = {"workload": "delete_component_local", "operations": operations}
    row.update(sample_stats(samples["baseline"], prefix="baseline"))
    row.update(sample_stats(samples["candidate"], prefix="candidate"))
    row["baseline_seconds"] = row["baseline_p50_seconds"]
    row["candidate_seconds"] = row["candidate_p50_seconds"]
    row["speedup"] = speedup(row["baseline_seconds"], row["candidate_seconds"])
    return row


# -- pytest-benchmark entry points --------------------------------------------


@pytest.fixture(scope="module")
def edit_fixture():
    manager, annotation_ids = build_corpus("bench-mut-pytest")
    stream = _edit_stream(annotation_ids, 50)
    return manager, stream


def test_update_annotation(benchmark, edit_fixture):
    manager, stream = edit_fixture
    iterator = iter(stream * 1000)

    def one_edit():
        victim, spec = next(iterator)
        manager.update_annotation(victim, _update_changes(manager, victim, spec))

    benchmark(one_edit)


# -- report -------------------------------------------------------------------


def report() -> tuple[str, bool]:
    annotations, objects, operations = SCALE
    rows = [measure("manager"), measure("service"), measure_delete()]
    lines = [
        "PERF-9  mutation lifecycle: update_annotation vs delete+recommit "
        f"({annotations} annotations, {objects} objects, {operations} edits"
        f"{', smoke' if _SMOKE else ''})"
    ]
    widths = [24, 18, 14, 10, 8]
    lines.append(
        format_row(["workload", "baseline (ms)", "candidate (ms)", "speedup", "floor"], widths)
    )
    ok = True
    for row in rows:
        floor = DELETE_LOCAL_FLOOR if row["workload"].startswith("delete") else _EDIT_FLOOR
        ok = ok and row["speedup"] >= floor
        row["speedup_floor"] = floor
        lines.append(
            format_row(
                [
                    row["workload"],
                    f"{row['baseline_seconds'] * 1e3:.3f}",
                    f"{row['candidate_seconds'] * 1e3:.3f}",
                    f"{row['speedup']:.1f}x",
                    f"{floor:.1f}x",
                ],
                widths,
            )
        )
    path = write_results(
        "mutation",
        rows,
        annotations=annotations,
        objects=objects,
        operations=operations,
        smoke=_SMOKE,
        speedup_floor=MUTATION_SPEEDUP_FLOOR,
        delete_local_floor=DELETE_LOCAL_FLOOR,
    )
    lines.append(f"results written to {path}")
    if not ok:
        lines.append("FAIL: a mutation row is below its speedup floor")
    return "\n".join(lines), ok


if __name__ == "__main__":
    text, ok = report()
    print(text)
    raise SystemExit(0 if ok else 1)

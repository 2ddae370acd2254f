"""Recovery builds each index once — and recovers the instance it always did.

``recover_manager`` hands the snapshot's records to the substrates as one
batch (:func:`repro.core.persistence.wire_annotations`).  The reference here
is the same durable root recovered the way it used to be: every record wired
on its own through ``wire_annotation``, every document indexed on its own.
Both instances must be indistinguishable, and stay so under further writes.

Also pinned: recovery pauses the cyclic collector and always puts it back,
and the first read after a recovery materialises nothing it does not return.
"""

from __future__ import annotations

import gc
import json
import random
import shutil
import sys
import threading
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
if str(REPO) not in sys.path:  # the e2e benchmark's corpus and probe set are the fixture
    sys.path.insert(0, str(REPO))

from benchmarks.e2e.corpus import FULL, SMOKE, Corpus, Schedule  # noqa: E402
from benchmarks.e2e.driver import apply_op, ingest, service_config  # noqa: E402
from benchmarks.e2e.oracle import pages, probe_texts  # noqa: E402

from repro.core.annotation import Annotation  # noqa: E402
from repro.core.persistence import (  # noqa: E402
    decode_annotation,
    hydrate_catalogue,
    rebuild,
    wire_annotation,
)
from repro.datatypes.base import DataType  # noqa: E402
from repro.service.durability import (  # noqa: E402
    SNAPSHOT_FILE,
    WAL_FILE,
    apply_record,
    recover_manager,
)
from repro.service.service import GraphittiService  # noqa: E402
from repro.service.wal import read_segmented_records  # noqa: E402
from repro.workloads import run_churn_workload, seed_churn_corpus  # noqa: E402

# -- a durable root: e2e corpus + churn, snapshot + WAL tail --------------------------


def build_root(root: Path, scale, churn_ops: int = 150) -> tuple[Corpus, Schedule]:
    """Ingest the e2e corpus (intervals and regions), churn it, checkpoint,
    then leave a WAL tail of mixed writes behind, as a crash would."""
    corpus = Corpus(scale)
    schedule = Schedule(corpus, random.Random("bulk-build"))
    service = GraphittiService.open(root, config=service_config())
    try:
        ingest(service, corpus)
        churn = seed_churn_corpus(service, objects=6, annotations=120, tag="pre")
        summary = run_churn_workload(service, churn, operations=churn_ops)
        assert summary["errors"] == []
        service.checkpoint()
        for op in schedule.mixed(30, 1, iter(())):  # 30 writes, no reads
            apply_op(service, op)
    finally:
        service.close()
    return corpus, schedule


def recover_record_by_record(root: Path):
    """``recover_manager``'s result, built the way it was before batching."""
    payload = json.loads((root / SNAPSHOT_FILE).read_text(encoding="utf-8"))
    records = payload["annotations"]
    # No annotation payloads: every document is rendered, added and indexed
    # on its own, the way WAL replay adds one.
    manager = rebuild({**payload, "annotations": []})
    for item in records:
        wire_annotation(manager, decode_annotation(item), add_content_document=True)
    hydrate_catalogue(manager)
    for record in read_segmented_records(root / WAL_FILE)[0]:
        if record["seq"] > payload["wal_seq"]:
            apply_record(manager, record)
    hydrate_catalogue(manager)
    manager.agraph.graph.rebuild_components()
    return manager


def partition(graph) -> set[frozenset]:
    return {frozenset(component) for component in graph.components()}


def assert_same_instance(bulk, reference, probes: list[str]) -> None:
    assert bulk.statistics() == reference.statistics()
    summaries = bulk.substructures.extent_summaries()
    for kind, rows in reference.substructures.extent_summaries().items():
        for key, row in rows.items():  # bit for bit, not merely ==
            assert summaries[kind][key]["total_measure"].hex() == row["total_measure"].hex()
    store, other = bulk.substructures, reference.substructures
    for domain in store.interval_family.domains:
        assert store.interval_bounds(domain) == other.interval_bounds(domain)
    for space in store.rtree_family.spaces:
        assert store.region_bounds(space) == other.region_bounds(space)
    assert bulk.annotation_ids() == reference.annotation_ids()
    for text in probes:
        assert pages(bulk.query(text)) == pages(reference.query(text)), text
    for manager in (bulk, reference):
        report = manager.check_integrity()
        assert report.ok, report.errors
    derived = partition(bulk.agraph.graph)
    assert derived == partition(reference.agraph.graph)
    for manager in (bulk, reference):  # both: the from-scratch pass counts as work
        manager.agraph.graph._rebuild_components()
        assert partition(manager.agraph.graph) == derived
    bulk.contents.flush_index()
    reference.contents.flush_index()
    assert bulk.contents._index._postings == reference.contents._index._postings
    assert bulk.contents._index._doc_lengths == reference.contents._index._doc_lengths


def post_recovery_writes(schedule: Schedule, groups: int) -> list[tuple]:
    """The schedule's edits, moves and deletes.  A recovered instance holds
    catalogue entries for its old objects, so nothing new can be marked on
    them: the commits are left out, with every later op on their ids."""
    never_committed: set[str] = set()
    ops = []
    for op in schedule.mixed(groups, 1, iter(())):
        if op[1] == "commit":
            never_committed.add(op[2]["id"])
        elif op[2] not in never_committed:
            ops.append(op)
    return ops


def region_moves(manager, count: int) -> list[tuple]:
    """Moves of *count* image-region referents (remove + insert in the R-tree)."""
    ops = []
    for referent in manager.substructures.referents_of_type(DataType.IMAGE)[:count]:
        owner = manager.agraph.contents_annotating(referent.referent_id)[0]
        lo = [value + 7.0 for value in referent.ref.rect.lo]
        hi = [value + 11.0 for value in referent.ref.rect.hi]
        extent = {"lo": lo, "hi": hi}
        ops.append(("write", "update", owner, {"move_referents": {referent.referent_id: extent}}))
    return ops


def test_bulk_recovery_equals_record_by_record_recovery_and_stays_equal(tmp_path):
    root = tmp_path / "root"
    corpus, schedule = build_root(root, SMOKE)
    probes = probe_texts(corpus)
    bulk, info = recover_manager(root)
    assert info["snapshot"] and info["replayed"] == 30
    reference = recover_record_by_record(root)
    # The two really were built differently: parked documents in one batch
    # against documents added and indexed one at a time.
    assert bulk.contents.lazy_document_count > 0 == reference.contents.lazy_document_count
    assert_same_instance(bulk, reference, probes)

    # 200+ further mixed writes, applied to both.
    writes = post_recovery_writes(schedule, 300) + region_moves(bulk, 12)
    assert len(writes) >= 80
    for manager in (bulk, reference):
        for op in writes:
            apply_op(manager, op)
        churn = seed_churn_corpus(manager, objects=5, annotations=90, tag="post")
        summary = run_churn_workload(manager, churn, operations=140, seed=31)
        assert summary["errors"] == []
        manager.agraph.graph.rebuild_components()
    assert_same_instance(bulk, reference, probes)


# -- the collector is paused for the build and always put back -----------------------


@pytest.fixture
def small_root(tmp_path):
    root = tmp_path / "small"
    service = GraphittiService.open(root, config=service_config())
    try:
        seed_churn_corpus(service, objects=2, annotations=20)
        service.checkpoint()
    finally:
        service.close()
    return root


@pytest.fixture
def collector():
    """Hand the test the collector enabled; restore whatever it was."""
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    (gc.enable if was_enabled else gc.disable)()


def test_recovery_runs_with_the_collector_paused_and_restores_it(small_root, collector, monkeypatch):
    import repro.service.durability as durability

    seen = []
    real_rebuild = durability.rebuild
    monkeypatch.setattr(
        durability, "rebuild", lambda payload: seen.append(gc.isenabled()) or real_rebuild(payload)
    )
    recover_manager(small_root)
    assert seen == [False] and gc.isenabled()  # enabled before -> enabled after
    gc.disable()
    recover_manager(small_root)
    assert seen == [False, False] and not gc.isenabled()  # disabled before -> still disabled


def test_collector_is_restored_when_the_snapshot_is_corrupt(small_root, collector):
    snapshot = small_root / SNAPSHOT_FILE
    payload = json.loads(snapshot.read_text(encoding="utf-8"))
    del payload["object_metadata"]  # still JSON: ``rebuild`` is what raises
    del payload["crc32"]  # (a doctored snapshot that kept its checksum would not get that far)
    snapshot.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(KeyError):
        recover_manager(small_root)
    assert gc.isenabled()
    snapshot.write_text('{"wal_seq": 0, "annotations": [', encoding="utf-8")  # torn JSON
    gc.disable()
    with pytest.raises(json.JSONDecodeError):
        recover_manager(small_root)
    assert not gc.isenabled()


# -- the first read after recovery ---------------------------------------------------


@pytest.fixture(scope="module")
def full_root(tmp_path_factory):
    """A checkpointed root of the benchmark's full corpus (2 000 annotations)."""
    root = tmp_path_factory.mktemp("full") / "root"
    corpus = Corpus(FULL)
    service = GraphittiService.open(root, config=service_config())
    try:
        ingest(service, corpus)
        service.checkpoint()
    finally:
        service.close()
    return root, corpus


def test_first_keyword_query_after_recovery_materialises_only_what_it_returns(
    full_root, tmp_path, monkeypatch
):
    root, corpus = full_root
    shutil.copytree(root, tmp_path / "root")
    regenerated: list[str] = []
    to_document = Annotation.to_document
    monkeypatch.setattr(
        Annotation,
        "to_document",
        lambda self: regenerated.append(self.annotation_id) or to_document(self),
    )
    service = GraphittiService.recover(tmp_path / "root", config=service_config())
    try:
        contents = service.manager.contents
        assert contents.lazy_document_count == FULL.annotations
        assert contents.stale_document_count == 0
        keyword = corpus.vocabulary[0]  # the Zipf head: hundreds of matches
        # Evaluating a keyword condition reads the parked texts, never a tree.
        found = service.query(f'SELECT referents WHERE {{ CONTENT CONTAINS "{keyword}" }}')
        assert len(found.annotation_ids) > 100
        assert contents.lazy_document_count == FULL.annotations
        assert contents.stale_document_count == 0
        assert regenerated == []
        # A page of contents builds the trees on that page, and nothing else.
        page = service.query(f'SELECT contents WHERE {{ CONTENT CONTAINS "{keyword}" }} LIMIT 7')
        assert len(page.annotation_ids) == 7
        assert sorted(regenerated) == sorted(page.annotation_ids)
        assert contents.lazy_document_count == FULL.annotations - 7
        assert contents.stale_document_count == 0
    finally:
        service.close()


def test_concurrent_first_readers_of_a_recovered_service_get_the_live_pages(full_root, tmp_path):
    root, corpus = full_root
    shutil.copytree(root, tmp_path / "root")
    live = GraphittiService(config=service_config())  # the in-memory twin
    ingest(live, corpus)
    probes = probe_texts(corpus)
    expected = {text: pages(live.query(text)) for text in probes}
    service = GraphittiService.recover(tmp_path / "root", config=service_config())
    failures: list[str] = []
    start = threading.Barrier(8)

    def reader(offset: int) -> None:
        try:
            start.wait(timeout=30)
            for index in range(len(probes)):  # every thread a different rotation
                text = probes[(index + offset * 4) % len(probes)]
                if pages(service.query(text)) != expected[text]:
                    failures.append(text)
        except Exception as error:  # noqa: BLE001 - reported below, on the main thread
            failures.append(repr(error))

    threads = [threading.Thread(target=reader, args=(offset,)) for offset in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
        alive = [thread for thread in threads if thread.is_alive()]
        service.close()
        live.close()
    assert not alive
    assert failures == []
    # The readers built only the trees their pages returned.
    assert 0 < service.manager.contents.lazy_document_count < FULL.annotations

"""Concurrency stress tests for the serving layer (satellite: no torn reads,
cache coherence across epoch bumps, serial-replay equivalence).

The mixed workload drives real threads doing `query` / `commit` /
`bulk_commit` / `delete_annotation` through one `GraphittiService`.  Torn
reads are detected two ways: readers run full integrity checks under the read
lock (a partially applied commit fails them), and every id a query returns
must denote an annotation that was actually committed.  Afterwards the final
state is checked against a serial replay of the durable log, and cache
coherence is probed across explicit epoch bumps."""

import pytest

from repro.core.manager import Graphitti
from repro.service import GraphittiService, ServiceConfig
from repro.service.durability import apply_record
from repro.service.wal import read_segmented_records
from repro.workloads.service_scenario import run_service_workload, seed_service_objects


@pytest.fixture
def stressed(tmp_path):
    """A durable service after a concurrent mixed workload, plus its summary."""
    root = tmp_path / "stress"
    service = GraphittiService.open(root, config=ServiceConfig(checkpoint_on_close=False))
    object_ids = seed_service_objects(service)
    summary = run_service_workload(
        service,
        object_ids,
        readers=4,
        writers=3,
        queries_per_reader=120,
        commits_per_writer=30,
        delete_every=7,
        integrity_every=25,
        seed=20240703,
        run_tag="stress",
    )
    yield service, summary, root
    service.close()


def test_no_torn_reads_or_thread_errors(stressed):
    service, summary, _ = stressed
    assert summary["errors"] == []
    assert summary["integrity_checks"] > 0
    assert summary["deletes"] > 0  # the mix really exercised removal
    assert summary["bulk_commits"] > 0
    report = service.check_integrity()
    assert report.ok, report.errors


def test_final_state_matches_ledger(stressed):
    service, summary, _ = stressed
    live = set(summary["live_ids"])
    served = {
        annotation.annotation_id
        for annotation in service.manager.annotations()
        if annotation.annotation_id.startswith("svc-w")
    }
    assert served == live


def test_final_state_matches_serial_replay(stressed):
    """Replaying the WAL serially on a fresh instance yields the same state
    the concurrent run produced — writer serialization really worked."""
    service, _, root = stressed
    records, torn = read_segmented_records(root / "wal.jsonl")
    assert not torn
    reference = Graphitti("stress")
    for record in records:
        apply_record(reference, record)
    live_stats = service.statistics()
    reference_stats = reference.statistics()
    for key in ("annotations", "referents", "agraph_nodes", "agraph_edges",
                "indexed_intervals", "data_objects"):
        assert live_stats[key] == reference_stats[key]
    probe = 'SELECT contents WHERE { CONTENT CONTAINS "workload" }'
    assert service.query(probe).annotation_ids == reference.query(probe).annotation_ids


def test_cache_coherent_after_every_epoch_bump(stressed):
    """After each kind of mutation (epoch bump) the cache must serve the new
    truth immediately — never a stale result."""
    service, _, _ = stressed
    probe = 'SELECT contents WHERE { CONTENT CONTAINS "coherencecheck" }'
    assert service.query(probe).annotation_ids == []
    object_id = seed_service_objects(service, sequences=1)[0]

    (
        service.new_annotation("coh-1", keywords=["coherencecheck"], body="epoch bump 1")
        .mark_sequence(object_id, 0, 25)
        .commit()
    )
    assert service.query(probe).annotation_ids == ["coh-1"]

    batch = [
        service.new_annotation(f"coh-bulk-{index}", keywords=["coherencecheck"], body="bulk bump")
        .mark_sequence(object_id, 30 + index * 10, 35 + index * 10)
        .build()
        for index in range(3)
    ]
    service.bulk_commit(batch)
    assert service.query(probe).annotation_ids == [
        "coh-1", "coh-bulk-0", "coh-bulk-1", "coh-bulk-2",
    ]

    service.delete_annotation("coh-1")
    assert service.query(probe).annotation_ids == ["coh-bulk-0", "coh-bulk-1", "coh-bulk-2"]

    cache_stats = service.statistics()["service"]["query_cache"]
    assert cache_stats["invalidations"] >= 1


def test_cache_still_hits_between_mutations(stressed):
    service, _, _ = stressed
    probe = 'SELECT contents WHERE { CONTENT CONTAINS "workload" }'
    before = service.statistics()["service"]["query_cache"]["hits"]
    first = service.query(probe)
    second = service.query(probe)
    assert second.annotation_ids == first.annotation_ids
    assert service.statistics()["service"]["query_cache"]["hits"] > before

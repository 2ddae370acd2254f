"""Crash-recovery tests: a WAL prefix cut at ANY record must recover cleanly.

The scripted workload below registers objects, commits, and deletes through a
durable service.  The tests then replay every possible crash point — each
record boundary and byte-level tears inside records — and assert the
recovered instance matches a serial replay of exactly the surviving records:
same statistics, same query results, clean integrity."""

import shutil

import pytest

from repro.core.manager import Graphitti
from repro.datatypes import DnaSequence
from repro.ontology import build_protein_ontology
from repro.service import GraphittiService, ServiceConfig, read_segmented_records
from repro.service.durability import apply_record, recover_manager
from repro.service.wal import WriteAheadLog

PROBE_QUERIES = (
    'SELECT contents WHERE { CONTENT CONTAINS "recovery" }',
    'SELECT contents WHERE { CONTENT CONTAINS "alpha" }',
    "SELECT contents WHERE { INTERVAL OVERLAPS rec:chr1 [0, 500] }",
)

NO_CLOSE_CHECKPOINT = ServiceConfig(checkpoint_on_close=False)


def scripted_root(tmp_path, name="scripted"):
    """Run the scripted mutation sequence; returns the root (WAL only, no
    mid-script checkpoint, so every op is a crash point)."""
    root = tmp_path / name
    service = GraphittiService.open(root, config=NO_CLOSE_CHECKPOINT)
    service.register_ontology(build_protein_ontology())
    service.register(DnaSequence("rec_seq1", "ACGT" * 200, domain="rec:chr1"))
    service.register(DnaSequence("rec_seq2", "TGCA" * 200, domain="rec:chr1", offset=800))
    for index in range(5):
        (
            service.new_annotation(
                f"rec-{index}",
                title=f"recovery annotation {index}",
                creator=f"author-{index % 2}",
                keywords=["recovery", "alpha" if index % 2 else "beta"],
                body=f"recovery scripted annotation {index}",
            )
            .mark_sequence(f"rec_seq{index % 2 + 1}", index * 30, index * 30 + 20,
                           ontology_terms=["protein:protease"] if index == 0 else ())
            .commit()
        )
    service.delete_annotation("rec-1")
    (
        service.new_annotation("rec-5", keywords=["recovery"], body="post-delete annotation")
        .mark_sequence("rec_seq1", 300, 340)
        .commit()
    )
    # The two mutation-lifecycle record types join the crash matrix: an
    # in-place update (content edit + extent move) and a cascading object
    # retirement (rec_seq2 still carries rec-3; rec-1 is already gone).
    moved = service.annotation("rec-2").referents[0].referent_id
    service.update_annotation(
        "rec-2",
        {
            "title": "recovery annotation 2 (revised)",
            "keywords": ["recovery", "revised"],
            "body": "recovery scripted annotation 2, refined by a curator",
            "move_referents": {moved: {"start": 410, "end": 440}},
        },
    )
    service.delete_object("rec_seq2")
    service.close()
    return root


def replay_reference(records):
    """Serial replay of *records* on a fresh instance (the expected state)."""
    manager = Graphitti("scripted")
    for record in records:
        apply_record(manager, record)
    return manager


def assert_equivalent(recovered, expected):
    recovered_stats = recovered.statistics()
    expected_stats = expected.statistics()
    for volatile in ("mutation_epoch", "service"):
        recovered_stats.pop(volatile, None)
        expected_stats.pop(volatile, None)
    assert recovered_stats == expected_stats
    for text in PROBE_QUERIES:
        assert recovered.query(text).annotation_ids == expected.query(text).annotation_ids
    report = recovered.check_integrity()
    assert report.ok, report.errors


def test_recover_full_log(tmp_path):
    root = scripted_root(tmp_path)
    records, torn = read_segmented_records(root / "wal.jsonl")
    # 1 ontology + 2 registers + 6 commits + 1 delete + 1 update + 1 delete_object
    assert not torn and len(records) == 12
    assert [record["op"] for record in records[-2:]] == ["update_annotation", "delete_object"]
    service = GraphittiService.recover(root)
    assert service.recovery_info["replayed"] == 12
    assert_equivalent(service.manager, replay_reference(records))
    # Recovery pre-rebuilt the component index (the delete left it stale).
    assert service.manager.agraph.graph.components_stale is False
    service.close()


def test_crash_at_every_record_boundary(tmp_path):
    root = scripted_root(tmp_path)
    records, _ = read_segmented_records(root / "wal.jsonl")
    snapshot_bytes = (root / "snapshot.json").read_bytes()
    for cut in range(1, len(records) + 1):
        crash_root = tmp_path / f"crash-{cut}"
        crash_root.mkdir()
        (crash_root / "snapshot.json").write_bytes(snapshot_bytes)
        with WriteAheadLog(crash_root / "wal.jsonl", durability="never") as wal:
            for record in records[:cut]:
                wal.append(record["op"], record["payload"])
        recovered, info = recover_manager(crash_root)
        assert info["replayed"] == cut
        assert_equivalent(recovered, replay_reference(records[:cut]))
        shutil.rmtree(crash_root)


def test_crash_mid_record_tears_tail(tmp_path):
    root = scripted_root(tmp_path)
    wal_bytes = (root / "wal.jsonl").read_bytes()
    records, _ = read_segmented_records(root / "wal.jsonl")
    # Cut a few bytes into the last record: the tail is torn, every earlier
    # record survives.
    offsets = wal_bytes.rstrip(b"\n").rfind(b"\n")
    for cut_position in (offsets + 4, len(wal_bytes) - 3):
        crash_root = tmp_path / f"tear-{cut_position}"
        crash_root.mkdir()
        (crash_root / "snapshot.json").write_bytes((root / "snapshot.json").read_bytes())
        (crash_root / "wal.jsonl").write_bytes(wal_bytes[:cut_position])
        recovered, info = recover_manager(crash_root)
        assert info["torn_tail"] is True
        assert info["replayed"] == len(records) - 1
        assert_equivalent(recovered, replay_reference(records[:-1]))
        shutil.rmtree(crash_root)


def test_crash_between_snapshot_and_truncate(tmp_path):
    """A checkpoint that crashed after the snapshot rename but before the WAL
    truncate must not double-apply: replay skips records the snapshot covers."""
    root = scripted_root(tmp_path)
    wal_bytes = (root / "wal.jsonl").read_bytes()
    records, _ = read_segmented_records(root / "wal.jsonl")

    service = GraphittiService.recover(root, config=NO_CLOSE_CHECKPOINT)
    service.checkpoint()  # snapshot written, WAL truncated
    reference_stats = service.statistics()
    service.close()
    # Undo the truncate, as if the crash hit between rename and truncate.
    (root / "wal.jsonl").write_bytes(wal_bytes)

    recovered, info = recover_manager(root)
    assert info["skipped"] == len(records)
    assert info["replayed"] == 0
    recovered_stats = recovered.statistics()
    for volatile in ("mutation_epoch", "service"):
        recovered_stats.pop(volatile, None)
        reference_stats.pop(volatile, None)
    assert recovered_stats == reference_stats


def test_recovered_instance_keeps_serving(tmp_path):
    """Recovery is not read-only: the recovered service accepts new mutations
    and logs them after the replayed history."""
    root = scripted_root(tmp_path)
    service = GraphittiService.recover(root, config=NO_CLOSE_CHECKPOINT)
    # Old objects are catalogue placeholders (no native residues), so new
    # annotations go on freshly registered objects — same as a live deployment
    # ingesting new data after a failover.
    service.register(DnaSequence("rec_seq3", "ACGT" * 150, domain="rec:chr1", offset=1600))
    (
        service.new_annotation("post-crash", keywords=["recovery"], body="committed after recovery")
        .mark_sequence("rec_seq3", 100, 140)
        .commit()
    )
    assert "post-crash" in service.query(PROBE_QUERIES[0]).annotation_ids
    service.close()
    service2 = GraphittiService.recover(root)
    assert "post-crash" in service2.query(PROBE_QUERIES[0]).annotation_ids
    assert service2.check_integrity().ok
    service2.close()


def test_recover_empty_root_raises(tmp_path):
    from repro.errors import ServiceError

    with pytest.raises(ServiceError):
        recover_manager(tmp_path / "nothing-here")


def test_wal_numbering_survives_reopen_after_checkpoint(tmp_path):
    """Regression: records appended after a close/reopen cycle must number
    ABOVE the snapshot's wal_seq, or recovery silently skips acknowledged
    mutations as already-applied."""
    root = tmp_path / "reopen"
    service = GraphittiService.open(root)
    service.register(DnaSequence("seq_a", "ACGT" * 100, domain="ro:1"))
    service.close()  # checkpoints: snapshot wal_seq > 0, WAL truncated

    service = GraphittiService.open(root, config=NO_CLOSE_CHECKPOINT)
    base_seq = service._store._snapshot_wal_seq()
    assert base_seq > 0
    service.register(DnaSequence("seq_b", "TGCA" * 100, domain="ro:1", offset=400))
    (
        service.new_annotation("reopen-1", keywords=["reopened"], body="after reopen")
        .mark_sequence("seq_b", 10, 40)
        .commit()
    )
    service.close()  # no checkpoint: the new records stay in the WAL

    records, _ = read_segmented_records(root / "wal.jsonl")
    assert all(record["seq"] > base_seq for record in records)
    recovered, info = recover_manager(root)
    assert info["skipped"] == 0
    assert info["replayed"] == len(records) == 2
    assert "seq_b" in recovered.registry
    assert recovered.annotation("reopen-1").content.keywords() == ["reopened"]


def test_crash_tears_checkpoint_boundary_record(tmp_path):
    """Crash matrix: the torn tail IS the checkpoint-boundary record.

    A checkpoint that crashed between the snapshot rename and the WAL
    truncate leaves the full log behind; if the crash additionally tore the
    log's final line — the very record the snapshot's ``wal_seq`` points at —
    recovery must neither lose that record's effects (the snapshot covers
    them) nor double-apply any earlier record, and the reopened WAL must
    keep numbering above the snapshot's mark."""
    import json

    root = scripted_root(tmp_path)
    records, _ = read_segmented_records(root / "wal.jsonl")

    service = GraphittiService.recover(root, config=NO_CLOSE_CHECKPOINT)
    reference_stats = service.statistics()
    service.checkpoint()  # snapshot embeds wal_seq == records[-1]["seq"]
    boundary_seq = json.loads((root / "snapshot.json").read_text())["wal_seq"]
    assert boundary_seq == records[-1]["seq"]
    service.close()

    # Undo the truncate and tear the boundary record's line.
    wal_path = root / "wal.jsonl"
    with WriteAheadLog(wal_path, durability="never") as wal:
        for record in records:
            wal.append(record["op"], record["payload"])
    raw = wal_path.read_bytes()
    cut = raw.rstrip(b"\n").rfind(b"\n") + 5  # a few bytes into the last line
    wal_path.write_bytes(raw[:cut])

    recovered, info = recover_manager(root)
    assert info["torn_tail"] is True
    assert info["replayed"] == 0  # everything is snapshot-covered
    assert info["skipped"] == len(records) - 1
    recovered_stats = recovered.statistics()
    for volatile in ("mutation_epoch", "service"):
        recovered_stats.pop(volatile, None)
        reference_stats.pop(volatile, None)
    assert recovered_stats == reference_stats

    # Reopening must not mis-advance (or regress) wal_seq: the next append
    # lands strictly above the snapshot's boundary mark.
    service = GraphittiService.recover(root, config=NO_CLOSE_CHECKPOINT)
    assert service._store.wal.last_seq == boundary_seq
    service.register(DnaSequence("rec_seq9", "ACGT" * 50, domain="rec:chr1", offset=4000))
    service.close()
    post_records, _ = read_segmented_records(root / "wal.jsonl")
    assert post_records[-1]["seq"] == boundary_seq + 1
    recovered, info = recover_manager(root)
    assert info["replayed"] == 1  # the new record is NOT skipped
    assert "rec_seq9" in recovered.registry


def test_snapshotless_torn_only_wal_recovers_to_fresh(tmp_path):
    """Crash matrix: the very first append tore and no snapshot exists.

    Nothing was ever acknowledged, so recovery must hand back an empty
    instance (and report the torn tail) instead of refusing to open."""
    root = tmp_path / "first-append"
    root.mkdir()
    (root / "wal.jsonl").write_bytes(b'{"seq": 1, "op": "comm')  # torn mid-append

    recovered, info = recover_manager(root)
    assert info == {
        "snapshot": False,
        "base_seq": 0,
        "replayed": 0,
        "skipped": 0,
        "torn_tail": True,
    }
    assert recovered.annotation_count == 0

    service = GraphittiService.open(root, config=NO_CLOSE_CHECKPOINT)
    assert service.recovery_info is not None
    assert service.recovery_info["torn_tail"] is True
    service.register(DnaSequence("fresh_seq", "ACGT" * 50, domain="fa:1"))
    service.close()
    records, torn = read_segmented_records(root / "wal.jsonl")
    assert not torn and [record["seq"] for record in records] == [1]


def test_non_monotonic_wal_seq_is_corruption(tmp_path):
    """A repeated or regressing seq means acknowledged history was rewritten;
    silently replaying it would double-apply — recovery must refuse."""
    from repro.errors import WalCorruptionError

    root = scripted_root(tmp_path)
    wal_path = root / "wal.jsonl"
    records, _ = read_segmented_records(wal_path)
    lines = wal_path.read_bytes().splitlines(keepends=True)
    # duplicate the first commit record's line at the end (a doctored log)
    wal_path.write_bytes(b"".join(lines) + lines[3])
    with pytest.raises(WalCorruptionError):
        recover_manager(root)


def test_open_reports_torn_tail(tmp_path):
    """Regression: open() must not silently repair a torn WAL tail before
    recovery gets to see (and report) it."""
    root = scripted_root(tmp_path)
    wal_path = root / "wal.jsonl"
    wal_path.write_bytes(wal_path.read_bytes()[:-7])  # crash mid-append
    service = GraphittiService.open(root, config=NO_CLOSE_CHECKPOINT)
    assert service.recovery_info is not None
    assert service.recovery_info["torn_tail"] is True
    assert service.check_integrity().ok
    service.close()

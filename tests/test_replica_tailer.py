"""WalCursor semantics: incremental polls, torn tails, truncation, gaps.

The cursor is the shipping side of replication — these tests pin the
contract the follower pipeline builds on: complete records are returned
exactly once, a torn tail is never consumed and never an error, mid-file
damage refuses to replay (as recovery refuses it), a file that shrank
restarts the cursor idempotently, a sealed segment is read whole, and
history the cursor never saw raises :class:`ReplicationGapError` instead of
silently dropping it.
"""

import json

import pytest

from repro.errors import WalCorruptionError
from repro.service.wal import read_segmented_records, sealed_segment_name
from repro.replica import (
    ReplicationGapError,
    WalCursor,
    decode_shipment,
    encode_shipment,
    tear_payload,
)


def _record(seq, op="commit"):
    return {"seq": seq, "op": op, "payload": {"annotation_id": f"a{seq}"}}


def _line(seq, op="commit"):
    return json.dumps(_record(seq, op), separators=(",", ":")) + "\n"


def _write(path, *seqs, tail=""):
    path.write_text("".join(_line(seq) for seq in seqs) + tail)


def test_poll_missing_file_returns_nothing(tmp_path):
    cursor = WalCursor(tmp_path / "wal.jsonl")
    assert cursor.poll() == []
    assert cursor.last_seq == 0


def test_poll_returns_each_record_exactly_once(tmp_path):
    wal = tmp_path / "wal.jsonl"
    _write(wal, 1, 2)
    cursor = WalCursor(wal)
    assert [r["seq"] for r in cursor.poll()] == [1, 2]
    assert cursor.poll() == []  # nothing new
    with wal.open("a") as handle:
        handle.write(_line(3))
    assert [r["seq"] for r in cursor.poll()] == [3]
    assert cursor.last_seq == 3
    assert cursor.poll() == []


def test_torn_tail_never_consumed_then_completed(tmp_path):
    wal = tmp_path / "wal.jsonl"
    full_line = _line(3)
    _write(wal, 1, 2, tail=full_line[: len(full_line) // 2])
    cursor = WalCursor(wal)
    assert [r["seq"] for r in cursor.poll()] == [1, 2]
    # The torn half-record was not consumed; completing it delivers it whole.
    _write(wal, 1, 2, 3)
    assert [r["seq"] for r in cursor.poll()] == [3]


def test_damaged_final_line_treated_as_torn(tmp_path):
    wal = tmp_path / "wal.jsonl"
    _write(wal, 1, tail="{garbage\n")
    cursor = WalCursor(wal)
    assert [r["seq"] for r in cursor.poll()] == [1]
    # The damaged line sits untouched; a reopened WAL truncates it away and
    # the shrink-restart path lets the cursor carry on.
    _write(wal, 1, 2)
    assert [r["seq"] for r in cursor.poll()] == [2]


def test_mid_file_damage_raises(tmp_path):
    wal = tmp_path / "wal.jsonl"
    wal.write_text(_line(1) + "{garbage\n" + _line(2))
    cursor = WalCursor(wal)
    with pytest.raises(WalCorruptionError):
        cursor.poll()


def test_damage_before_a_torn_tail_raises_like_read_records(tmp_path):
    wal = tmp_path / "wal.jsonl"
    wal.write_text(_line(1) + "{damaged\n" + '{"seq":3')
    with pytest.raises(WalCorruptionError):
        read_segmented_records(wal)
    with pytest.raises(WalCorruptionError):
        WalCursor(wal).poll()


def test_a_sealed_record_over_64_kib_is_not_skipped(tmp_path):
    wal = tmp_path / "wal.jsonl"
    big = {"seq": 2, "op": "commit", "payload": {"body": "x" * 70_000}}
    sealed = tmp_path / sealed_segment_name(wal, 1)
    sealed.write_text(_line(1) + json.dumps(big, separators=(",", ":")) + "\n")
    _write(wal, 3)
    cursor = WalCursor(wal, last_seq=1)
    assert [r["seq"] for r in cursor.poll()] == [2, 3]
    assert cursor.poll() == []


def test_truncation_restart_is_idempotent(tmp_path):
    wal = tmp_path / "wal.jsonl"
    _write(wal, 1, 2, 3)
    cursor = WalCursor(wal)
    cursor.poll()
    # A checkpoint truncates the log; numbering continues above the snapshot.
    _write(wal, 4)
    assert [r["seq"] for r in cursor.poll()] == [4]
    assert cursor.truncation_restarts == 1


def test_truncation_gap_raises(tmp_path):
    wal = tmp_path / "wal.jsonl"
    _write(wal, 1, 2)
    cursor = WalCursor(wal)
    cursor.poll()
    # Records 3..5 were checkpointed away before this cursor saw them.
    _write(wal, 6)
    with pytest.raises(ReplicationGapError) as exc_info:
        cursor.poll()
    assert exc_info.value.needed == 3
    assert exc_info.value.available == 6


def test_seq_filter_skips_already_applied(tmp_path):
    wal = tmp_path / "wal.jsonl"
    _write(wal, 1, 2, 3, 4)
    cursor = WalCursor(wal, last_seq=2)
    assert [r["seq"] for r in cursor.poll()] == [3, 4]


def test_max_records_batches(tmp_path):
    wal = tmp_path / "wal.jsonl"
    _write(wal, 1, 2, 3, 4, 5)
    cursor = WalCursor(wal)
    assert [r["seq"] for r in cursor.poll(max_records=2)] == [1, 2]
    assert [r["seq"] for r in cursor.poll(max_records=2)] == [3, 4]
    assert [r["seq"] for r in cursor.poll(max_records=2)] == [5]


def test_state_resumes_a_new_cursor(tmp_path):
    wal = tmp_path / "wal.jsonl"
    _write(wal, 1, 2)
    cursor = WalCursor(wal)
    cursor.poll()
    _write(wal, 1, 2, 3)
    resumed = WalCursor(wal, last_seq=cursor.last_seq)
    assert [r["seq"] for r in resumed.poll()] == [3]


@pytest.mark.parametrize("seal_before_listing", [True, False])
def test_a_seal_racing_a_poll_loses_and_repeats_nothing(tmp_path, monkeypatch, seal_before_listing):
    """A checkpoint seals the active file while a poll runs: before the
    poll lists the sealed segments, or after.  Either way no poll raises,
    and the polls that follow ship each record once."""
    from repro.replica import tailer

    wal = tmp_path / "wal.jsonl"
    _write(wal, 1, 2)
    cursor = WalCursor(wal)
    assert [r["seq"] for r in cursor.poll()] == [1, 2]
    with wal.open("a") as handle:
        handle.write(_line(3))
    listing = tailer.sealed_segment_paths

    def sealing_listing(path):
        before = listing(path)
        wal.rename(tmp_path / sealed_segment_name(wal, 1))
        _write(wal, 4)
        monkeypatch.setattr(tailer, "sealed_segment_paths", listing)
        return listing(path) if seal_before_listing else before

    monkeypatch.setattr(tailer, "sealed_segment_paths", sealing_listing)
    assert [r["seq"] for _ in range(3) for r in cursor.poll()] == [3, 4]
    assert cursor.poll() == []


def test_a_segment_drained_in_batches_reads_on_from_its_offset(tmp_path):
    wal = tmp_path / "wal.jsonl"
    _write(wal, 1, 2, 3)
    cursor = WalCursor(wal)
    assert [r["seq"] for r in cursor.poll(max_records=2)] == [1, 2]
    # The file the cursor is part-way through is sealed: it reads on from
    # its offset in the segment, then starts the new active file at 0.
    wal.rename(tmp_path / sealed_segment_name(wal, 1))
    _write(wal, 4, 5)
    assert [r["seq"] for r in cursor.poll(max_records=2)] == [3, 4]
    assert [r["seq"] for r in cursor.poll()] == [5]
    assert cursor.offset == wal.stat().st_size


# -- shipment codec ------------------------------------------------------------


def test_shipment_roundtrip():
    records = [_record(1), _record(2, op="delete_annotation")]
    decoded, torn = decode_shipment(encode_shipment(records))
    assert decoded == records
    assert torn is False


def test_shipment_tolerates_torn_final_record():
    records = [_record(1), _record(2)]
    decoded, torn = decode_shipment(tear_payload(encode_shipment(records)))
    assert [r["seq"] for r in decoded] == [1]
    assert torn is True


def test_shipment_rejects_mid_stream_damage():
    payload = _line(1).encode()[:-5] + b"\n" + _line(2).encode()
    with pytest.raises(WalCorruptionError):
        decode_shipment(payload)


def test_shipment_rejects_rewinding_seq():
    payload = encode_shipment([_record(3), _record(2)])
    with pytest.raises(WalCorruptionError):
        decode_shipment(payload)
    # A shipment entirely at or below the frontier is stale, not idempotent.
    with pytest.raises(WalCorruptionError):
        decode_shipment(encode_shipment([_record(2)]), last_seq=2)

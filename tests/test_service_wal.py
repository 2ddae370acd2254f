"""Tests for the write-ahead log: appends, torn tails, corruption, reopen."""

import json

import pytest

from repro.errors import ServiceError, WalCorruptionError
from repro.service.wal import (
    WAL_OPS,
    WriteAheadLog,
    encode_record,
    parse_record,
    read_segmented_records,
    write_json_atomic,
)


def _wal(tmp_path, durability="never"):
    return WriteAheadLog(tmp_path / "wal.jsonl", durability=durability)


def test_append_assigns_sequence(tmp_path):
    with _wal(tmp_path) as wal:
        assert wal.append("commit", {"annotation_id": "a1"}) == 1
        assert wal.append("delete_annotation", {"annotation_id": "a1"}) == 2
        assert wal.last_seq == 2 and wal.record_count == 2
    records, torn = read_segmented_records(tmp_path / "wal.jsonl")
    assert not torn
    assert [record["seq"] for record in records] == [1, 2]
    assert records[0]["op"] == "commit"


def test_append_many_is_one_batch(tmp_path):
    with _wal(tmp_path) as wal:
        seqs = wal.append_many([("commit", {"n": index}) for index in range(5)])
    assert seqs == [1, 2, 3, 4, 5]
    records, _ = read_segmented_records(tmp_path / "wal.jsonl")
    assert len(records) == 5


def test_unknown_op_rejected(tmp_path):
    with _wal(tmp_path) as wal:
        with pytest.raises(ServiceError):
            wal.append("drop_table", {})


def test_reopen_continues_numbering(tmp_path):
    with _wal(tmp_path) as wal:
        wal.append("commit", {"n": 1})
    with _wal(tmp_path) as wal:
        assert wal.last_seq == 1
        assert wal.append("commit", {"n": 2}) == 2
    records, _ = read_segmented_records(tmp_path / "wal.jsonl")
    assert [record["seq"] for record in records] == [1, 2]


def test_torn_tail_tolerated(tmp_path):
    path = tmp_path / "wal.jsonl"
    with WriteAheadLog(path, durability="never") as wal:
        wal.append("commit", {"n": 1})
        wal.append("commit", {"n": 2})
    # Simulate a crash mid-append: chop bytes off the final record.
    raw = path.read_bytes()
    path.write_bytes(raw[:-9])
    records, torn = read_segmented_records(path)
    assert torn
    assert [record["payload"]["n"] for record in records] == [1]


def test_corruption_before_tail_raises(tmp_path):
    path = tmp_path / "wal.jsonl"
    with WriteAheadLog(path, durability="never") as wal:
        wal.append("commit", {"n": 1})
        wal.append("commit", {"n": 2})
        wal.append("commit", {"n": 3})
    lines = path.read_bytes().splitlines(keepends=True)
    lines[1] = b"{garbage!}\n"
    path.write_bytes(b"".join(lines))
    with pytest.raises(WalCorruptionError):
        read_segmented_records(path)


def test_record_with_bad_shape_is_corruption(tmp_path):
    path = tmp_path / "wal.jsonl"
    # Valid JSON but not a valid record (bad op), followed by a good record.
    path.write_text(
        json.dumps({"seq": 1, "op": "nonsense", "payload": {}}) + "\n"
        + json.dumps({"seq": 2, "op": "commit", "payload": {}}) + "\n"
    )
    with pytest.raises(WalCorruptionError):
        read_segmented_records(path)


def test_reopen_after_torn_tail_rewrites_clean(tmp_path):
    path = tmp_path / "wal.jsonl"
    with WriteAheadLog(path, durability="never") as wal:
        wal.append("commit", {"n": 1})
        wal.append("commit", {"n": 2})
    raw = path.read_bytes()
    path.write_bytes(raw[:-5])
    with WriteAheadLog(path, durability="never") as wal:
        assert wal.last_seq == 1  # torn record dropped
        wal.append("commit", {"n": 3})
    records, torn = read_segmented_records(path)
    assert not torn
    assert [record["payload"]["n"] for record in records] == [1, 3]


def test_an_unterminated_final_line_is_torn_even_when_it_parses(tmp_path):
    # An append is acknowledged only once its newline is written, so a final
    # line without one was never acknowledged; keeping it would glue the
    # next append onto it and lose both.
    path = tmp_path / "wal.jsonl"
    path.write_text(encode_record({"seq": 1, "op": "commit", "payload": {"n": 1}}))
    assert read_segmented_records(path) == ([], True)
    with WriteAheadLog(path, durability="never") as wal:
        assert wal.last_seq == 0
        assert wal.append("commit", {"n": 2}) == 1
    records, torn = read_segmented_records(path)
    assert not torn
    assert [record["payload"]["n"] for record in records] == [2]


def test_missing_and_empty_files(tmp_path):
    assert read_segmented_records(tmp_path / "absent.jsonl") == ([], False)
    empty = tmp_path / "empty.jsonl"
    empty.write_bytes(b"")
    assert read_segmented_records(empty) == ([], False)


def test_bad_durability_mode_rejected(tmp_path):
    with pytest.raises(ServiceError):
        WriteAheadLog(tmp_path / "wal.jsonl", durability="sometimes")


# -- strict encoding and codec round-trips -------------------------------------


def test_unserializable_payload_rejected_before_append(tmp_path):
    """A record that cannot round-trip through JSON must never be acked."""
    with _wal(tmp_path) as wal:
        with pytest.raises(ServiceError):
            wal.append("commit", {"keywords": {"a", "set"}})
        with pytest.raises(ServiceError):
            wal.append("commit", {"score": float("nan")})
        # The refusals left no partial line behind: the log is still clean.
        assert wal.append("commit", {"n": 1}) == 1
    records, torn = read_segmented_records(tmp_path / "wal.jsonl")
    assert not torn
    assert [record["seq"] for record in records] == [1]


def test_encode_record_strictness():
    assert encode_record({"seq": 1, "op": "commit", "payload": {"n": 2}}) == (
        '{"seq":1,"op":"commit","payload":{"n":2}}'
    )
    for payload in ({"bad": {1, 2}}, {"bad": float("inf")}, {"bad": object()}):
        with pytest.raises(ServiceError):
            encode_record({"seq": 1, "op": "commit", "payload": payload})


def test_codec_round_trips_every_op_shape(tmp_path):
    """encode -> parse is the identity for every record the service logs.

    The scripted recovery sequence emits all six WAL_OPS with their real
    payload shapes (nested referents, ontology terms, move_referents...),
    so this pins the full codec surface, not toy payloads.
    """
    from test_service_recovery import scripted_root

    records, torn = read_segmented_records(scripted_root(tmp_path) / "wal.jsonl")
    assert not torn
    assert {record["op"] for record in records} == set(WAL_OPS)
    for record in records:
        line = encode_record(record)
        assert parse_record(line.encode("utf-8")) == record
        # Shipping frames records exactly as the log stores them.
        assert parse_record((line + "\n").encode("utf-8").rstrip(b"\n")) == record


def test_write_json_atomic_replaces_the_whole_file(tmp_path):
    path = tmp_path / "nested" / "state.json"
    write_json_atomic(path, {"b": [1, 2], "a": {"z": 1, "y": 2}, "long": "x" * 100})
    smaller = {"b": 1, "a": 0}
    assert write_json_atomic(path, smaller) == path
    assert path.read_text(encoding="utf-8") == json.dumps(smaller, indent=2, sort_keys=True)
    assert [child.name for child in path.parent.iterdir()] == ["state.json"]

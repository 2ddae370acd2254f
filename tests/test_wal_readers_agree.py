"""Every reader of WAL bytes accepts the same records and refuses the same damage.

:func:`read_segmented_records` (the one read a :class:`WriteAheadLog`'s
open makes, and what recovery replays), the replication :class:`WalCursor`
and the shipment decoder all read log bytes through :func:`iter_records`
(:func:`scan_records` is its list form).  This property feeds them valid
logs cut at a random byte, some with one byte flipped, and checks they
agree: the same record prefix, or a :class:`WalCorruptionError` from all of
them.  Read as a sealed segment, the same bytes are accepted only when they
are whole.

A second property counts :func:`parse_record` calls over the same logs laid
out as a sealed segment plus an active file: recovery through
:meth:`GraphittiService.recover` parses each record once (plus at most one
torn final line), and a cursor drained by random ``max_records`` polls
parses at most one line more per poll than the records it ships.
"""

from __future__ import annotations

import contextlib
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import assume, given, settings, strategies as st

from repro.datatypes import DnaSequence
from repro.errors import WalCorruptionError
from repro.replica import WalCursor, decode_shipment, encode_shipment
from repro.service import GraphittiService, ServiceConfig, durability, wal as wal_module
from repro.service.wal import (
    WAL_OPS,
    WriteAheadLog,
    read_segmented_records,
    scan_records,
    sealed_segment_name,
)

_VALUES = st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=40))
_PAYLOADS = st.dictionaries(st.text(min_size=1, max_size=6), _VALUES, max_size=3)


def _logs(max_size: int):
    return st.lists(st.tuples(st.sampled_from(sorted(WAL_OPS)), _PAYLOADS), max_size=max_size).map(
        lambda rows: [
            {"seq": seq, "op": op, "payload": payload}
            for seq, (op, payload) in enumerate(rows, start=1)
        ]
    )


@st.composite
def damaged_logs(draw, logs=_logs(6)):
    """``(records, data)``: a valid log's bytes cut at a random byte, one
    byte of the kept part flipped half of the time."""
    records = draw(logs)
    raw = encode_shipment(records)
    data = bytearray(raw[: draw(st.integers(0, len(raw)))])
    if data and draw(st.booleans()):
        data[draw(st.integers(0, len(data) - 1))] ^= draw(st.integers(1, 255))
    return records, bytes(data)


def _outcome(read):
    """``("ok", records)`` or ``("raise", None)`` for one reader."""
    try:
        return "ok", read()
    except WalCorruptionError:
        return "raise", None


def _poll_all(cursor: WalCursor, data) -> list:
    polled: list = []
    while True:
        batch = cursor.poll(max_records=data.draw(st.one_of(st.none(), st.integers(1, 3))))
        if not batch:
            return polled
        polled += batch


def _reopened(active: Path) -> list:
    """What a reopened log keeps: its records, once its torn tail is cut.
    Its numbering continues from the last of them."""
    with WriteAheadLog(active, durability="never") as wal:
        last_seq = wal.last_seq
    records, torn = read_segmented_records(active)
    assert not torn
    assert last_seq == (records[-1]["seq"] if records else 0)
    return records


@settings(max_examples=300, deadline=None)
@given(log=damaged_logs(), data=st.data())
def test_every_reader_accepts_the_same_prefix_and_refuses_the_same_damage(log, data):
    records, raw = log
    with tempfile.TemporaryDirectory() as tmp:
        active = Path(tmp) / "wal.jsonl"
        active.write_bytes(raw)
        expected = _outcome(lambda: read_segmented_records(active)[0])
        torn = expected[0] == "ok" and read_segmented_records(active)[1]
        if expected[0] == "ok":
            # A flipped digit can renumber a record and still parse; the
            # cursor and the decoder refuse that by their seq rules, which
            # are not the line rule under test.
            seqs = [record["seq"] for record in expected[1]]
            assume(seqs == list(range(1, len(seqs) + 1)))
            # Only the final line may be left out.
            ends = scan_records(raw, "log")[1]
            assert b"\n" not in raw[ends[-1] if ends else 0 : -1]
            if raw == encode_shipment(records)[: len(raw)]:
                # Undamaged bytes: exactly the whole records before the cut.
                assert expected[1] == records[: raw.count(b"\n")]
        assert _outcome(lambda: decode_shipment(raw)[0]) == expected
        assert _outcome(lambda: _poll_all(WalCursor(active), data)) == expected
        assert _outcome(lambda: _reopened(active)) == expected

        # The same bytes as a sealed segment: accepted only when whole.
        sealed = _outcome(lambda: scan_records(raw, "segment", sealed=True)[0])
        assert sealed == (("raise", None) if torn else expected)
        segment = Path(tmp) / "segmented" / sealed_segment_name(active, 1)
        segment.parent.mkdir()
        segment.write_bytes(raw)
        segmented_active = segment.parent / active.name
        assert _outcome(lambda: read_segmented_records(segmented_active)[0]) == sealed
        assert _outcome(lambda: _poll_all(WalCursor(segmented_active), data)) == sealed
        assert _outcome(lambda: _reopened(segmented_active)) == sealed


# -- each record is parsed once ------------------------------------------------

_QUIET = ServiceConfig(durability="never", checkpoint_on_close=False)


@contextlib.contextmanager
def _counted_parses():
    """Count :func:`parse_record` calls while the block runs (``count[0]``)."""
    count = [0]
    parse = wal_module.parse_record

    def counted(line):
        count[0] += 1
        return parse(line)

    with mock.patch.object(wal_module, "parse_record", counted):
        yield count


def _drain_counted(active: Path, max_records) -> tuple[int, int, int]:
    """``(shipped, polls, parses)`` of one cursor drained to its first empty poll."""
    cursor = WalCursor(active)
    shipped = polls = 0
    with _counted_parses() as parses:
        while True:
            polls += 1
            batch = cursor.poll(max_records=max_records())
            if not batch:
                return shipped, polls, parses[0]
            shipped += len(batch)


def _recovery_parses(root: Path) -> int:
    """Parses one :meth:`GraphittiService.recover` of *root* makes."""
    with _counted_parses() as parses:
        GraphittiService.recover(root, config=_QUIET).close()
    return parses[0]


@settings(max_examples=150, deadline=None)
@given(log=damaged_logs(_logs(12)), data=st.data())
def test_recovery_and_a_cursor_drain_parse_each_record_once(log, data):
    _, raw = log
    # Whole lines up to a random newline go into a sealed segment.
    cut = data.draw(st.sampled_from([0] + [i + 1 for i, b in enumerate(raw) if b == 0x0A]))
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        active = root / "wal.jsonl"
        (root / sealed_segment_name(active, 1)).write_bytes(raw[:cut])
        active.write_bytes(raw[cut:])
        try:
            records, torn = read_segmented_records(active)
        except WalCorruptionError:
            return  # damage: every reader refuses it (the property above)
        seqs = [record["seq"] for record in records]
        assume(seqs == list(range(1, len(seqs) + 1)))

        shipped, polls, parses = _drain_counted(active, lambda: data.draw(st.integers(1, 3)))
        assert shipped == len(records)
        assert parses <= shipped + polls

        # Replay is not under test here (the payloads are arbitrary).
        with mock.patch.object(durability, "apply_record"):
            if records or torn:
                assert len(records) <= _recovery_parses(root) <= len(records) + torn


def test_recovering_301_records_parses_301_lines(tmp_path):
    root = tmp_path / "root"
    with GraphittiService.open(root, config=_QUIET) as service:
        for index in range(301):
            service.register(DnaSequence(f"seq-{index}", "ACGT", domain="d:1"))
    assert _recovery_parses(root) == 301
    with GraphittiService.recover(root, config=_QUIET) as service:
        assert service.recovery_info["replayed"] == 301


def test_draining_a_2000_record_segment_parses_each_record_once(tmp_path):
    active = tmp_path / "wal.jsonl"
    (tmp_path / sealed_segment_name(active, 1)).write_bytes(
        encode_shipment([{"seq": seq, "op": "commit", "payload": {}} for seq in range(1, 2001)])
    )
    shipped, polls, parses = _drain_counted(active, lambda: 256)
    assert (shipped, polls) == (2000, 9)
    assert parses <= shipped + polls

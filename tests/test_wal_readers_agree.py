"""Every reader of WAL bytes accepts the same records and refuses the same damage.

Recovery (:func:`read_records`, :func:`read_segmented_records`), a reopened
:class:`WriteAheadLog`, the replication :class:`WalCursor` and the shipment
decoder all read log bytes through :func:`scan_records`.  This property feeds
them valid logs cut at a random byte, some with one byte flipped, and checks
they agree: the same record prefix, or a :class:`WalCorruptionError` from
all of them.  Read as a sealed segment, the same bytes are accepted only when
they are whole.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from hypothesis import assume, given, settings, strategies as st

from repro.errors import WalCorruptionError
from repro.replica import WalCursor, decode_shipment, encode_shipment
from repro.service.wal import (
    WAL_OPS,
    WriteAheadLog,
    read_records,
    read_segmented_records,
    scan_records,
    sealed_segment_name,
)

_VALUES = st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=40))
_PAYLOADS = st.dictionaries(st.text(min_size=1, max_size=6), _VALUES, max_size=3)
_LOGS = st.lists(st.tuples(st.sampled_from(sorted(WAL_OPS)), _PAYLOADS), max_size=6).map(
    lambda rows: [
        {"seq": seq, "op": op, "payload": payload}
        for seq, (op, payload) in enumerate(rows, start=1)
    ]
)


@st.composite
def damaged_logs(draw):
    """``(records, data)``: a valid log's bytes cut at a random byte, one
    byte of the kept part flipped half of the time."""
    records = draw(_LOGS)
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
        expected = _outcome(lambda: read_records(active)[0])
        torn = expected[0] == "ok" and read_records(active)[1]
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

"""Incremental WAL tailing: the shipping side of replication.

:class:`WalCursor` reads a log **incrementally**, so a follower sees each
new record once: it keeps one byte ``offset`` into whichever file it is
draining — a sealed segment it has not finished, or the active file — and
each poll reads that file from there.  Every byte it reads goes through
:func:`~repro.service.wal.iter_records`, the rule recovery uses, which
parses only the records the poll takes, so:

* ``poll()`` returns only the records appended since the last poll, and the
  cursor's ``offset`` advances past exactly the records it consumed;
* a **torn tail** (the incomplete final line a crash — or a write caught
  mid-flush — leaves) is never consumed and never an error: the cursor stops
  before it and re-reads it next poll, by which time the writer has either
  completed the line or a reopened :class:`~repro.service.wal.WriteAheadLog`
  has cut it away;
* damage **before** the tail raises :class:`~repro.errors.WalCorruptionError`
  — a mid-file unreadable record means acknowledged history is lost and the
  follower must not silently skip it;
* a file that *shrank* below the cursor's offset (a reopen cut its torn
  tail, or it was rewritten) restarts the cursor at offset 0, and its
  sequence filter (records at or below ``last_seq`` are already applied)
  keeps the restart idempotent;
* records resuming above ``last_seq + 1`` mean the records in between were
  checkpointed away before this cursor saw them, and
  :class:`ReplicationGapError` tells the caller to re-seed from the
  primary's snapshot instead of replaying an incomplete history.

The module also provides the **shipment codec**: :func:`encode_shipment`
turns records back into the same JSONL bytes the WAL holds, and
:func:`decode_shipment` parses a shipment datagram by the same rule (a torn
final record is the transit analogue of the crash-torn tail).  Each shipment
is self-contained — a torn record is simply re-shipped whole next round.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Any, BinaryIO

from repro.errors import ServiceError, WalCorruptionError
from repro.service.wal import (
    encode_record,
    iter_records,
    scan_records,
    sealed_segment_paths,
    segment_index,
)


class ReplicationGapError(ServiceError):
    """The WAL no longer holds the records a cursor still needs.

    Raised when a cursor finds the log resuming above ``last_seq + 1``: the
    missing records were folded into a snapshot the cursor has not seen.
    The fix is a snapshot re-seed, not a replay.
    """

    def __init__(self, needed: int, available: int, path: str | Path):
        super().__init__(
            f"WAL at {path} resumes at seq {available} but the cursor has only "
            f"applied up to {needed - 1}; the gap was checkpointed away — "
            "re-seed from the primary snapshot"
        )
        self.needed = needed
        self.available = available


class WalCursor:
    """An incremental reader over one WAL: its sealed segments, then its
    active file, each from a byte offset.

    Parameters
    ----------
    path:
        The active WAL file to tail (may not exist yet).
    last_seq:
        Highest sequence number already consumed; records at or below it are
        skipped (the idempotence filter that makes truncation restarts and
        re-ships safe).
    """

    def __init__(self, path: str | Path, last_seq: int = 0):
        self.path = Path(path)
        self.last_seq = int(last_seq)
        #: Bytes consumed of the file ``_file`` names, ``(st_dev, st_ino)``:
        #: sealing renames the active file, so an offset taken in it still
        #: holds once it is a segment, and any other file starts at 0.
        self.offset = 0
        self._file: tuple[int, int] | None = None
        self.truncation_restarts = 0
        #: Sealed segments with index below this are fully consumed (or were
        #: skipped as already-applied history).
        self._next_sealed = 0

    def poll(self, max_records: int | None = None) -> list[dict[str, Any]]:
        """Return the complete, unseen records appended since the last poll.

        Sealed segments (a checkpoint rotated the active log out from under
        us) are read first, in seal order; rollover is ordinary operation,
        not a gap.  Never consumes a torn active tail; raises
        :class:`WalCorruptionError` for damage before the tail and
        :class:`ReplicationGapError` only when the records this cursor still
        needs were pruned away entirely.
        """
        out: list[dict[str, Any]] = []
        # The active file is opened before the segments are listed, so a
        # seal racing this poll either shows in the listing or renamed the
        # very file held open here: every record this poll can miss is in
        # a file the next poll lists.
        try:
            active = self.path.open("rb")
        except FileNotFoundError:
            active = None
        try:
            for segment in sealed_segment_paths(self.path):
                index = segment_index(self.path, segment)
                if index < self._next_sealed:
                    continue
                if len(out) == max_records:
                    return out
                try:
                    with segment.open("rb") as handle:
                        if not self._drain(handle, segment, out, max_records):
                            return out  # resume at this segment's offset
                except FileNotFoundError:
                    pass  # pruned under us: superseded history
                self._next_sealed = index + 1
            if active is not None and len(out) != max_records:
                self._drain(active, self.path, out, max_records)
            return out
        finally:
            if active is not None:
                active.close()

    def _drain(self, handle: BinaryIO, source: Path, out: list, max_records: int | None) -> bool:
        """Move the records of *handle* past ``offset`` and ``last_seq`` into
        *out*, up to *max_records*; True when the file is read to its end."""
        stat = os.fstat(handle.fileno())
        if (stat.st_dev, stat.st_ino) != self._file:
            self._file = (stat.st_dev, stat.st_ino)
            self.offset = 0
        elif stat.st_size < self.offset:
            # The file shrank under us; restart and let the seq filter drop
            # everything already applied.
            self.offset = 0
            self.truncation_restarts += 1
        start = self.offset
        handle.seek(start)
        for record, end in iter_records(handle.read(), source, sealed=source != self.path):
            seq = record["seq"]
            if seq > self.last_seq + 1:
                # The records between last_seq and this one are in no file
                # (pruned away before this cursor saw them, or the cursor was
                # pointed at a log whose snapshot it never loaded).
                raise ReplicationGapError(self.last_seq + 1, seq, source)
            if seq > self.last_seq:
                out.append(record)
                self.last_seq = seq
            self.offset = start + end
            if len(out) == max_records:
                return False
        return True


# -- shipment codec ------------------------------------------------------------


def encode_shipment(records: list[dict[str, Any]]) -> bytes:
    """Encode records as a self-contained JSONL shipment datagram."""
    return "".join(encode_record(record) + "\n" for record in records).encode("utf-8")


def decode_shipment(
    payload: bytes, last_seq: int = 0
) -> tuple[list[dict[str, Any]], bool]:
    """Parse a shipment; returns ``(records, torn_tail)``.

    Reads by :func:`~repro.service.wal.scan_records`: exactly one torn record
    at the end is tolerated (a transit tear — the shipper re-ships it whole
    next round, so losing it here is safe) and damage anywhere earlier
    raises :class:`WalCorruptionError`.  Records must advance strictly past
    *last_seq* and each other — a shipment that rewinds the sequence is a
    double-apply attempt, not a retry.
    """
    records, ends = scan_records(payload, "a shipment")
    for record in records:
        if record["seq"] <= last_seq:
            raise WalCorruptionError(
                f"shipment seq {record['seq']} does not advance past {last_seq} "
                "(stale or duplicated history rejected)"
            )
        last_seq = record["seq"]
    return records, len(payload) > (ends[-1] if ends else 0)

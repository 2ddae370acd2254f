"""Incremental WAL tailing: the shipping side of replication.

:func:`~repro.service.wal.read_records` slurps a whole log — fine for
recovery, useless for a follower that must see each new record once.
:class:`WalCursor` reads the same log **incrementally**: sealed segments it
has not seen yet, then the active file from a byte offset.  Every byte it
reads goes through :func:`~repro.service.wal.scan_records`, the rule
recovery uses, so:

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
* an active file that *shrank* below the cursor's offset (a reopen cut its
  torn tail, or it was rewritten) restarts the cursor at offset 0, and its
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
from typing import Any

from repro.errors import ServiceError, WalCorruptionError
from repro.service.wal import encode_record, scan_records, sealed_segment_paths, segment_index


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
    active file from a byte offset.

    Parameters
    ----------
    path:
        The active WAL file to tail (may not exist yet).
    offset:
        Byte offset to resume from (0 for a fresh cursor; a persisted
        follower passes the offset it had reached).
    last_seq:
        Highest sequence number already consumed; records at or below it are
        skipped (the idempotence filter that makes truncation restarts and
        re-ships safe).
    """

    def __init__(self, path: str | Path, offset: int = 0, last_seq: int = 0):
        self.path = Path(path)
        self.offset = int(offset)
        self.last_seq = int(last_seq)
        self.truncation_restarts = 0
        #: Sealed segments with index below this are fully consumed (or were
        #: skipped as already-applied history).  Deliberately NOT part of
        #: :meth:`state`: a re-created cursor rescans the sealed directory and
        #: the seq filter makes the rescan idempotent.
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
        for segment in self._unseen_sealed():
            try:
                records, _ = scan_records(segment.read_bytes(), segment, sealed=True)
            except FileNotFoundError:
                records = []  # pruned under us: superseded history
            if self._take(records, out, max_records, segment) < len(records):
                return out  # resume this segment next poll; the seq filter dedups
            # The active path now names a file younger than this segment.
            self._next_sealed = segment_index(self.path, segment) + 1
            self.offset = 0
        try:
            with self.path.open("rb") as handle:
                if os.fstat(handle.fileno()).st_size < self.offset:
                    # The file shrank under us; restart and let the seq
                    # filter drop everything already applied.
                    self.offset = 0
                    self.truncation_restarts += 1
                handle.seek(self.offset)
                raw = handle.read()
        except FileNotFoundError:
            return out
        try:
            records, ends = scan_records(raw, self.path)
        except WalCorruptionError:
            if self._unseen_sealed():
                # A seal raced this poll: the bytes at our offset belong to a
                # fresh active file.  Consume nothing; the next poll reads
                # the new sealed segment first and resets the offset.
                return out
            raise
        taken = self._take(records, out, max_records, self.path)
        if taken:
            self.offset += ends[taken - 1]
        return out

    def _take(
        self,
        records: list[dict[str, Any]],
        out: list[dict[str, Any]],
        max_records: int | None,
        source: Path,
    ) -> int:
        """Move *records* past ``last_seq`` into *out*; returns how many of
        *records* were consumed (applied ones are skipped and consumed)."""
        for taken, record in enumerate(records):
            if max_records is not None and len(out) >= max_records:
                return taken
            seq = record["seq"]
            if seq > self.last_seq + 1:
                if source == self.path and self._unseen_sealed():
                    return taken  # the missing records are in a just-sealed segment
                # The records between last_seq and this one are in no file
                # (pruned away before this cursor saw them, or the cursor was
                # pointed at a log whose snapshot it never loaded).
                raise ReplicationGapError(self.last_seq + 1, seq, source)
            if seq > self.last_seq:
                out.append(record)
                self.last_seq = seq
        return len(records)

    def _unseen_sealed(self) -> list[Path]:
        return [
            segment
            for segment in sealed_segment_paths(self.path)
            if segment_index(self.path, segment) >= self._next_sealed
        ]

    def state(self) -> dict[str, int]:
        """The resumable cursor position (offset + seq high-water mark)."""
        return {"offset": self.offset, "last_seq": self.last_seq}


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

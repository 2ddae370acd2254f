"""Append-only write-ahead log of serving-layer mutations.

One JSON record per line (JSONL), each ``{"seq": n, "op": ..., "payload": ...}``.
The log layers on :mod:`repro.core.persistence` snapshots: a checkpoint writes
a snapshot embedding the last logged sequence number and truncates the log, so
recovery is *snapshot + replay of the records logged after it*.

Crash semantics:

* every append is flushed; with ``durability="always"`` it is also fsynced,
  so an acknowledged mutation survives a machine crash;
* a crash mid-append leaves a **torn final line**; :func:`read_records`
  tolerates exactly that (the unacknowledged tail op is lost, as it must be)
  but raises :class:`~repro.errors.WalCorruptionError` for damage anywhere
  before the tail — a log that lies about acknowledged history must not be
  silently replayed.

Batched appends (:meth:`WriteAheadLog.append_many`) write the whole group and
sync **once** — the group-commit optimization behind the serving layer's bulk
ingest path.

Payload encoding is **strict**: a payload holding any value the JSON codec
cannot represent natively raises :class:`~repro.errors.ServiceError` *before*
anything reaches the file.  (An earlier revision silently stringified such
values via ``default=str``, which produced records that parsed but could not
be replayed — a WAL that accepts what it cannot replay is corruption with
extra steps.)
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path
from typing import Any, Callable, Iterable

from repro.errors import ServiceError, WalCorruptionError
from repro.analysis.annotations import io_under_lock_ok
from repro.service.ops import WAL_OPS, wal_row

#: fsync policies: every record, every batch/explicit sync, or never.
DURABILITY_MODES = ("always", "batch", "never")


def fsync_dir(path: str | Path) -> None:
    """fsync the directory at *path* so a completed rename survives power loss.

    ``os.replace`` makes a rename atomic, but the new directory entry only
    becomes durable once the *directory* itself reaches disk — without this,
    a crash after the rename can resurrect the replaced file.  Called after
    every atomic-rename in the WAL/snapshot/manifest lifecycle.
    """
    directory_fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(directory_fd)
    finally:
        os.close(directory_fd)


def write_json_atomic(path: str | Path, obj: Any) -> Path:
    """Durably replace the JSON file at *path* with *obj*.

    Temp file, fsync, atomic rename, directory fsync: a crash leaves the old
    file or the new one, never a torn one.  Creates the parent directory.
    The bytes are ``json.dump(obj, indent=2, sort_keys=True)``.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("w", encoding="utf-8") as handle:
        json.dump(obj, handle, indent=2, sort_keys=True)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    fsync_dir(path.parent)
    return path


def sealed_segment_name(active: Path, index: int) -> str:
    """Filename of sealed segment *index* for the active log at *active*.

    ``wal.jsonl`` seals to ``wal.000017.jsonl`` — the zero-padded index keeps
    lexical and numeric ordering identical, so a plain directory sort walks
    segments in commit order.
    """
    return f"{active.stem}.{index:06d}{active.suffix}"


def segment_index(active: Path, candidate: Path) -> int | None:
    """The sealed-segment index of *candidate*, or None when it is not one."""
    pattern = re.escape(active.stem) + r"\.(\d{6})" + re.escape(active.suffix) + r"$"
    match = re.fullmatch(pattern, candidate.name)
    if match is None:
        return None
    return int(match.group(1))


def sealed_segment_paths(active: str | Path) -> list[Path]:
    """Sealed segments next to the active log at *active*, in seal order."""
    active = Path(active)
    if not active.parent.exists():
        return []
    found: list[tuple[int, Path]] = []
    for candidate in active.parent.iterdir():
        index = segment_index(active, candidate)
        if index is not None:
            found.append((index, candidate))
    return [path for _, path in sorted(found)]


def read_segmented_records(active: str | Path) -> tuple[list[dict[str, Any]], bool]:
    """Parse sealed segments plus the active log, in order.

    Sealed segments are fsynced whole before the rename that seals them, so a
    torn tail inside one is acknowledged history gone bad — that raises
    :class:`WalCorruptionError` rather than being shrugged off as a crash
    artifact.  Only the *active* file may legitimately end mid-line.
    """
    active = Path(active)
    records: list[dict[str, Any]] = []
    for segment in sealed_segment_paths(active):
        segment_records, torn = read_records(segment)
        if torn:
            raise WalCorruptionError(
                f"sealed WAL segment {segment} has a torn tail; sealed history "
                "must be whole (segments are fsynced before the sealing rename)"
            )
        records.extend(segment_records)
    active_records, torn = read_records(active)
    records.extend(active_records)
    return records, torn


def _last_seq_in(path: Path) -> int:
    """Sequence number of the final record in a sealed segment.

    Reads only the file tail — sealed segments end on a complete line, so the
    last parseable line is the last record.
    """
    try:
        size = path.stat().st_size
    except OSError:
        return 0
    if size == 0:
        return 0
    with path.open("rb") as handle:
        if size > 65536:
            handle.seek(size - 65536)
        tail = handle.read()
    for line in reversed(tail.split(b"\n")):
        record = parse_record(line)
        if record is not None:
            return record["seq"]
    return 0


def encode_record(record: dict[str, Any]) -> str:
    """Strictly encode one WAL record as its JSONL line (no trailing newline).

    Raises :class:`ServiceError` when the payload holds a value JSON cannot
    represent natively (sets, objects, NaN/Infinity, non-string keys...): a
    record that cannot round-trip through :func:`read_records` must never be
    acknowledged, because replay — the whole point of the log — would lose it.
    """
    try:
        return json.dumps(record, separators=(",", ":"), allow_nan=False)
    except (TypeError, ValueError) as exc:
        raise ServiceError(
            f"WAL record for op {record.get('op')!r} is not strictly "
            f"JSON-serializable and would be unreplayable: {exc}"
        ) from exc


def read_records(path: str | Path) -> tuple[list[dict[str, Any]], bool]:
    """Parse the log at *path*; returns ``(records, torn_tail)``.

    ``torn_tail`` is True when the final line was unreadable (the signature a
    crash mid-append leaves).  An unreadable or malformed record *before* the
    final line raises :class:`WalCorruptionError`.
    """
    source = Path(path)
    if not source.exists():
        return [], False
    raw = source.read_bytes()
    if not raw:
        return [], False
    lines = raw.split(b"\n")
    # A complete log ends with a newline, leaving one empty trailing chunk.
    if lines and lines[-1] == b"":
        lines.pop()
    records: list[dict[str, Any]] = []
    last = len(lines) - 1
    for position, line in enumerate(lines):
        record = parse_record(line)
        if record is None:
            if position == last:
                return records, True
            raise WalCorruptionError(
                f"unreadable WAL record at line {position + 1} of {source} (not the tail)"
            )
        records.append(record)
    return records, False


def parse_record(line: bytes) -> dict[str, Any] | None:
    """Parse one JSONL line into a WAL record; None when it is not one.

    Shared with the replication tailer (:mod:`repro.replica.tailer`), whose
    shipped byte stream must accept exactly the records :func:`read_records`
    accepts.
    """
    try:
        record = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    if not isinstance(record, dict):
        return None
    if not isinstance(record.get("seq"), int) or record.get("op") not in WAL_OPS:
        return None
    if "payload" not in record:
        return None
    return record


class WriteAheadLog:
    """An append-only JSONL log opened for the lifetime of a service.

    The log continues the sequence numbering of whatever records already
    exist at *path* (reopening after recovery appends, never rewrites).
    """

    def __init__(self, path: str | Path, durability: str = "always"):
        if durability not in DURABILITY_MODES:
            raise ServiceError(
                f"unknown durability mode {durability!r}; expected one of {DURABILITY_MODES}"
            )
        self.path = Path(path)
        self.durability = durability
        #: Injectable fsync (the fault harness swaps in a failing one to model
        #: a full disk / dying device at exactly the acknowledgement point).
        self.fsync_hook: Callable[[int], None] = os.fsync
        #: When the owning service enables observability it attaches its
        #: tracer here; every record-path fsync is then emitted as a
        #: ``wal.fsync`` span (child of the current mutation trace) whose
        #: duration feeds the span histogram.  None keeps the raw call.
        self.tracer = None
        self.path.parent.mkdir(parents=True, exist_ok=True)
        #: Sealed, immutable segments preceding the active file, oldest first,
        #: as ``(index, path, last_seq)``.  Segment files are read-only once
        #: sealed; only :meth:`prune_sealed` removes them.
        self._sealed: list[tuple[int, Path, int]] = []
        for segment in sealed_segment_paths(self.path):
            index = segment_index(self.path, segment)
            self._sealed.append((index, segment, _last_seq_in(segment)))
        existing, torn = read_records(self.path)
        sealed_last = self._sealed[-1][2] if self._sealed else 0
        self.last_seq = existing[-1]["seq"] if existing else sealed_last
        self.record_count = len(existing)
        if torn:
            # Drop the torn tail so new appends start on a clean line.
            self._truncate_to_records(existing)
        self._handle = self.path.open("a", encoding="utf-8")

    # -- appends ---------------------------------------------------------------

    def _fsync(self) -> None:
        """Run the configured fsync hook, traced when a tracer is attached.

        Exceptions from the hook propagate raw — the fault harness depends
        on seeing exactly what its injected hook raised, traced or not.
        """
        tracer = self.tracer
        if tracer is None:
            self.fsync_hook(self._handle.fileno())
            return
        with tracer.span("wal.fsync"):
            self.fsync_hook(self._handle.fileno())

    @io_under_lock_ok
    def append(self, op: str, payload: dict[str, Any]) -> int:
        """Append one record and make it durable per the configured policy."""
        seq = self._write(op, payload)
        self._handle.flush()
        if self.durability == "always":
            self._fsync()
        return seq

    @io_under_lock_ok
    def append_many(self, operations: Iterable[tuple[str, dict[str, Any]]]) -> list[int]:
        """Append a batch of records with a single flush + sync (group commit)."""
        seqs = [self._write(op, payload) for op, payload in operations]
        if not seqs:
            return seqs
        self._handle.flush()
        if self.durability in ("always", "batch"):
            self._fsync()
        return seqs

    @io_under_lock_ok
    def append_record(self, record: dict[str, Any]) -> int:
        """Append an already-sequenced record verbatim (the replication path).

        A follower persisting a shipped record must keep the **primary's**
        sequence number — local renumbering would break the idempotent
        skip-on-replay rule that recovery and re-shipping both rely on.  The
        sequence must strictly advance; a record at or below ``last_seq`` is
        the signature of a double-apply (a zombie primary re-shipping history
        it no longer owns) and raises :class:`WalCorruptionError` — this is
        the same non-monotonic-seq guard recovery enforces, applied at append
        time as the promotion fencing check.
        """
        seq = record.get("seq")
        op = record.get("op")
        if not isinstance(seq, int) or op not in WAL_OPS or "payload" not in record:
            raise ServiceError(f"malformed WAL record (seq={seq!r}, op={op!r})")
        if seq <= self.last_seq:
            raise WalCorruptionError(
                f"record seq {seq} does not advance past {self.last_seq} in {self.path} "
                "(stale append rejected by the seq-fencing guard)"
            )
        self._handle.write(
            encode_record({"seq": seq, "op": op, "payload": record["payload"]}) + "\n"
        )
        self.last_seq = seq
        self.record_count += 1
        self._handle.flush()
        if self.durability == "always":
            self._fsync()
        return seq

    def _write(self, op: str, payload: dict[str, Any]) -> int:
        wal_row(op)  # refuses an op the table cannot replay
        line = encode_record({"seq": self.last_seq + 1, "op": op, "payload": payload})
        self.last_seq += 1
        self._handle.write(line + "\n")
        self.record_count += 1
        return self.last_seq

    # -- maintenance -----------------------------------------------------------

    def sync(self) -> None:
        """Flush and fsync whatever has been written so far."""
        self._handle.flush()
        if self.durability != "never":
            self._fsync()

    def truncate(self) -> None:
        """Drop every record (sequence numbering continues where it left off).

        Called after a checkpoint whose snapshot embeds ``last_seq``; records
        at or below that mark are superseded by the snapshot.
        """
        self._handle.truncate(0)
        self._handle.seek(0)
        self._handle.flush()
        if self.durability != "never":
            self._fsync()
        self.record_count = 0

    # -- segments --------------------------------------------------------------

    @io_under_lock_ok
    def seal_segment(self) -> Path | None:
        """Seal the active file into an immutable numbered segment — O(1).

        Flushes and fsyncs the active file (regardless of durability mode: a
        sealed segment must be whole), renames it to ``wal.NNNNNN.jsonl``, and
        reopens a fresh empty active file.  Sequence numbering continues.
        Returns the sealed path, or None when the active file holds no
        records (nothing to seal).

        This is the only under-the-lock step of a checkpoint: rename + reopen,
        no serialization, no dependence on corpus size.
        """
        if self.record_count == 0:
            return None
        self._handle.flush()
        self._fsync()
        self._handle.close()
        index = (self._sealed[-1][0] + 1) if self._sealed else 1
        sealed_path = self.path.with_name(sealed_segment_name(self.path, index))
        os.replace(self.path, sealed_path)
        self._sealed.append((index, sealed_path, self.last_seq))
        self._handle = self.path.open("a", encoding="utf-8")
        self.record_count = 0
        # One directory fsync covers both the rename and the new active file.
        fsync_dir(self.path.parent)
        return sealed_path

    def sealed_segments(self) -> list[Path]:
        """Paths of the sealed segments, oldest first."""
        return [path for _, path, _ in self._sealed]

    def prune_sealed(self, upto_seq: int) -> list[Path]:
        """Delete sealed segments whose records are all at or below *upto_seq*.

        Called once a snapshot embedding *upto_seq* is durable — the records
        are superseded and replay will skip them anyway.  Segments holding any
        newer record are kept whole (pruning is per-segment, never per-record).
        Returns the paths removed.
        """
        removed: list[Path] = []
        kept: list[tuple[int, Path, int]] = []
        for index, path, last_seq in self._sealed:
            if last_seq <= upto_seq:
                path.unlink(missing_ok=True)
                removed.append(path)
            else:
                kept.append((index, path, last_seq))
        self._sealed = kept
        if removed:
            fsync_dir(self.path.parent)
        return removed

    def segment_stats(self) -> dict[str, int]:
        """Gauges for the metrics surface: segment count and on-disk bytes."""
        sealed_bytes = 0
        for _, path, _ in self._sealed:
            try:
                sealed_bytes += path.stat().st_size
            except OSError:
                continue
        try:
            active_bytes = self.path.stat().st_size
        except OSError:
            active_bytes = 0
        return {
            "sealed_segments": len(self._sealed),
            "sealed_bytes": sealed_bytes,
            "active_bytes": active_bytes,
        }

    def _truncate_to_records(self, records: list[dict[str, Any]]) -> None:
        """Rewrite the file to exactly *records* (tears a damaged tail off)."""
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        with tmp.open("w", encoding="utf-8") as handle:
            for record in records:
                handle.write(encode_record(record) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.path)
        # The rename is only durable once the directory entry reaches disk.
        fsync_dir(self.path.parent)

    def close(self) -> None:
        """Flush, sync and close the underlying file."""
        if self._handle.closed:
            return
        self.sync()
        self._handle.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

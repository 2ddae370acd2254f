"""Append-only write-ahead log of serving-layer mutations.

One JSON record per line (JSONL), each ``{"seq": n, "op": ..., "payload": ...}``.
The log layers on :mod:`repro.core.persistence` snapshots: a checkpoint seals
the active file into a numbered segment, writes a snapshot embedding the last
logged sequence number, and then prunes the segments that snapshot supersedes,
so recovery is *snapshot + replay of the records logged after it*.

Crash semantics:

* every append is flushed; with ``durability="always"`` it is also fsynced,
  so an acknowledged mutation survives a machine crash;
* a crash mid-append leaves a **torn final line**; :func:`scan_records`
  tolerates exactly that (the unacknowledged tail op is lost, as it must be)
  but raises :class:`~repro.errors.WalCorruptionError` for damage anywhere
  before the tail — a log that lies about acknowledged history must not be
  silently replayed.

:func:`scan_records` is the one reader of log bytes: recovery, the WAL's own
reopen, the replication cursor and the shipment decoder all go through it, so
they accept the same records and refuse the same damage.

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

#: fsync policies: every record (and batch), or never.
DURABILITY_MODES = ("always", "never")


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

    A sealed segment must be whole (see :func:`scan_records`); only the
    *active* file may legitimately end mid-line.
    """
    records: list[dict[str, Any]] = []
    for segment in sealed_segment_paths(active):
        records += scan_records(segment.read_bytes(), segment, sealed=True)[0]
    active_records, torn = read_records(active)
    return records + active_records, torn


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

    ``torn_tail`` is True when :func:`scan_records` left a torn final line
    out (the signature a crash mid-append leaves).
    """
    source = Path(path)
    try:
        raw = source.read_bytes()
    except FileNotFoundError:
        return [], False
    records, ends = scan_records(raw, source)
    return records, len(raw) > (ends[-1] if ends else 0)


def scan_records(
    raw: bytes, source: object, sealed: bool = False
) -> tuple[list[dict[str, Any]], list[int]]:
    """Parse log bytes into ``(records, ends)``: the one WAL line rule.

    ``ends[i]`` is the byte offset just past record *i*'s newline.  Only the
    final line may be torn — unterminated (an append is acknowledged only
    once its newline is durable) or unreadable — and a torn final line is
    left out.  A *sealed* segment is fsynced whole before the rename that
    seals it, so a torn line there is acknowledged history gone bad and
    raises :class:`WalCorruptionError`, as does an unreadable line anywhere
    before the final one.  *source* names the bytes in error messages.
    """
    lines = raw.split(b"\n")
    unterminated = lines.pop()  # b"" when the bytes end on a newline
    records: list[dict[str, Any]] = []
    ends: list[int] = []
    end = 0
    last = len(lines) - 1
    for position, line in enumerate(lines):
        record = parse_record(line)
        if record is None:
            if position < last or unterminated:
                raise WalCorruptionError(
                    f"unreadable WAL record at line {position + 1} of {source} (not the tail)"
                )
            break
        records.append(record)
        end += len(line) + 1
        ends.append(end)
    if sealed and end < len(raw):
        raise WalCorruptionError(
            f"sealed WAL segment {source} has a torn tail; sealed history "
            "must be whole (segments are fsynced before the sealing rename)"
        )
    return records, ends


def parse_record(line: bytes) -> dict[str, Any] | None:
    """Parse one JSONL line into a WAL record; None when it is not one.

    Called only by :func:`scan_records`, which decides what an unreadable
    line means.
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
        self.last_seq = 0
        for segment in sealed_segment_paths(self.path):
            records, _ = scan_records(segment.read_bytes(), segment, sealed=True)
            if records:
                self.last_seq = records[-1]["seq"]
            self._sealed.append((segment_index(self.path, segment), segment, self.last_seq))
        try:
            raw = self.path.read_bytes()
        except FileNotFoundError:
            raw = b""
        existing, ends = scan_records(raw, self.path)
        if existing:
            self.last_seq = existing[-1]["seq"]
        self.record_count = len(existing)
        self._handle = self.path.open("a", encoding="utf-8")
        kept = ends[-1] if ends else 0
        if kept < len(raw):
            # Drop the torn tail so new appends start on a clean line.
            self._handle.truncate(kept)
            os.fsync(self._handle.fileno())

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
        if self.durability != "never":
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

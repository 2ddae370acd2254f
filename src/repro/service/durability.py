"""Durability for a served Graphitti instance: snapshot + WAL lifecycle.

A served instance lives in one directory::

    <root>/
      snapshot.json    # the latest checkpoint: "wal_seq" FIRST, then "crc32"
      wal.jsonl        # the ACTIVE segment: records appended after the last seal
      wal.000017.jsonl # sealed, immutable segments awaiting a durable snapshot

**Checkpoint** seals the active WAL segment (an O(1) rename under the service
write lock), then — typically on a background thread — writes the snapshot to
a temp file, atomically renames it over ``snapshot.json`` (embedding the last
sealed sequence number), and prunes the sealed segments the snapshot now
supersedes.  A crash at any point leaves either the old snapshot with all
segments intact, or the new snapshot with records recovery recognizes as
already-applied (their ``seq`` is at or below the snapshot's ``wal_seq``) and
skips — checkpointing is idempotent.

**Checksum.**  A snapshot's second key is ``"crc32"``: eight hex digits of
``zlib.crc32`` over every byte after that field.  :func:`read_snapshot`
verifies it before parsing and raises
:class:`~repro.errors.SnapshotCorruptionError` on damage, truncation
included; a snapshot without the field (written before it existed) loads
unverified.

**Recovery** rebuilds the manager from the snapshot (or a fresh instance when
none exists), hydrates catalogue placeholders for every metadata row so
registry-backed statistics and commit validation match the pre-crash
instance, then replays the WAL records logged after the snapshot — sealed
segments first, active file last — through the same record codec live
operations use.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import re
import signal
import sys
import threading
import time
import zlib
from pathlib import Path
from typing import Any, Callable

from repro.core.persistence import hydrate_catalogue, rebuild
from repro.errors import ServiceError, SnapshotCorruptionError, WalCorruptionError
from repro.service.ops import wal_row
from repro.service.wal import (
    WriteAheadLog,
    fsync_dir,
    read_segmented_records,
    sealed_segment_paths,
)

SNAPSHOT_FILE = "snapshot.json"
WAL_FILE = "wal.jsonl"

#: Crash-seam environment variable: set to one of ``seal``, ``tmp``,
#: ``rename`` or ``prune`` to SIGKILL the process immediately after that
#: checkpoint step — the crash-matrix tests drive a subprocess through every
#: seam and prove recovery loses no acknowledged write.
KILL_ENV = "REPRO_CKPT_KILL_AFTER"

_WAL_SEQ_HEAD = re.compile(rb'^\s*\{\s*"wal_seq"\s*:\s*(\d+)')

#: The head of a checksummed snapshot; the checksum covers every byte after it.
_CHECKSUM_HEAD = re.compile(rb'^\{"wal_seq": \d+, "crc32": "([0-9a-f]{8})"')


def _maybe_kill(point: str) -> None:
    if os.environ.get(KILL_ENV) == point:
        os.kill(os.getpid(), signal.SIGKILL)


def peek_snapshot_wal_seq(path: str | Path) -> int:
    """The ``wal_seq`` embedded in the snapshot at *path* (0 when absent).

    Snapshots written by this module place ``wal_seq`` as the FIRST key, so a
    single small read answers the question; a 1M-annotation snapshot is
    hundreds of megabytes and loading it just to read one int made every
    recovery and reopen pay a full-file parse.  Legacy snapshots (wal_seq
    appended last) fall back to the full parse.
    """
    path = Path(path)
    if not path.exists():
        return 0
    try:
        with path.open("rb") as handle:
            head = handle.read(4096)
    except OSError:
        return 0
    match = _WAL_SEQ_HEAD.match(head)
    if match is not None:
        return int(match.group(1))
    try:
        with path.open("r", encoding="utf-8") as handle:
            return int(json.load(handle).get("wal_seq", 0))
    except (OSError, ValueError, json.JSONDecodeError):
        return 0


_COURTESY_LOCK = threading.Lock()
_COURTESY_DEPTH = 0
_COURTESY_PREVIOUS = 0.0
_COURTESY_GC_WAS_ENABLED = False

#: Switch interval inside a courtesy window: long enough to amortize the
#: handoff, short enough that a committer waiting on the GIL resumes in
#: well under a WAL fsync.
_COURTESY_INTERVAL_S = 0.0005


@contextlib.contextmanager
def gil_courtesy():
    """Make background CPU work polite to latency-sensitive threads.

    Snapshot serialization is pure CPU on a background thread, and two
    interpreter-global mechanisms turn that into commit stalls even though
    no lock is shared:

    * with the default 5 ms switch interval a concurrent committer waits up
      to 5 ms for every GIL re-acquisition (several per durable commit —
      each fsync releases and re-takes it), multiplying into tens of
      milliseconds of p99 — so the window lowers the switch interval;
    * serialization's allocation burst trips generational GC while the heap
      is doubled by the frozen view plus the payload, and a full collection
      holds the GIL for the entire stop-the-world pass (observed 50-75 ms)
      — so the window pauses automatic collection; reference counting still
      frees the serialization garbage, and the deferred cyclic pass runs at
      the next threshold crossing after the window closes.

    The window is process-global, so a depth count keeps overlapping
    checkpoints (per-shard services share the interpreter) from restoring a
    still-lowered interval or re-enabling GC a sibling paused.
    """
    global _COURTESY_DEPTH, _COURTESY_PREVIOUS, _COURTESY_GC_WAS_ENABLED
    with _COURTESY_LOCK:
        if _COURTESY_DEPTH == 0:
            _COURTESY_PREVIOUS = sys.getswitchinterval()
            _COURTESY_GC_WAS_ENABLED = gc.isenabled()
            sys.setswitchinterval(_COURTESY_INTERVAL_S)
            gc.disable()
        _COURTESY_DEPTH += 1
    try:
        yield
    finally:
        with _COURTESY_LOCK:
            _COURTESY_DEPTH -= 1
            if _COURTESY_DEPTH == 0:
                sys.setswitchinterval(_COURTESY_PREVIOUS)
                if _COURTESY_GC_WAS_ENABLED:
                    gc.enable()


@contextlib.contextmanager
def collector_paused():
    """Pause the cyclic collector for an allocation-only stretch of work.

    Reference counting still frees everything acyclic; whatever state the
    collector was in before (a caller may already have it off) is restored
    on the way out, also when the work raises.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def dump_json_chunked(handle, payload: dict[str, Any]) -> None:
    """Serialize *payload* to *handle*, byte-identical to ``json.dump``.

    One monolithic ``json.dumps`` of a large snapshot is a single C call
    that holds the GIL for its full duration — hundreds of milliseconds at
    100k annotations — stalling every other thread.  Encoding the big
    collections entry-by-entry keeps each C call microseconds long, with a
    GIL yield point between entries, while still using the C encoder for
    the actual byte generation.
    """
    handle.write("{")
    first = True
    for key, value in payload.items():
        if not first:
            handle.write(", ")
        first = False
        handle.write(json.dumps(key))
        handle.write(": ")
        if isinstance(value, list):
            handle.write("[")
            for index, item in enumerate(value):
                if index:
                    handle.write(", ")
                handle.write(json.dumps(item))
            handle.write("]")
        elif isinstance(value, dict) and all(isinstance(k, str) for k in value):
            handle.write("{")
            for index, (k, v) in enumerate(value.items()):
                if index:
                    handle.write(", ")
                handle.write(json.dumps(k))
                handle.write(": ")
                handle.write(json.dumps(v))
            handle.write("}")
        else:
            # Non-string dict keys coerce differently than json.dumps(k)
            # would; let the stock encoder keep the bytes canonical.
            handle.write(json.dumps(value))
    handle.write("}")


#: Snapshot IO pacing: fsync roughly every this many bytes, then pause.
_SNAPSHOT_CHUNK_BYTES = 512 * 1024
_SNAPSHOT_PACE_S = 0.002


class _PacedWriter:
    """Text-to-binary file wrapper that syncs every ~chunk bytes, pauses
    briefly, and checksums what it writes past the first *unchecked* bytes.

    Deferring a multi-megabyte snapshot to one final fsync builds a flush
    storm that queues ahead of concurrent WAL fsyncs on the same
    filesystem — observed as ~100 ms commit p99 while a checkpoint lands.
    Spreading the sync cost into small paced ``fdatasync`` chunks keeps any
    single flush, and therefore any commit fsync waiting behind it, a few
    milliseconds; the caller still fsyncs once at the end for the metadata.
    """

    def __init__(self, handle, unchecked: int = 0, chunk_bytes: int = _SNAPSHOT_CHUNK_BYTES,
                 pace_s: float = _SNAPSHOT_PACE_S):
        self._handle = handle
        self._chunk = chunk_bytes
        self._pace = pace_s
        self._pending = 0
        self._unchecked = unchecked
        self.crc32 = 0

    def write(self, text: str) -> int:
        data = text.encode("utf-8")
        skipped = min(self._unchecked, len(data))
        self._unchecked -= skipped
        self.crc32 = zlib.crc32(memoryview(data)[skipped:], self.crc32)
        written = self._handle.write(data)
        self._pending += written
        if self._pending >= self._chunk:
            self._handle.flush()
            os.fdatasync(self._handle.fileno())
            self._pending = 0
            time.sleep(self._pace)
        return written


def _preallocate(handle, estimate: int) -> None:
    """Reserve *estimate* bytes up front (best effort).

    With delayed allocation, every paced sync of a growing temp file adds
    extent metadata to the journal transaction concurrent WAL fsyncs must
    commit — the entanglement that stalls committers.  Preallocating turns
    the chunk syncs into pure data writeback the journal never sees.
    """
    if estimate <= 0:
        return
    fallocate = getattr(os, "posix_fallocate", None)
    if fallocate is None:  # pragma: no cover - non-POSIX platform
        return
    try:
        fallocate(handle.fileno(), 0, estimate)
    except OSError:  # pragma: no cover - filesystem without fallocate
        pass


def write_snapshot_file(path: Path, payload: dict[str, Any]) -> Path:
    """Write *payload* durably at *path*: the one snapshot file writer.

    ``wal_seq`` is emitted as the FIRST key so reopen/recovery can peek it
    without parsing the payload (see :func:`peek_snapshot_wal_seq`), and the
    checksum as the second, written as a placeholder and patched in place
    once the bytes after it are known.  Temp file (preallocated to the size
    of the snapshot it replaces, paced to disk) + fsync + atomic rename +
    directory fsync.
    """
    wal_seq = int(payload.get("wal_seq", 0))
    ordered: dict[str, Any] = {"wal_seq": wal_seq, "crc32": "0" * 8}
    for key, value in payload.items():
        if key not in ordered:
            ordered[key] = value
    checksum_at = len(f'{{"wal_seq": {wal_seq}, "crc32": "')
    tmp = path.with_suffix(".json.tmp")
    try:
        estimate = path.stat().st_size
    except OSError:
        estimate = 0
    with tmp.open("wb") as handle:
        _preallocate(handle, estimate)
        writer = _PacedWriter(handle, unchecked=checksum_at + 9)  # 8 digits + quote
        dump_json_chunked(writer, ordered)
        handle.truncate()  # trim any over-allocation from the estimate
        handle.seek(checksum_at)
        handle.write(b"%08x" % writer.crc32)
        handle.flush()
        os.fsync(handle.fileno())
    _maybe_kill("tmp")
    os.replace(tmp, path)
    # The rename itself is only durable once the directory entry reaches
    # disk; fsync the directory BEFORE pruning segments, or a power
    # failure could leave the old snapshot next to already-pruned history.
    fsync_dir(path.parent)
    _maybe_kill("rename")
    return path


def read_snapshot(path: str | Path) -> dict[str, Any]:
    """Parse the snapshot at *path* after verifying its checksum.

    Raises :class:`~repro.errors.SnapshotCorruptionError` when the bytes
    after the ``crc32`` field are not the ones written with it — damage
    that would still parse, or a truncated file.  A snapshot without the
    field predates it and is parsed unverified.
    """
    data = Path(path).read_bytes()
    head = _CHECKSUM_HEAD.match(data)
    if head is not None:
        expected = int(head.group(1), 16)
        actual = zlib.crc32(memoryview(data)[head.end():])
        if actual != expected:
            raise SnapshotCorruptionError(
                f"snapshot {path} is damaged: crc32 {actual:08x} over {len(data)} bytes, "
                f"written as {expected:08x}"
            )
    return json.loads(data)


class DurableStore:
    """Paths and lifecycle of one served instance's on-disk state."""

    def __init__(self, root: str | Path, durability: str = "always"):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.snapshot_path = self.root / SNAPSHOT_FILE
        self.wal = WriteAheadLog(self.root / WAL_FILE, durability=durability)
        # The log alone cannot know the sequence high-water mark after a
        # checkpoint truncated it: numbering must continue ABOVE the
        # snapshot's wal_seq, or records appended after a reopen would be
        # skipped at recovery as already-applied.
        snapshot_seq = self._snapshot_wal_seq()
        if snapshot_seq > self.wal.last_seq:
            self.wal.last_seq = snapshot_seq
        self.checkpoints = 0
        #: Test seam: called right before the snapshot payload is serialized.
        #: The concurrent-writer stress test parks a checkpoint here to prove
        #: writers never block on serialization.
        self.snapshot_write_hook: Callable[[], None] | None = None

    def _snapshot_wal_seq(self) -> int:
        """The ``wal_seq`` embedded in the current snapshot (0 when absent)."""
        return peek_snapshot_wal_seq(self.snapshot_path)

    @property
    def wal_path(self) -> Path:
        return self.wal.path

    # -- checkpoint lifecycle --------------------------------------------------
    #
    # A checkpoint is three steps with different locking needs:
    #
    #   seal_for_checkpoint()   O(1), runs under the service write lock
    #   write_snapshot(payload) the expensive part, safe off-lock
    #   finish_checkpoint(seq)  prunes superseded segments, safe off-lock

    def seal_for_checkpoint(self) -> int:
        """Seal the active WAL segment and return the sequence high-water mark.

        The checkpoint counter ticks here — the synchronous, under-lock step —
        so writers observe a deterministic count the moment the interval
        triggers, regardless of how long background serialization takes.
        """
        self.wal.seal_segment()
        _maybe_kill("seal")
        self.checkpoints += 1
        return self.wal.last_seq

    def write_snapshot(self, payload: dict[str, Any]) -> Path:
        """Write *payload* as this root's snapshot (:func:`write_snapshot_file`)."""
        if self.snapshot_write_hook is not None:
            self.snapshot_write_hook()
        return write_snapshot_file(self.snapshot_path, payload)

    def finish_checkpoint(self, wal_seq: int) -> list[Path]:
        """Prune sealed segments the durable snapshot at *wal_seq* supersedes."""
        removed = self.wal.prune_sealed(wal_seq)
        _maybe_kill("prune")
        return removed

    def close(self) -> None:
        self.wal.close()


def has_durable_state(root: str | Path) -> bool:
    """Whether *root* holds a single service's snapshot or WAL records.

    Plain stats — no WAL open (which would repair a torn tail before
    recovery can report it) and no log parse.  A crash after a seal but
    before the snapshot landed leaves an empty active file next to sealed
    segments — that is state too.
    """
    root = Path(root)
    wal_file = root / WAL_FILE
    return (
        (root / SNAPSHOT_FILE).exists()
        or (wal_file.exists() and wal_file.stat().st_size > 0)
        or bool(sealed_segment_paths(wal_file))
    )


def apply_record(manager, record: dict[str, Any]) -> None:
    """Apply one WAL record to *manager* (the replay half of the op table)."""
    wal_row(record["op"]).apply(manager, record["payload"])


@collector_paused()
def recover_manager(root: str | Path):
    """Rebuild the manager for the instance at *root*.

    Runs with the cyclic collector paused: recovery only allocates — the
    decoded payload, then the structures built from it — so the generational
    collections it would trigger re-walk a growing heap and free nothing.

    Returns ``(manager, info)`` where *info* reports what recovery saw:
    ``{"snapshot": bool, "base_seq": int, "replayed": int, "skipped": int,
    "torn_tail": bool}``.  Raises when the directory holds no state at all.
    """
    root = Path(root)
    snapshot_path = root / SNAPSHOT_FILE
    wal_path = root / WAL_FILE
    # Sealed segments first, the active file last — one ordered record stream.
    records, torn_tail = read_segmented_records(wal_path)
    if not snapshot_path.exists() and not records:
        if torn_tail:
            # A crash mid-append of the very first record: the only line is
            # torn, so nothing was ever acknowledged.  The correct recovered
            # state is a fresh instance, not a refusal to open the root.
            from repro.core.manager import Graphitti

            return Graphitti(root.name or "graphitti"), {
                "snapshot": False,
                "base_seq": 0,
                "replayed": 0,
                "skipped": 0,
                "torn_tail": True,
            }
        raise ServiceError(f"no snapshot or WAL records to recover from in {root}")

    base_seq = 0
    if snapshot_path.exists():
        payload = read_snapshot(snapshot_path)
        manager = rebuild(payload)
        base_seq = int(payload.get("wal_seq", 0))
    else:
        from repro.core.manager import Graphitti

        manager = Graphitti(root.name or "graphitti")

    # Hydrate registry placeholders BEFORE replay: update/delete_object
    # records validate against the registry, and objects registered before
    # the snapshot exist only as metadata rows until hydration.  (Register
    # records replayed below are idempotent over the placeholders.)
    hydrate_catalogue(manager)

    replayed = skipped = 0
    previous_seq = 0
    for record in records:
        # Sequence numbers are assigned monotonically and never rewritten; a
        # repeated or regressing seq means the log was damaged or doctored,
        # and replaying it would double-apply an acknowledged mutation.
        if record["seq"] <= previous_seq:
            raise WalCorruptionError(
                f"WAL seq {record['seq']} does not advance past {previous_seq} in {wal_path}"
            )
        previous_seq = record["seq"]
        if record["seq"] <= base_seq:
            skipped += 1  # superseded by the snapshot (crash mid-checkpoint)
            continue
        apply_record(manager, record)
        replayed += 1

    # A register record replayed above may have inserted a metadata row whose
    # placeholder the pre-replay hydration could not see; sweep once more.
    hydrate_catalogue(manager)
    # Recovery is a natural quiesce point: re-derive, once, the components the
    # replayed removals left pending, so the first query after a crash never
    # pays for them.
    manager.agraph.graph.rebuild_components()
    return manager, {
        "snapshot": snapshot_path.exists(),
        "base_seq": base_seq,
        "replayed": replayed,
        "skipped": skipped,
        "torn_tail": torn_tail,
    }

"""A read replica of one served Graphitti instance.

A :class:`ReplicaFollower` owns a full :class:`~repro.service.GraphittiService`
of its own — manager, read/write lock, epoch-tagged result cache, and a
durable snapshot+WAL directory — but its *only* writer is the replication
pipeline: shipped primary WAL records are applied through the same
:func:`~repro.service.durability.apply_record` codec recovery uses, then
persisted **verbatim** (primary sequence numbers preserved) via
:meth:`~repro.service.wal.WriteAheadLog.append_record`.  Keeping the
primary's numbering is what makes every path idempotent: re-ships,
truncation restarts and post-crash replays all skip records at or below
``applied_seq``, and a record that *rewinds* the sequence is rejected by the
append-time seq-fencing guard instead of double-applying.

``applied_seq`` is the follower's consistency frontier: a query served here
reflects exactly the acknowledged primary history up to it.  The replicated
service admits bounded-staleness reads by comparing a required ``min_seq``
against it.

Followers are **term-aware**: every shipment carries the shipping primary's
term, and a shipment from an older term than the follower has seen is
refused (:class:`StaleTermError`) — the other half of zombie-primary
fencing.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable

from repro.core.manager import Graphitti
from repro.errors import ServiceError
from repro.replica.tailer import ReplicationGapError, decode_shipment
from repro.service.durability import SNAPSHOT_FILE, WAL_FILE, apply_record, write_snapshot_file
from repro.service.service import GraphittiService, ServiceConfig
from repro.service.wal import fsync_dir, sealed_segment_paths


class StaleTermError(ServiceError):
    """A shipment arrived from a primary whose term has been superseded.

    Raised when a fenced/zombie primary keeps shipping after a failover
    promoted a newer term.  The shipment is rejected wholesale — nothing is
    applied — so a zombie can never mutate a follower that has moved on.
    """

    def __init__(self, shipped_term: int, current_term: int):
        super().__init__(
            f"shipment carries term {shipped_term} but this follower already "
            f"follows term {current_term}; zombie-primary shipment rejected"
        )
        self.shipped_term = shipped_term
        self.current_term = current_term


class ReplicaFollower:
    """One read replica: a durable service whose writes are shipped records."""

    def __init__(
        self,
        root: str | Path,
        name: str | None = None,
        config: ServiceConfig | None = None,
        term: int = 1,
    ):
        self.root = Path(root)
        self.name = name if name is not None else self.root.name
        self.term = term
        self._config = config
        #: Injectable stall hook (fault harness): returns True when this
        #: follower's apply loop should do nothing this round.
        self.stall_hook: Callable[[], bool] | None = None
        self.service = GraphittiService.open(
            self.root,
            config=config,
            manager_factory=lambda: Graphitti(self.name),
        )
        self.reseeds = 0

    # -- replication state -----------------------------------------------------

    @property
    def applied_seq(self) -> int:
        """The acknowledged-history frontier this replica has applied."""
        return self.service.last_wal_seq

    @property
    def manager(self) -> Graphitti:
        return self.service.manager

    def lag(self, primary_seq: int) -> int:
        """Records this replica is behind the given primary high-water mark."""
        return max(0, primary_seq - self.applied_seq)

    # -- the apply path --------------------------------------------------------

    def apply_shipment(self, payload: bytes, term: int) -> int:
        """Decode and apply one shipment datagram; returns the new frontier.

        A torn final record (transit tear) is silently dropped — the shipper
        re-ships it whole next round.  A stale term raises
        :class:`StaleTermError` before anything is applied.
        """
        records, _torn = decode_shipment(payload, last_seq=self.applied_seq)
        return self.apply_records(records, term)

    def apply_records(self, records: list[dict[str, Any]], term: int) -> int:
        """Apply primary WAL records in order; returns the new ``applied_seq``.

        Records at or below the frontier are skipped (idempotent re-ship); a
        gap above ``applied_seq + 1`` raises
        :class:`~repro.replica.tailer.ReplicationGapError` (the caller must
        re-seed from a snapshot); everything applied is appended verbatim to
        this replica's own WAL so a follower crash recovers to the same
        frontier.
        """
        if term < self.term:
            raise StaleTermError(term, self.term)
        self.term = term
        if self.stall_hook is not None and self.stall_hook():
            return self.applied_seq
        fresh = [record for record in records if record["seq"] > self.applied_seq]
        if not fresh:
            return self.applied_seq
        if fresh[0]["seq"] > self.applied_seq + 1:
            raise ReplicationGapError(self.applied_seq + 1, fresh[0]["seq"], self.root)
        service = self.service
        with service._lock.write_locked():  # noqa: SLF001 - the replication write path
            for record in fresh:
                apply_record(service.manager, record)
                service._store.wal.append_record(record)  # noqa: SLF001
            # Same discipline as the live mutation path: never let a reader
            # race the lazy component rebuild (no-op unless a record removed
            # a-graph nodes or edges), and drop the cached pages the records
            # reached here, so no reader pays for it.
            service.manager.agraph.graph.rebuild_components()
            service._cache.advance(service.manager.mutation_epoch)  # noqa: SLF001
        return self.applied_seq

    # -- snapshot re-seed ------------------------------------------------------

    def reseed(self, snapshot_payload: dict[str, Any]) -> int:
        """Rebuild this replica from a primary snapshot (gap recovery).

        Used when the primary checkpointed away records this replica never
        saw: replaying the remaining WAL would skip history, so the replica
        adopts the snapshot (whose ``wal_seq`` becomes the new frontier) and
        resumes tailing from there.  The snapshot lands through the same
        writer checkpoints use (``wal_seq`` first, checksum, paced writes,
        temp + fsync + rename + dir fsync).
        """
        base_seq = int(snapshot_payload.get("wal_seq", 0))
        if base_seq < self.applied_seq:
            raise ServiceError(
                f"refusing to reseed replica {self.name} backwards: snapshot is at "
                f"seq {base_seq}, replica already applied {self.applied_seq}"
            )
        self.service.config.checkpoint_on_close = False
        self.service.close()
        write_snapshot_file(self.root / SNAPSHOT_FILE, snapshot_payload)
        # The old WAL's records are all covered by (or behind) the snapshot —
        # the active file AND any segments this replica's own checkpoints
        # sealed (leaving them would make the next recovery replay history
        # the adopted snapshot already contains).
        wal_path = self.root / WAL_FILE
        wal_path.write_text("")
        for segment in sealed_segment_paths(wal_path):
            segment.unlink()
        fsync_dir(self.root)
        self.service = GraphittiService.recover(self.root, config=self._config)
        self.reseeds += 1
        return self.applied_seq

    # -- read surface ----------------------------------------------------------

    def query(self, text_or_query):
        return self.service.query(text_or_query)

    def close(self) -> None:
        self.service.close()

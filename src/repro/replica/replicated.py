"""WAL-shipping replication: one primary, N read replicas, fenced failover.

:class:`ReplicatedGraphittiService` composes the pieces of this package into
the deployment shape the serving layer was missing:

* **writes** go to the primary :class:`~repro.service.GraphittiService`
  exactly as before — lock, WAL append, acknowledgement;
* a **shipper** tails the primary's WAL through a
  :class:`~repro.replica.tailer.WalCursor` per follower and ships new
  records as self-contained datagrams; each
  :class:`~repro.replica.follower.ReplicaFollower` applies them through the
  recovery codec and persists them verbatim, so its ``applied_seq`` frontier
  is exactly a prefix of acknowledged primary history;
* **reads** route to followers under a *bounded-staleness* contract: a read
  needing ``min_seq`` is admitted on any follower whose frontier covers it,
  retries with exponential backoff until a deadline, and finally degrades
  gracefully to the primary rather than failing;
* **failover** is *fenced*: when the primary misses enough heartbeat ticks,
  the old primary is fenced (its write path refuses forever), every follower
  is drained from the primary's on-disk WAL — durable acknowledged history
  survives the process that wrote it — the most-caught-up follower is
  promoted under a bumped **term** recorded in the replication manifest, and
  both the term check on shipments and the append-time seq-fencing guard
  reject anything a zombie primary still tries to ship.

The topology lives in one directory::

    <root>/
      replication.json   # {"term": t, "primary": <dir>, "replicas": [...]}
      primary/           # the initial primary's snapshot + WAL
      replica-00/ ...    # one durable service directory per follower
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

from repro.core.builder import AnnotationBuilder
from repro.core.manager import Graphitti
from repro.errors import ServiceError
from repro.obs import Observability
from repro.query.result import QueryResult
from repro.replica.follower import ReplicaFollower
from repro.replica.tailer import ReplicationGapError, WalCursor, encode_shipment
from repro.service import ops
from repro.service.durability import SNAPSHOT_FILE, WAL_FILE, peek_snapshot_wal_seq, read_snapshot
from repro.service.service import GraphittiService, ServiceConfig
from repro.service.wal import write_json_atomic

import json
import zlib

#: Topology + term manifest written next to the role directories.
REPLICATION_MANIFEST = "replication.json"

#: Directory of the initial primary.
PRIMARY_DIR = "primary"


def replica_dir_name(index: int) -> str:
    """The on-disk directory name of follower *index*."""
    return f"replica-{index:02d}"


def read_replication_manifest(root: str | Path) -> dict[str, Any] | None:
    """The replication manifest at *root*, or None when the root has none."""
    path = Path(root) / REPLICATION_MANIFEST
    if not path.exists():
        return None
    with path.open("r", encoding="utf-8") as handle:
        return json.load(handle)


@dataclass
class ReplicationConfig:
    """Tunables of one :class:`ReplicatedGraphittiService`."""

    #: Run the shipper in a background thread; False means the caller pumps
    #: via :meth:`ReplicatedGraphittiService.ship` (deterministic test mode —
    #: bounded-staleness reads still pump inline while they wait).
    auto_ship: bool = True
    #: Run the failure detector in a background thread; False means the
    #: caller ticks via :meth:`ReplicatedGraphittiService.tick` (deterministic
    #: test mode) or promotes explicitly.
    auto_failover: bool = False
    #: Total seconds a read waits for a follower before degrading to primary.
    read_deadline: float = 0.25
    #: Default read consistency: "eventual" (any follower), "fresh" (follower
    #: caught up to the last acknowledged write), or "primary".
    default_read: str = "eventual"


def _delegate(op: ops.Op) -> Callable | None:
    """Writes (and ``approve``, the broadcast read that answers for a write)
    go to the live primary, reads to the primary-coherent copy, and
    maintenance (``checkpoint``, ``compact``) runs on every role at a
    replication quiesce point."""
    if op.kind == ops.ADMIN:

        def maintain(self):
            # Drain the shipper first, under its mutex, so the WAL segments
            # the primary seals and prunes cannot open a gap under a cursor.
            with self._ship_mutex:
                self.ship()
                report = op.call(self._require_primary())
                for follower in self._followers:
                    op.call(follower.service)
                return report

        return maintain
    writes = op.kind == ops.WRITE or op.routing == ops.BROADCAST
    target = "_primary_for_write" if writes else "_read_service"
    return lambda self, *args, **kwargs: op.call(getattr(self, target)(), *args, **kwargs)


@ops.surface(_delegate)
class ReplicatedGraphittiService:
    """Primary + N followers behind one service facade.

    Construct with :meth:`open` (fresh or existing root) or :meth:`recover`
    (post-crash, optionally declaring the primary dead).  The facade keeps
    the single-service surface — ``query``/``commit``/``bulk_commit``/... —
    plus the replication verbs: ``ship``, ``tick``, ``promote``,
    ``failover``.
    """

    #: Seconds between background ship pumps (when ``auto_ship``).
    SHIP_INTERVAL = 0.02
    #: Max records per shipment datagram.
    SHIP_BATCH = 512
    #: Seconds between failure-detector ticks (when ``auto_failover``).
    HEARTBEAT_INTERVAL = 0.05
    #: Consecutive missed heartbeats before the lease is considered lost.
    LEASE_TICKS = 3
    #: First retry delay of a bounded-staleness read that found no follower
    #: caught up to its min_seq, and the multiplier between retries.
    READ_BACKOFF = 0.002
    READ_BACKOFF_MULTIPLIER = 2.0

    def __init__(
        self,
        root: str | Path,
        primary: GraphittiService | None,
        primary_dir: str,
        followers: list[ReplicaFollower],
        term: int,
        replica_dirs: list[str],
        replication: ReplicationConfig | None = None,
    ):
        self.root = Path(root)
        self.replication = replication or ReplicationConfig()
        self._primary = primary
        self._primary_dir = primary_dir
        self._followers = followers
        self._term = term
        self._dirs = replica_dirs  # every role directory, primary included
        self._primary_dead = primary is None
        self._missed_heartbeats = 0
        self._promotions = 0
        self._closed = False
        # One mutex serializes the shipper, failover and checkpoint — the
        # three places that move cursors or change who the primary is.
        self._ship_mutex = threading.RLock()
        self._cursors: dict[str, WalCursor] = {}
        self._pending: dict[str, list[dict[str, Any]]] = {}
        for follower in followers:
            self._reset_cursor(follower)
        self._rr = 0  # round-robin position of the follower read pool
        self._reads = {"replica": 0, "primary": 0, "degraded": 0, "retries": 0}
        # The facade's own registry records shipment spans and fleet
        # counters; per-role registries live in the primary/follower
        # services and merge into metrics().  Observability config follows
        # the primary's (or, primary dead, a follower's) ServiceConfig.
        roles = self._roles()
        self.obs = Observability(roles[0][1].config.observability if roles else None)
        self._ships = 0
        self._records_shipped = 0
        self._reseeds = 0
        self.last_ship_error: Exception | None = None
        #: Injectable transit-tear hook (fault harness): maps an encoded
        #: shipment to the (possibly truncated) bytes actually "delivered".
        self.ship_tear_hook: Callable[[str, bytes], bytes] | None = None
        self._stop = threading.Event()
        self._ship_thread: threading.Thread | None = None
        self._monitor_thread: threading.Thread | None = None
        if self.replication.auto_ship:
            self._ship_thread = threading.Thread(
                target=self._ship_loop, name="graphitti-shipper", daemon=True
            )
            self._ship_thread.start()
        if self.replication.auto_failover:
            self._monitor_thread = threading.Thread(
                target=self._monitor_loop, name="graphitti-failure-detector", daemon=True
            )
            self._monitor_thread.start()

    # -- lifecycle -------------------------------------------------------------

    @classmethod
    def open(
        cls,
        root: str | Path,
        replicas: int | None = None,
        config: ServiceConfig | None = None,
        replication: ReplicationConfig | None = None,
        manager_factory: Callable[[], Graphitti] | None = None,
    ) -> "ReplicatedGraphittiService":
        """Open (or create) a replicated deployment at *root*.

        A fresh root needs *replicas*; an existing root's topology comes from
        its manifest, and a conflicting explicit *replicas* is refused (the
        manifest is the durable truth — silently re-sharding the read pool
        would orphan follower state).
        """
        root = Path(root)
        manifest = read_replication_manifest(root)
        if manifest is not None:
            manifest_followers = [d for d in manifest["replicas"] if d != manifest["primary"]]
            if replicas is not None and replicas != len(manifest_followers):
                raise ServiceError(
                    f"deployment at {root} has {len(manifest_followers)} replicas "
                    f"per its manifest; refusing to open with replicas={replicas}"
                )
        else:
            if replicas is None:
                replicas = 2
            if replicas < 0:
                raise ServiceError(f"replicas must be non-negative, got {replicas}")
            dirs = [PRIMARY_DIR] + [replica_dir_name(i) for i in range(replicas)]
            manifest = {"version": 1, "term": 1, "primary": PRIMARY_DIR, "replicas": dirs}
            write_json_atomic(root / REPLICATION_MANIFEST, manifest)
        return cls._from_manifest(root, manifest, config, replication, manager_factory)

    @classmethod
    def recover(
        cls,
        root: str | Path,
        config: ServiceConfig | None = None,
        replication: ReplicationConfig | None = None,
        assume_primary_dead: bool = False,
    ) -> "ReplicatedGraphittiService":
        """Reopen an existing deployment after a crash.

        With ``assume_primary_dead=True`` the primary's *process state* is
        declared unrecoverable: its directory is only read as a shipping
        source (acknowledged history is durable there) and the caller is
        expected to :meth:`failover` — the crash-smoke drill.  Its WAL may
        end in a torn record (the crash signature); the cursor-based drain
        tolerates exactly that.
        """
        manifest = read_replication_manifest(root)
        if manifest is None:
            raise ServiceError(f"no replication manifest at {root}; nothing to recover")
        return cls._from_manifest(
            Path(root), manifest, config, replication, None, open_primary=not assume_primary_dead
        )

    @classmethod
    def _from_manifest(
        cls,
        root: Path,
        manifest: dict[str, Any],
        config: ServiceConfig | None,
        replication: ReplicationConfig | None,
        manager_factory: Callable[[], Graphitti] | None,
        open_primary: bool = True,
    ) -> "ReplicatedGraphittiService":
        """Open the roles the manifest names (the one construction path)."""
        term = int(manifest["term"])
        primary_dir = manifest["primary"]
        dirs = list(manifest["replicas"])
        primary = None
        if open_primary:
            primary = GraphittiService.open(
                root / primary_dir, config=config, manager_factory=manager_factory
            )
        followers = [
            ReplicaFollower(
                root / name,
                name=name,
                config=replace(config) if config is not None else None,
                term=term,
            )
            for name in dirs
            if name != primary_dir
        ]
        return cls(root, primary, primary_dir, followers, term, dirs, replication=replication)

    def close(self) -> None:
        """Drain the shipper, stop the threads, close every role."""
        if self._closed:
            return
        self._stop.set()
        for thread in (self._ship_thread, self._monitor_thread):
            if thread is not None:
                thread.join(timeout=5.0)
        with self._ship_mutex:
            if self._primary is not None and not self._primary_dead:
                try:
                    self.ship()
                except ServiceError:
                    pass  # a poisoned WAL still closes; followers keep what shipped
            for follower in self._followers:
                follower.close()
            if self._primary is not None:
                try:
                    self._primary.close()
                except OSError:
                    # A device refusing the close-time sync loses nothing
                    # acknowledged (every acked record was fsynced at append
                    # time); shutdown must still release the other roles.
                    pass
        self._closed = True

    def __enter__(self) -> "ReplicatedGraphittiService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- identity / compatibility surface --------------------------------------

    @property
    def term(self) -> int:
        return self._term

    @property
    def primary(self) -> GraphittiService | None:
        return self._primary

    @property
    def followers(self) -> list[ReplicaFollower]:
        return list(self._followers)

    @property
    def manager(self) -> Graphitti:
        """The primary's manager (the authoritative live state)."""
        return self._primary_for_write().manager

    @property
    def config(self) -> ServiceConfig:
        return self._require_primary().config

    @property
    def recovery_info(self) -> dict[str, Any] | None:
        return self._require_primary().recovery_info

    def _require_primary(self) -> GraphittiService:
        if self._primary is None:
            raise ServiceError(
                "no live primary (crash recovery opened this deployment with "
                "assume_primary_dead); run failover()/promote() first"
            )
        return self._primary

    def _primary_for_write(self) -> GraphittiService:
        primary = self._require_primary()
        if self._primary_dead:
            raise ServiceError(
                "primary is unavailable and failover has not promoted a "
                "replacement yet; writes are refused to protect acknowledged history"
            )
        return primary

    @property
    def last_acked_seq(self) -> int:
        """The highest acknowledged (WAL-durable) primary sequence number."""
        if self._primary is not None:
            return self._primary.last_wal_seq
        return max((f.applied_seq for f in self._followers), default=0)

    # -- the shipping pipeline -------------------------------------------------

    def _primary_root(self) -> Path:
        return self.root / self._primary_dir

    def _reset_cursor(self, follower: ReplicaFollower) -> None:
        self._cursors[follower.name] = WalCursor(
            self._primary_root() / WAL_FILE, last_seq=follower.applied_seq
        )
        self._pending[follower.name] = []

    def ship(self) -> int:
        """One shipping pump over every follower; returns records applied.

        Safe to call concurrently with the background shipper (one mutex
        serializes pumps) and deliberately callable with the primary
        *process* dead — the WAL file is the replication source, which is
        exactly why acknowledged writes survive failover.
        """
        applied = 0
        with self._ship_mutex:
            for follower in list(self._followers):
                applied += self._pump_follower(follower)
        return applied

    def _pump_follower(self, follower: ReplicaFollower) -> int:
        """Ship one datagram to one follower; returns records newly applied."""
        cursor = self._cursors[follower.name]
        pending = self._pending[follower.name]
        try:
            fresh = cursor.poll(max_records=self.SHIP_BATCH)
        except ReplicationGapError:
            self._reseed_follower(follower)
            return 0
        records = pending + fresh
        if not records:
            if follower.applied_seq < self._snapshot_base_seq():
                # The records this follower still needs predate the primary's
                # snapshot: they can never arrive from the WAL (an empty log
                # after a checkpoint hides the gap ReplicationGapError would
                # otherwise flag).  Re-seed now; the tail ships next pump.
                self._reseed_follower(follower)
            return 0
        # Only shipping rounds that carry records are traced — the idle
        # background pump would otherwise dominate the span histogram.
        with self.obs.span("replication.ship") as span:
            span.set("follower", follower.name)
            span.set("records", len(records))
            payload = encode_shipment(records)
            if self.ship_tear_hook is not None:
                payload = self.ship_tear_hook(follower.name, payload)
            before = follower.applied_seq
            try:
                applied_seq = follower.apply_shipment(payload, self._term)
            except ReplicationGapError:
                self._reseed_follower(follower)
                return 0
            # Anything the follower did not apply (a transit tear dropped the
            # datagram's tail, or a stall hook swallowed the round) stays
            # pending and is re-shipped whole next pump — the cursor never
            # rewinds.
            self._pending[follower.name] = [r for r in records if r["seq"] > applied_seq]
            self._ships += 1
            newly = max(0, applied_seq - before)
            self._records_shipped += newly
            span.set("applied", newly)
        self.obs.count("replication.records_shipped", newly)
        return newly

    def _snapshot_base_seq(self) -> int:
        """The ``wal_seq`` of the primary's current snapshot (0 when none).

        Records at or below it are never in the primary's WAL — a follower
        behind this mark needs a snapshot re-seed, not more polling.
        """
        snapshot_path = self._primary_root() / SNAPSHOT_FILE
        if not snapshot_path.exists():
            return 0
        try:
            return peek_snapshot_wal_seq(snapshot_path)
        except (OSError, ValueError, json.JSONDecodeError):
            return 0

    def _reseed_follower(self, follower: ReplicaFollower) -> None:
        """Gap recovery: re-seed one follower from the primary's snapshot."""
        snapshot_path = self._primary_root() / SNAPSHOT_FILE
        if not snapshot_path.exists():
            raise ServiceError(
                f"replica {follower.name} needs records the WAL no longer holds "
                f"and {snapshot_path} does not exist; cannot re-seed"
            )
        follower.reseed(read_snapshot(snapshot_path))
        self._reset_cursor(follower)
        self._reseeds += 1

    def _ship_loop(self) -> None:
        while not self._stop.wait(self.SHIP_INTERVAL):
            try:
                self.ship()
            except Exception as exc:  # noqa: BLE001 - surfaced via stats, not a dead thread
                self.last_ship_error = exc

    # -- bounded-staleness read routing ----------------------------------------

    def _required_seq(self, min_seq: int | None, consistency: str | None) -> int:
        if min_seq is not None:
            return min_seq
        mode = consistency or self.replication.default_read
        if mode == "fresh":
            return self.last_acked_seq
        return 0

    def _pick_follower(self, need: int, affinity: int | None = None) -> ReplicaFollower | None:
        followers = list(self._followers)
        if not followers:
            return None
        start = self._rr if affinity is None else affinity % len(followers)
        for attempt in range(len(followers)):
            candidate = followers[(start + attempt) % len(followers)]
            if candidate.applied_seq >= need:
                if affinity is None:
                    self._rr = (start + attempt + 1) % len(followers)
                return candidate
        return None

    def _read_replica(self, need: int, affinity: int | None = None) -> ReplicaFollower | None:
        """A follower admitted for a read needing *need*, waiting per config.

        Retries with exponential backoff until the read deadline, pumping
        the shipper inline on each miss so a waiting read makes progress
        instead of spinning.  Returns None when the deadline expires — the
        caller degrades to the primary.
        """
        deadline = time.monotonic() + self.replication.read_deadline
        delay = self.READ_BACKOFF
        while True:
            candidate = self._pick_follower(need, affinity)
            if candidate is not None:
                return candidate
            # Pump the pipeline inline instead of only sleeping: the read
            # itself can ship the records it is waiting for (and in manual
            # ship mode this is the only way a waiting read makes progress).
            try:
                self.ship()
            except ServiceError:
                pass  # e.g. reseed without snapshot; the primary still serves
            candidate = self._pick_follower(need, affinity)
            if candidate is not None:
                return candidate
            if time.monotonic() + delay > deadline:
                return None
            self._reads["retries"] += 1
            time.sleep(delay)
            delay *= self.READ_BACKOFF_MULTIPLIER

    def query(
        self,
        text_or_query,
        min_seq: int | None = None,
        consistency: str | None = None,
    ) -> QueryResult:
        """Run a GQL query under the bounded-staleness read contract.

        ``consistency`` is "eventual", "fresh" or "primary" (default from
        :class:`ReplicationConfig`); ``min_seq`` pins an explicit frontier
        instead (read-your-writes: pass the seq your write acknowledged
        with).  The read waits (backoff + deadline) for a follower to catch
        up, then degrades to the primary rather than failing.

        Textual queries route with *query affinity*: the query text hashes
        to a preferred follower, so each follower's result cache owns a
        disjoint slice of the hot query set and a page a shipment drops is
        re-executed once across the fleet instead of once per follower.  A lagging preferred follower falls through to the
        next one — affinity is a cache hint, never a consistency rule.
        """
        mode = consistency or self.replication.default_read
        need = self._required_seq(min_seq, consistency)
        if mode != "primary" and self._followers:
            affinity = None
            if isinstance(text_or_query, str):
                affinity = zlib.crc32(text_or_query.encode("utf-8"))
            follower = self._read_replica(need, affinity)
            if follower is not None:
                self._reads["replica"] += 1
                return follower.query(text_or_query)
            self._reads["degraded"] += 1
        # No primary (declared dead) and no follower met the frontier: serve
        # the most-caught-up follower — graceful degradation, never a refusal.
        service = self._read_service()
        self._reads["primary" if self._primary is not None else "degraded"] += 1
        return service.query(text_or_query)

    # -- the table surface -------------------------------------------------------
    #
    # Writes, point reads and maintenance verbs are generated per table row
    # (``_delegate``); only the bounded-staleness ``query`` above, the builder
    # hand-off and the fleet statistics are written out.

    def new_annotation(self, *args: Any, **kwargs: Any) -> AnnotationBuilder:
        builder = self._primary_for_write().new_annotation(*args, **kwargs)
        builder._manager = self  # noqa: SLF001 - route the builder's commit here
        return builder

    def _read_service(self) -> GraphittiService:
        """Point reads stay primary-coherent while a primary exists."""
        if self._primary is not None:
            return self._primary
        best = max(self._followers, key=lambda f: f.applied_seq, default=None)
        if best is None:
            raise ServiceError("no primary and no followers to serve reads")
        return best.service

    # -- failure detection and fenced failover ----------------------------------

    def primary_alive(self) -> bool:
        """Whether the primary can still acknowledge writes."""
        primary = self._primary
        return (
            primary is not None
            and not self._primary_dead
            and not primary._closed  # noqa: SLF001 - liveness probe
            and not primary._wal_failed  # noqa: SLF001
            and not primary.fenced
        )

    def mark_primary_dead(self) -> None:
        """Declare the primary unable to acknowledge writes (fault injection
        and external supervisors both land here)."""
        self._primary_dead = True

    def tick(self) -> bool:
        """One deterministic failure-detector step; True when it failed over.

        A healthy tick resets the missed-heartbeat count (a lease renewal);
        ``LEASE_TICKS`` consecutive misses lose the lease and trigger
        :meth:`failover`.
        """
        if self.primary_alive():
            self._missed_heartbeats = 0
            return False
        self._missed_heartbeats += 1
        if self._missed_heartbeats < self.LEASE_TICKS:
            return False
        if not self._followers:
            return False  # nothing to promote; writes stay refused
        self.failover()
        return True

    def _monitor_loop(self) -> None:
        while not self._stop.wait(self.HEARTBEAT_INTERVAL):
            try:
                self.tick()
            except Exception as exc:  # noqa: BLE001
                self.last_ship_error = exc

    def failover(self) -> dict[str, Any]:
        """Promote the most-caught-up follower (see :meth:`promote`)."""
        return self.promote()

    def promote(self, target: str | None = None) -> dict[str, Any]:
        """Fence the old primary and promote a follower under a new term.

        Steps, in order: fence the old primary (no write it acknowledges
        after this point exists); drain every follower from the primary's
        on-disk WAL — the durable acknowledged history — tolerating only a
        torn (never-acknowledged) tail record; pick *target* (default: the
        most-caught-up follower); bump the term and persist it in the
        manifest **before** serving writes; re-point the remaining followers
        at the new primary's WAL.  Returns a promotion report.
        """
        with self._ship_mutex:
            if not self._followers:
                raise ServiceError("no followers to promote")
            old_primary = self._primary
            if old_primary is not None:
                old_primary.fence()
            # Drain acknowledged history out of the old primary's WAL.  Loop
            # until a full quiet pump: a reseed or a torn shipment can leave
            # records for the next round.
            while True:
                moved = 0
                for follower in list(self._followers):
                    moved += self._pump_follower(follower)
                if not moved:
                    break
            if target is None:
                winner = max(self._followers, key=lambda f: f.applied_seq)
            else:
                matches = [f for f in self._followers if f.name == target]
                if not matches:
                    raise ServiceError(f"no follower named {target!r} to promote")
                winner = matches[0]
                best = max(f.applied_seq for f in self._followers)
                if winner.applied_seq < best:
                    raise ServiceError(
                        f"refusing to promote {target!r} at seq {winner.applied_seq}: "
                        f"another follower has applied {best}; promoting a lagging "
                        "follower would lose acknowledged writes"
                    )
            old_dir = self._primary_dir
            old_seq = old_primary.last_wal_seq if old_primary is not None else None
            self._term += 1
            self._followers.remove(winner)
            del self._cursors[winner.name]
            del self._pending[winner.name]
            if old_primary is not None:
                try:
                    old_primary.close()
                except Exception:  # noqa: BLE001  # repro: allow-silent-except - funeral
                    # The node being discarded may sit on a dying device (a
                    # failing close-time fsync is how it got fenced in the
                    # first place); its funeral cannot abort the promotion.
                    pass
            self._primary = winner.service
            self._primary_dir = winner.name
            self._primary_dead = False
            self._missed_heartbeats = 0
            self._promotions += 1
            for follower in self._followers:
                follower.term = self._term
                self._reset_cursor(follower)
            # The term is the one fact a post-crash open must never read
            # torn: it decides which directory may acknowledge writes.
            write_json_atomic(
                self.root / REPLICATION_MANIFEST,
                {
                    "version": 1,
                    "term": self._term,
                    "primary": self._primary_dir,
                    "replicas": self._dirs,
                    "demoted": old_dir,
                },
            )
            return {
                "term": self._term,
                "primary": self._primary_dir,
                "demoted": old_dir,
                "promoted_at_seq": winner.applied_seq,
                "old_primary_seq": old_seq,
            }

    # -- statistics -------------------------------------------------------------

    def statistics(self) -> dict[str, Any]:
        """Primary statistics plus a ``"replication"`` section."""
        base = self._read_service().statistics()
        base["replication"] = self.replication_stats()
        return base

    def replication_stats(self) -> dict[str, Any]:
        acked = self.last_acked_seq
        return {
            "term": self._term,
            "primary": self._primary_dir,
            "primary_alive": self.primary_alive(),
            "last_acked_seq": acked,
            "followers": [
                {
                    "name": f.name,
                    "applied_seq": f.applied_seq,
                    "lag": f.lag(acked),
                    "reseeds": f.reseeds,
                }
                for f in self._followers
            ],
            "reads": dict(self._reads),
            "ships": self._ships,
            "records_shipped": self._records_shipped,
            "reseeds": self._reseeds,
            "promotions": self._promotions,
        }

    def metrics(self) -> dict[str, Any]:
        """Fleet-wide observability snapshot: facade + primary + followers.

        Counters/gauges sum and histograms add buckets across every role's
        registry (the primary's mutation path, each follower's read/apply
        path, and the facade's shipment spans), matching the aggregation
        contract of :meth:`statistics`.  ``per_role`` keeps each role's own
        snapshot reachable.
        """
        return self.obs.fleet_snapshot(
            "per_role", {name: service.metrics() for name, service in self._roles()}
        )

    def slow_ops(self) -> list[dict[str, Any]]:
        """Slow-op entries across the facade and every role (oldest first)."""
        return self.obs.fleet_slow_ops(
            "role", ((name, service.slow_ops()) for name, service in self._roles())
        )

    def _roles(self) -> list[tuple[str, GraphittiService]]:
        """Every live role's ``(directory name, service)``, primary first."""
        roles = [(self._primary_dir, self._primary)] if self._primary is not None else []
        return roles + [(follower.name, follower.service) for follower in self._followers]

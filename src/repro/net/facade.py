"""Network sharded service: the process-per-shard drop-in facade.

:class:`NetworkShardedGraphittiService` subclasses the threaded
:class:`~repro.shard.service.ShardedGraphittiService` and swaps the shard
list from in-process ``GraphittiService`` objects to
:class:`~repro.net.client.ShardClient` RPC proxies — the routing, merging,
manifest and aggregation logic is inherited, so the two topologies cannot
drift apart.  Overridden are the scatter seam — **frames out, then replies
in, on the caller's thread**: every shard's request is in flight before the
first reply is read, so a scatter is one blocking round with no pool hop, and
this facade owns no thread pool — and the seams that reach *into* a shard's
memory: the REFERENTS merge reads the referent map each worker ships with
its page, the query gather admits degraded reads, and builder support
(``data_object`` / ``resolve_ontology_term``) is served from a client-side
catalog of what was registered through this facade (objects are replicated
to every worker, but native payloads never cross the wire).

Two worker modes:

* ``"process"`` — each shard is an independent OS process spawned via
  ``repro shard-worker`` (true GIL isolation, crash isolation, SIGKILL
  testing).  Requires a durable *root*.
* ``"thread"``  — each shard is an in-process ``ShardWorkerServer`` on a
  real TCP socket (full wire/retry/timeout semantics without process spawn
  cost; used by the oracle-equivalence and fault-matrix tests).

Robustness contract:

* a :class:`~repro.net.supervisor.HeartbeatMonitor` probes every worker;
  after ``miss_threshold`` consecutive misses the shard is marked dead and
  (``auto_restart=True``) its process is respawned — WAL recovery brings
  back every acknowledged write, and the client re-points to the new port.
* reads against a topology with a dead shard fail fast with
  :class:`~repro.errors.ShardUnavailableError`, or — ``degraded_reads=True``
  — return partial results tagged ``degraded=True`` with the missing shard
  list.  Writes are never degraded.
* write admission is bounded per shard; an overloaded worker answers
  :class:`~repro.errors.BackpressureError` with a retry-after hint.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.core.manager import Graphitti
from repro.errors import (
    GraphittiError,
    ServiceError,
    ShardTimeoutError,
    ShardUnavailableError,
)
from repro.net.client import RetryPolicy, ShardClient
from repro.net.server import ShardWorkerServer
from repro.net.supervisor import HeartbeatMonitor, WorkerHandle
from repro.query.ast import Query
from repro.query.result import QueryResult
from repro.service.ops import OPS, READ
from repro.service.service import GraphittiService, ServiceConfig
from repro.shard.router import shard_dir_name
from repro.shard.service import (
    ShardedGraphittiService,
    open_shard,
    resolve_topology,
    shard_manager,
)


class NetworkShardedGraphittiService(ShardedGraphittiService):
    """Scatter-gather facade over process-per-shard workers on TCP."""

    def __init__(
        self,
        clients: list[ShardClient],
        root: str | Path | None = None,
        catalog: Graphitti | None = None,
        handles: list[WorkerHandle] | None = None,
        servers: list[ShardWorkerServer] | None = None,
        worker_services: list[GraphittiService] | None = None,
        degraded_reads: bool = False,
        heartbeat_interval_s: float = 0.5,
        miss_threshold: int = 3,
        auto_restart: bool = True,
        start_monitor: bool = True,
    ):
        super().__init__(services=clients, root=root)
        # Scatters run on the caller's thread (see _scatter): no pool to keep.
        self._pool.shutdown(wait=False)
        del self._pool
        self._catalog = catalog if catalog is not None else Graphitti("graphitti-catalog")
        self._handles = handles
        self._servers = servers
        self._worker_services = worker_services
        self.degraded_reads = bool(degraded_reads)
        self.heartbeat_interval_s = float(heartbeat_interval_s)
        self.miss_threshold = int(miss_threshold)
        self.auto_restart = bool(auto_restart)
        self._restart_lock = threading.Lock()
        for client in clients:
            client.obs = self.obs
        self.monitor = HeartbeatMonitor(
            clients,
            interval_s=self.heartbeat_interval_s,
            miss_threshold=self.miss_threshold,
            on_dead=self._on_shard_dead,
            obs=self.obs,
        )
        if start_monitor:
            self.monitor.start()

    # -- construction ----------------------------------------------------------

    @classmethod
    def open(
        cls,
        root: str | Path | None,
        shards: int | None = None,
        config: ServiceConfig | None = None,
        name: str = "graphitti",
        worker_mode: str = "process",
        host: str = "127.0.0.1",
        port_base: int | None = None,
        max_inflight: int = 64,
        heartbeat_interval_s: float = 0.5,
        miss_threshold: int = 3,
        degraded_reads: bool = False,
        auto_restart: bool = True,
        start_monitor: bool = True,
        op_timeout_s: float = 30.0,
        retry: RetryPolicy | None = None,
        spawn_timeout_s: float = 60.0,
        worker_env: dict[int, dict[str, str]] | None = None,
    ) -> "NetworkShardedGraphittiService":
        """Open (or recover) a network sharded deployment.

        With a durable *root* the topology resolves exactly like the
        threaded facade (manifest wins, shard directories count, a fresh
        root defaults to 4); ``worker_mode="thread"`` additionally accepts
        ``root=None`` for a purely in-memory deployment.
        """
        if worker_mode not in ("process", "thread"):
            raise ServiceError(f"unknown worker mode {worker_mode!r}")
        if root is None:
            if worker_mode != "thread":
                raise ServiceError("process workers need a durable root directory")
            count = shards if shards is not None else 4
            if count < 1:
                raise ServiceError("a sharded service needs at least one shard")
            manifest = None
        else:
            root = Path(root)
            count, manifest = resolve_topology(root, shards)

        config = config or ServiceConfig()
        handles: list[WorkerHandle] | None = None
        servers: list[ShardWorkerServer] | None = None
        worker_services: list[GraphittiService] | None = None
        recovery: list[dict[str, Any] | None] = []
        addresses: list[tuple[str, int]] = []

        if worker_mode == "process":
            handles = []
            for index in range(count):
                handles.append(
                    WorkerHandle(
                        Path(root) / shard_dir_name(index),
                        index,
                        config=config,
                        host=host,
                        port=(port_base + index) if port_base else 0,
                        max_inflight=max_inflight,
                        spawn_timeout_s=spawn_timeout_s,
                        env=(worker_env or {}).get(index),
                    )
                )
            # Launch every process before waiting on any announce file, so
            # worker startup (interpreter + recovery) overlaps across shards.
            for handle in handles:
                handle.launch()
            for handle in handles:
                announce = handle.await_announce()
                addresses.append((announce["host"], announce["port"]))
                recovery.append(announce.get("recovery"))
        else:
            servers = []
            worker_services = []
            for index in range(count):
                if root is not None:
                    service = open_shard(root / shard_dir_name(index), index, config, name)
                else:
                    service = GraphittiService(manager=shard_manager(name, index), config=config)
                server = ShardWorkerServer(
                    service,
                    index,
                    host=host,
                    port=(port_base + index) if port_base else 0,
                    max_inflight=max_inflight,
                )
                addresses.append(server.start())
                worker_services.append(service)
                servers.append(server)
                recovery.append(service.recovery_info)

        clients = [
            ShardClient(
                index,
                address[0],
                address[1],
                config=config,
                op_timeout_s=op_timeout_s,
                retry=retry,
            )
            for index, address in enumerate(addresses)
        ]
        instance = cls(
            clients,
            root=root,
            catalog=Graphitti(f"{name}-catalog"),
            handles=handles,
            servers=servers,
            worker_services=worker_services,
            degraded_reads=degraded_reads,
            heartbeat_interval_s=heartbeat_interval_s,
            miss_threshold=miss_threshold,
            auto_restart=auto_restart,
            start_monitor=start_monitor,
        )
        instance._adopt_topology(recovery, manifest)
        return instance

    # -- supervision -----------------------------------------------------------

    def _on_shard_dead(self, index: int) -> None:
        if self.auto_restart:
            try:
                self.restart_shard(index)
            except GraphittiError:  # pragma: no cover - restart race
                pass

    def restart_shard(self, index: int) -> None:
        """Respawn a dead worker and re-point its client.

        Process mode SIGKILLs any straggler and re-runs WAL recovery in the
        fresh process; thread mode re-serves the same (still live) service on
        a new listener.  Counted as ``net.worker_restarts``.
        """
        with self._restart_lock:
            client = self._shards[index]
            if self._handles is not None:
                announce = self._handles[index].restart()
                client.update_address(announce["host"], announce["port"])
            elif self._servers is not None:
                self._servers[index].stop()
                server = ShardWorkerServer(
                    self._servers[index].service,
                    index,
                    host=client.host,
                    port=0,
                    max_inflight=self._servers[index].max_inflight,
                )
                host, port = server.start()
                self._servers[index] = server
                client.update_address(host, port)
            else:  # pragma: no cover - constructed without workers
                raise ServiceError(f"no worker to restart for shard {index}")
            client.mark_alive()
            self.monitor.misses[index] = 0
            self.obs.count("net.worker_restarts")

    def kill_shard(self, index: int) -> None:
        """SIGKILL shard *index*'s worker (crash-testing hook)."""
        if self._handles is not None:
            self._handles[index].kill()
        elif self._servers is not None:
            self._servers[index].stop()

    def network_status(self) -> dict[str, Any]:
        """Topology + liveness: one row per worker, plus detector config."""
        workers = []
        for index, client in enumerate(self._shards):
            row: dict[str, Any] = {
                "shard": index,
                "host": client.host,
                "port": client.port,
                "dead": client.dead,
                "heartbeat_misses": self.monitor.misses[index],
            }
            if self._handles is not None:
                row["pid"] = self._handles[index].pid
                row["alive"] = self._handles[index].alive()
            workers.append(row)
        return {
            "mode": "process" if self._handles is not None else "thread",
            "shards": len(self._shards),
            "degraded_reads": self.degraded_reads,
            "heartbeat": {
                "interval_s": self.heartbeat_interval_s,
                "miss_threshold": self.miss_threshold,
                "auto_restart": self.auto_restart,
            },
            "workers": workers,
        }

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Stop the monitor, land the manifest, stop workers, close the sockets."""
        if self._closed:
            return
        self.monitor.stop()
        self._write_manifest()  # an unreachable worker's WAL mark lands as 0
        for client in self._shards:
            try:
                client.shutdown()
            except GraphittiError:  # pragma: no cover - already gone
                pass
        if self._handles is not None:
            for handle in self._handles:
                handle.terminate()
        if self._servers is not None:
            for server in self._servers:
                server.stop()
        if self._worker_services is not None:
            for service in self._worker_services:
                service.close()
        for client in self._shards:
            client.close_pool()
        self._closed = True

    # -- overridden seams ------------------------------------------------------

    def _scatter(
        self,
        verb: str,
        calls: Sequence[tuple[int, tuple, dict[str, Any]]],
        tolerate: tuple[type[GraphittiError], ...] = (),
        inline: bool = False,
        meanwhile: Callable[[], None] | None = None,
    ) -> list[Any]:
        """Frames out, then replies in, on the calling thread.

        Each row's call sends its frame and then, before awaiting its reply,
        starts the next row's — so every request is in flight (one pooled
        connection per shard) before the first reply is read, the workers
        run in parallel and the caller blocks for one round, whatever the
        fan-out.  *meanwhile* runs at that point: caller-side work that
        overlaps the workers'.  Arguments are encoded before any frame
        leaves, and every reply is collected — no socket is pooled with one
        unread — before what *meanwhile* raised, or else the first failed row
        not of a *tolerate* class, raises.
        """
        op = OPS[verb]
        write = op.kind != READ
        decode = op.codec.decode
        wires = [op.wire_args(*args, **kwargs) for _, args, kwargs in calls]
        outcomes: list[Any] = [None] * (len(calls) + 1)  # one per row, then *meanwhile*'s

        def send_from(row: int) -> None:
            try:
                if row < len(calls):
                    value = self._shards[calls[row][0]].call(
                        verb, wires[row], write=write, meanwhile=lambda: send_from(row + 1)
                    )
                    outcomes[row] = decode(value) if decode is not None else value
                elif meanwhile is not None:
                    meanwhile()
            except GraphittiError as exc:
                outcomes[row] = exc

        send_from(0)
        interrupted = outcomes.pop()
        if interrupted is not None:
            raise interrupted
        for outcome in outcomes:
            if isinstance(outcome, GraphittiError) and not isinstance(outcome, tolerate):
                raise outcome
        return outcomes

    def _annotation_referents(self, index: int, annotation_id: str, result: QueryResult):
        shipped = getattr(result, "_net_referents_by_annotation", None) or {}
        return shipped.get(annotation_id, ())

    # -- builder support (client-side catalog) ---------------------------------

    def register(self, obj, raw: bytes | None = None, **metadata: Any):
        """Register locally (native object, so builders can mark it) and
        broadcast the catalogue record to every worker."""
        self._catalog.register(obj, raw=raw, **metadata)
        self._scatter("register", self._all(obj, raw=raw, **metadata))
        return obj

    def register_ontology(self, ontology, cache: bool = True):
        ops = self._catalog.register_ontology(ontology, cache=cache)
        self._scatter("register_ontology", self._all(ontology, cache=cache))
        return ops

    def data_object(self, object_id: str):
        try:
            return self._catalog.data_object(object_id)
        except GraphittiError:
            # Reopened root: the native object never existed client-side.
            # Workers hold the catalogue entry (same contract as recovery).
            return self._shards[0].data_object(object_id)

    def resolve_ontology_term(self, text: str) -> str:
        if self._catalog.ontologies():
            return self._catalog.resolve_ontology_term(text)
        return self._shards[0].resolve_ontology_term(text)

    # -- read path (degraded-aware gather) -------------------------------------

    def _shape_and_pages(self, text_or_query: str | Query):
        """Collect shard pages, admitting unreachable shards per ``degraded_reads``.

        The shape is parsed with every worker's frame already out, so the
        facade's parse overlaps theirs; malformed text still fails here, with
        the parser's error.  Strict reads (or every shard missing) raise a
        typed error naming the missing shards; a degraded read returns
        ``None`` in their place and the merge tags the page.
        """
        shape: list[Any] = []

        def parse() -> None:
            with self.obs.span("parse"):
                shape.append(self._query_shape(text_or_query))

        with self.obs.span("scatter"):
            pages = self._scatter(
                "query",
                self._all(text_or_query),
                tolerate=(ShardUnavailableError, ShardTimeoutError),
                meanwhile=parse,
            )
        causes = {
            index: page for index, page in enumerate(pages) if isinstance(page, GraphittiError)
        }
        if causes:
            missing = list(causes)
            if not self.degraded_reads or len(missing) == len(self._shards):
                if all(isinstance(exc, ShardTimeoutError) for exc in causes.values()):
                    # Pure deadline misses keep their type — the same signal
                    # the threaded scatter deadline raises.
                    raise ShardTimeoutError(
                        f"shard(s) {missing} missed the query deadline"
                    ) from causes[missing[0]]
                raise ShardUnavailableError(
                    f"shard(s) {missing} unavailable for query "
                    f"(degraded reads {'exhausted' if self.degraded_reads else 'disabled'})",
                    shards=tuple(missing),
                )
            self.obs.count("query.degraded")
            for index in missing:
                pages[index] = None
        return shape[0], pages

    # -- aggregation extras ----------------------------------------------------

    def statistics(self) -> dict[str, Any]:
        stats = super().statistics()
        stats["network"] = self.network_status()
        return stats

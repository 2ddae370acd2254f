"""Per-shard worker server.

A :class:`ShardWorkerServer` owns one per-shard
:class:`~repro.service.service.GraphittiService` and serves it over the
framed wire protocol: one thread per connection, one request in flight per
connection, dispatch through the op table (:mod:`repro.service.ops`).
Robustness machinery lives here rather than in the client because the server
is the authority:

* **idempotency** — every mutation carries an ``idem`` key; the server keeps
  an LRU of key → response and replays the recorded ack (tagged
  ``replayed``) instead of applying twice.  This is what makes client-side
  retry of a commit safe across torn frames, timeouts and black holes.
* **admission control** — mutations pass a bounded in-flight window; when
  the window is full the server answers ``BackpressureError`` with a
  ``retry_after`` hint instead of queueing unboundedly.
* **attribution** — each request runs under an ``rpc.serve`` span (shard and
  op attributes); service-level spans opened during dispatch nest under it
  via the thread-local span stack, so a slow query in a worker's slow-op log
  is attributable to the exact RPC that caused it.

:func:`run_worker` is the process entrypoint used by ``repro shard-worker``:
it opens (recovers) the shard's service, binds the listener, writes an
announce file the supervisor discovers the port from, and serves until told
to shut down.  The ``REPRO_NET_KILL_AFTER_APPLY`` environment variable arms
the crash window the fault matrix needs: die *after* the Nth WAL append but
*before* acknowledging the client.
"""

from __future__ import annotations

import functools
import json
import os
import socket
import threading
import weakref
from collections import OrderedDict
from pathlib import Path
from typing import Any, Callable

from repro.core.persistence import encode_register
from repro.errors import BackpressureError, GraphittiError, ServiceError
from repro.net.codec import encode_query_result
from repro.net.wire import WireError, read_frame, send_frame
from repro.service import ops
from repro.service.service import GraphittiService, ServiceConfig
from repro.shard.service import open_shard
from repro.xmlstore.document import XmlDocument

#: Name of the per-shard announce file a worker writes after binding.
ANNOUNCE_FILE = "net.json"


class ShardWorkerServer:
    """Serve one shard's :class:`GraphittiService` over the wire protocol."""

    def __init__(
        self,
        service: GraphittiService,
        shard_index: int,
        host: str = "127.0.0.1",
        port: int = 0,
        max_inflight: int = 64,
        idempotency_capacity: int = 4096,
        retry_after_s: float = 0.05,
    ):
        self.service = service
        self.shard_index = int(shard_index)
        self.host = host
        self.port = int(port)
        self.max_inflight = int(max_inflight)
        self.retry_after_s = float(retry_after_s)
        self._idempotency_capacity = int(idempotency_capacity)
        self._idempotent: OrderedDict[str, dict[str, Any]] = OrderedDict()
        self._idempotent_lock = threading.Lock()
        self._admission_lock = threading.Lock()
        self._inflight = 0
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._stopped = threading.Event()
        self._connections: set[socket.socket] = set()
        self._connections_lock = threading.Lock()
        #: Stored content document -> its CONTENTS-page wire text, shared by
        #: the connection threads through ``get`` and assignment only (see
        #: :mod:`repro.net.codec`).  Weak keys: an entry dies with the
        #: document version it encodes.
        self._documents: weakref.WeakKeyDictionary[XmlDocument, str] = weakref.WeakKeyDictionary()
        #: Handlers with server-side logic the table cannot express; every
        #: other op is decoded, run and encoded by its table row.
        self._handlers: dict[str, Callable[[dict[str, Any]], Any]] = {
            "ping": self._serve_ping,
            "status": self._serve_status,
            "query": self._serve_query,
            "data_object": self._serve_data_object,
            "slow_ops": lambda args: [
                {"shard": self.shard_index, **entry} for entry in self.service.slow_ops()
            ],
            "shutdown": lambda args: {"stopping": True},
        }

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> tuple[str, int]:
        """Bind the listener and serve on a background accept thread.

        Returns the bound ``(host, port)`` — with ``port=0`` the OS picks an
        ephemeral port, which is how restarted workers avoid bind races.
        """
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(128)
        self.port = listener.getsockname()[1]
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name=f"shard-worker-{self.shard_index}", daemon=True
        )
        self._accept_thread.start()
        return self.host, self.port

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the server is asked to stop (worker-process main loop)."""
        return self._stopped.wait(timeout)

    def stop(self) -> None:
        """Stop accepting, close every connection, and release the port."""
        self._stopped.set()
        listener, self._listener = self._listener, None
        if listener is not None:
            try:
                # close() alone does not wake an accept() blocked on the
                # socket; shutting it down does, so the join below is prompt.
                listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # a listener the platform refuses to shut down still closes
            listener.close()
        with self._connections_lock:
            connections = list(self._connections)
            self._connections.clear()
        for sock in connections:
            try:
                sock.close()
            except OSError:  # pragma: no cover - close race
                pass
        if self._accept_thread is not None and self._accept_thread is not threading.current_thread():
            self._accept_thread.join(timeout=2.0)

    # -- connection handling ---------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._stopped.is_set():
            try:
                sock, _addr = self._listener.accept()
            except OSError:
                return  # listener closed by stop()
            # Replies larger than one segment must not wait out Nagle + delayed ACK.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._connections_lock:
                self._connections.add(sock)
            thread = threading.Thread(
                target=self._serve_connection,
                args=(sock,),
                name=f"shard-worker-{self.shard_index}-conn",
                daemon=True,
            )
            thread.start()

    def _serve_connection(self, sock: socket.socket) -> None:
        obs = self.service.obs
        try:
            while not self._stopped.is_set():
                try:
                    message = read_frame(sock)
                except socket.timeout:  # pragma: no cover - no read timeout set
                    break
                except WireError:
                    # Torn frame / garbage: the request is unknowable, so the
                    # only safe move is to drop the connection.  The client's
                    # idempotency key makes its retry safe.
                    obs.count("net.torn_frames")
                    break
                if message is None:
                    break
                response = self._dispatch(message)
                stopping = bool(response.pop("_stop_server", False))
                try:
                    send_frame(sock, response)
                except (WireError, socket.timeout):
                    break
                if stopping:
                    self.stop()
                    break
        finally:
            with self._connections_lock:
                self._connections.discard(sock)
            try:
                sock.close()
            except OSError:  # pragma: no cover - close race
                pass

    # -- dispatch --------------------------------------------------------------

    def _dispatch(self, message: dict[str, Any]) -> dict[str, Any]:
        op = message.get("op")
        args = message.get("args") or {}
        request_id = message.get("id")
        idem = message.get("idem")
        obs = self.service.obs
        obs.count("rpc.requests")
        with obs.span("rpc.serve") as span:
            span.set("shard", self.shard_index)
            span.set("op", op)
            response = self._execute(op, args, idem)
            span.set("ok", response.get("ok", False))
        if op == "shutdown" and response.get("ok"):
            response["_stop_server"] = True
        if obs.enabled:
            obs.observe(f"rpc.serve.{op}", span.duration)
            if obs.is_slow(span):
                # An rpc-level slow entry carries the shard id and the full
                # rpc.serve span (service-level spans are its children), so a
                # fleet-wide slow op is attributable end to end.
                obs.record_slow(f"rpc.{op}", span, shard=self.shard_index)
        response["id"] = request_id
        return response

    def _execute(self, op: str, args: dict[str, Any], idem: str | None) -> dict[str, Any]:
        row = ops.OPS.get(op)
        handler = self._handlers.get(op)
        if handler is None:
            if row is None:
                return _error_response(ServiceError(f"unknown rpc op {op!r}"))
            handler = functools.partial(row.serve, self.service)
        # Reads answer directly; writes are idempotency-keyed and admitted.
        if row is None or row.kind == ops.READ:
            return self._answer(op, handler, args)
        # Mutations: replay a recorded ack for a duplicate idempotency key...
        if idem is not None:
            with self._idempotent_lock:
                cached = self._idempotent.get(idem)
                if cached is not None:
                    self._idempotent.move_to_end(idem)
                    replay = dict(cached)
                    replay["replayed"] = True
                    self.service.obs.count("rpc.idempotent_replays")
                    return replay
        # ... and pass the bounded admission window (never queue unboundedly).
        with self._admission_lock:
            if self._inflight >= self.max_inflight:
                self.service.obs.count("rpc.backpressure")
                return _error_response(
                    BackpressureError(
                        f"shard {self.shard_index} write window full "
                        f"({self.max_inflight} in flight)",
                        retry_after=self.retry_after_s,
                    )
                )
            self._inflight += 1
            self._set_inflight_gauge()
        try:
            response = self._answer(op, handler, args)
        finally:
            with self._admission_lock:
                self._inflight -= 1
                self._set_inflight_gauge()
        if idem is not None:
            with self._idempotent_lock:
                self._idempotent[idem] = dict(response)
                while len(self._idempotent) > self._idempotency_capacity:
                    self._idempotent.popitem(last=False)
        return response

    def _answer(
        self, op: str, handler: Callable[[dict[str, Any]], Any], args: dict[str, Any]
    ) -> dict[str, Any]:
        """Run *handler*; a refusal answers instead of killing the connection thread.

        Typed errors (validation failure, unknown id, ...) and malformed args
        are deterministic outcomes, so a write's refusal is recorded under its
        idempotency key and a retry replays it.
        """
        try:
            return {"ok": True, "value": handler(args)}
        except GraphittiError as exc:
            return _error_response(exc)
        except (KeyError, TypeError, ValueError) as exc:
            return _error_response(ServiceError(f"malformed args for rpc op {op!r}: {exc!r}"))

    def _set_inflight_gauge(self) -> None:
        if self.service.obs.enabled:
            self.service.obs.registry.gauge("net.inflight").set(self._inflight)

    # -- handlers with server-side logic ----------------------------------------

    def _serve_ping(self, args: dict[str, Any]) -> dict[str, Any]:
        # Deliberately lock-free (GIL-atomic reads): a heartbeat answers even
        # while a long write holds the service lock — it reports process and
        # event-loop liveness, not lock availability.
        return {
            "shard": self.shard_index,
            "pid": os.getpid(),
            "last_wal_seq": self.service.last_wal_seq,
            "annotations": self.service.manager.annotation_count,
            "inflight": self._inflight,
        }

    def _serve_status(self, args: dict[str, Any]) -> dict[str, Any]:
        status = self._serve_ping(args)
        status["recovery"] = self.service.recovery_info
        return status

    def _serve_query(self, args: dict[str, Any]) -> dict[str, Any]:
        # The page carries its shape: the facade merges from the pages alone.
        return encode_query_result(self.service.query(args["gql"]), self._documents, shape=True)

    def _serve_data_object(self, args: dict[str, Any]) -> dict[str, Any]:
        # The catalogue entry carries the metadata row the manager stored
        # (the object's own metadata plus the register-call keywords).
        obj = self.service.data_object(args["object_id"])
        metadata = self.service.manager.object_metadata(args["object_id"])["metadata"]
        return encode_register(obj, metadata)


def _error_response(exc: GraphittiError) -> dict[str, Any]:
    """Map a typed error onto the wire so the client re-raises the same class."""
    response: dict[str, Any] = {
        "ok": False,
        "error": type(exc).__name__,
        "message": str(exc),
    }
    if isinstance(exc, BackpressureError):
        response["retry_after"] = exc.retry_after
    return response


def _install_kill_after_apply(service: GraphittiService) -> None:
    """Arm the SIGKILL-between-apply-and-ack fault window from the environment.

    With ``REPRO_NET_KILL_AFTER_APPLY=n`` the worker dies abruptly
    (``os._exit``) right after its *n*-th WAL append in this process — the
    record is durable, the client was never acknowledged.  Recovery must
    surface the write; the client's retry must not double-apply it.
    """
    raw = os.environ.get("REPRO_NET_KILL_AFTER_APPLY")
    if not raw:
        return
    remaining = int(raw)
    state = {"appends": 0}

    def hook(op: str, seq: int) -> None:
        state["appends"] += 1
        if state["appends"] >= remaining:
            os._exit(42)

    service.after_append_hook = hook


def run_worker(
    root: str | Path,
    shard_index: int,
    host: str = "127.0.0.1",
    port: int = 0,
    announce_path: str | Path | None = None,
    config: ServiceConfig | None = None,
    max_inflight: int = 64,
    service_name: str = "graphitti",
) -> None:
    """Worker-process main: open (recover) the shard, bind, announce, serve.

    Blocks until a ``shutdown`` RPC or SIGTERM.  The announce file is written
    atomically *after* the listener is bound and recovery finished, so a
    supervisor that sees it knows the worker is ready for traffic.
    """
    import signal

    root = Path(root)
    service = open_shard(root, shard_index, config, service_name)
    _install_kill_after_apply(service)

    server = ShardWorkerServer(service, shard_index, host=host, port=port, max_inflight=max_inflight)
    bound_host, bound_port = server.start()

    def _on_sigterm(signum: int, frame: Any) -> None:  # pragma: no cover - signal path
        server._stopped.set()

    try:
        signal.signal(signal.SIGTERM, _on_sigterm)
    except ValueError:  # pragma: no cover - non-main thread (tests)
        pass

    if announce_path is None:
        announce_path = root / ANNOUNCE_FILE
    announce_path = Path(announce_path)
    payload = {
        "shard": shard_index,
        "host": bound_host,
        "port": bound_port,
        "pid": os.getpid(),
        "recovery": service.recovery_info,
    }
    tmp = announce_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(payload, indent=2), encoding="utf-8")
    os.replace(tmp, announce_path)

    try:
        while not server.wait(timeout=0.5):
            pass
    finally:
        server.stop()
        service.close()

"""Connection-pooled RPC client for one shard worker.

A :class:`ShardClient` is the network twin of a local
:class:`~repro.service.service.GraphittiService`: it exposes the same method
surface (so :class:`~repro.shard.service.ShardedGraphittiService`'s routing
and merging code drives it unchanged) and translates each call into one
framed request/response exchange.  An exchange has a **send half** (check a
connection out, put the request frame on it) and a **receive half** (read
the one reply, match its ``id``, pool the connection again);
:meth:`ShardClient.call` runs its ``meanwhile`` callback between the two,
which is how the network facade gets every shard's frame in flight before it
blocks on any reply.  A connection still carries one frame at a time: a
scatter's frames ride one connection per shard.

Reliability mechanics, all client-side:

* **per-op timeouts** — every exchange runs under a socket deadline; a slow
  or black-holed worker costs one timeout, not a hung scatter.
* **capped exponential backoff with jitter** — transient failures (refused
  connection, torn frame, timeout, backpressure) retry with
  ``base * 2^attempt`` sleep, capped, jittered to avoid thundering herds;
  a ``BackpressureError`` uses the server's ``retry_after`` hint instead.
* **idempotency keys** — a mutation generates one key *before* the first
  attempt and reuses it on every retry, so the worker can dedup a commit
  whose ack was lost to a torn frame or timeout.  Retrying reads needs no
  key.
* **typed failure** — a dead shard surfaces as
  :class:`~repro.errors.ShardUnavailableError` (fast, without dialing, once
  the supervisor marks the shard dead), a deadline as
  :class:`~repro.errors.ShardTimeoutError`; remote service errors re-raise
  as the same :class:`~repro.errors.GraphittiError` subclass the worker
  raised, found by name in the error hierarchy.

The optional ``fault_hook`` is the deterministic fault-injection seam used
by :meth:`repro.replica.faults.FaultSchedule.install_network`; see
:data:`NET_FAULT_POINTS` there for what each point simulates.
"""

from __future__ import annotations

import itertools
import random
import socket
import threading
import time
import uuid
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import (
    BackpressureError,
    GraphittiError,
    ServiceError,
    ShardTimeoutError,
    ShardUnavailableError,
    WireError,
)
from repro.net.wire import encode_frame, read_frame, send_frame
from repro.obs import Observability
from repro.service import ops
from repro.service.service import ServiceConfig


def _close(sock: socket.socket) -> None:
    try:
        sock.close()
    except OSError:  # pragma: no cover - close race
        pass


@dataclass(frozen=True)
class RetryPolicy:
    """Retry budget and backoff shape for transient RPC failures."""

    #: Total attempts per logical call (first try + retries).
    attempts: int = 4
    #: First backoff sleep; doubles each retry.
    base_backoff_s: float = 0.02
    #: Backoff cap — retries never sleep longer than this.
    max_backoff_s: float = 0.5
    #: Jitter fraction: each sleep is scaled by ``1 ± jitter * U(0, 1)``.
    jitter: float = 0.5

    def backoff(self, attempt: int, rng: random.Random) -> float:
        """Sleep before retry *attempt* (1-based), capped and jittered."""
        base = min(self.base_backoff_s * (2 ** (attempt - 1)), self.max_backoff_s)
        return base * (1.0 + self.jitter * (2.0 * rng.random() - 1.0))


def _error_classes() -> dict[str, type[GraphittiError]]:
    classes: dict[str, type[GraphittiError]] = {}
    stack: list[type[GraphittiError]] = [GraphittiError]
    while stack:
        cls = stack.pop()
        classes[cls.__name__] = cls
        stack.extend(cls.__subclasses__())
    return classes


def _rpc_stub(op: ops.Op) -> Callable:
    """One framed exchange: the row's args codec out, its result codec back."""
    write = op.kind != ops.READ
    decode = op.codec.decode

    def stub(self, *args: Any, **kwargs: Any) -> Any:
        value = self.call(op.name, op.wire_args(*args, **kwargs), write=write)
        return decode(value) if decode is not None else value

    return stub


@ops.surface(_rpc_stub)
class ShardClient:
    """RPC proxy for one shard worker, shaped like a ``GraphittiService``."""

    def __init__(
        self,
        shard_index: int,
        host: str,
        port: int,
        config: ServiceConfig | None = None,
        connect_timeout_s: float = 2.0,
        op_timeout_s: float = 30.0,
        retry: RetryPolicy | None = None,
        pool_size: int = 4,
        obs: Observability | None = None,
        rng: random.Random | None = None,
    ):
        self.shard_index = int(shard_index)
        self.host = host
        self.port = int(port)
        self.config = config or ServiceConfig()
        self.connect_timeout_s = float(connect_timeout_s)
        self.op_timeout_s = float(op_timeout_s)
        self.retry = retry or RetryPolicy()
        self.obs = obs if obs is not None else Observability(None)
        #: Deterministic fault seam: ``hook(point, target) -> bool`` — see
        #: :meth:`repro.replica.faults.FaultSchedule.install_network`.
        self.fault_hook: Callable[[str, str | None], bool] | None = None
        self.name = f"shard-{self.shard_index}"
        self._rng = rng or random.Random()
        self._pool: list[socket.socket] = []
        self._pool_size = int(pool_size)
        self._pool_lock = threading.Lock()
        self._dead = False
        self._request_ids = itertools.count(1)  # next() is atomic under the GIL
        self._errors = _error_classes()

    # -- supervisor hooks ------------------------------------------------------

    @property
    def dead(self) -> bool:
        """True while the supervisor considers this shard down."""
        return self._dead

    def mark_dead(self) -> None:
        """Fail calls fast (no dial, no timeout) until the shard returns."""
        self._dead = True
        self.close_pool()

    def mark_alive(self) -> None:
        self._dead = False

    def update_address(self, host: str, port: int) -> None:
        """Point the client at a restarted worker's new listener."""
        self.host = host
        self.port = int(port)
        self.close_pool()

    def close_pool(self) -> None:
        with self._pool_lock:
            pool, self._pool = self._pool, []
        for sock in pool:
            _close(sock)

    def close(self) -> None:
        """Release pooled connections (the worker process outlives us)."""
        self.close_pool()

    # -- transport -------------------------------------------------------------

    def _fires(self, point: str) -> bool:
        return self.fault_hook is not None and bool(self.fault_hook(point, self.name))

    def _dial(self, timeout: float) -> socket.socket:
        if self._fires("net.refused"):
            raise ConnectionRefusedError(  # repro: allow-error-taxonomy - injected fault
                f"injected: connection to {self.name} refused"
            )
        sock = socket.create_connection((self.host, self.port), timeout=self.connect_timeout_s)
        sock.settimeout(timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def _checkout(self, timeout: float) -> socket.socket:
        with self._pool_lock:
            if self._pool:
                sock = self._pool.pop()
                sock.settimeout(timeout)
                return sock
        return self._dial(timeout)

    def _checkin(self, sock: socket.socket) -> None:
        with self._pool_lock:
            if not self._dead and len(self._pool) < self._pool_size:
                self._pool.append(sock)
                return
        _close(sock)

    def _send_once(
        self, op: str, args: dict[str, Any], idem: str | None, timeout: float
    ) -> tuple[socket.socket, int] | Exception:
        """Send half of one exchange: the checked-out socket now carrying the
        request frame, and the request id.  A transport failure discards the
        connection and is *returned* — the receive half raises it."""
        sock = None
        try:
            sock = self._checkout(timeout)
            request: dict[str, Any] = {"id": next(self._request_ids), "op": op, "args": args}
            if idem is not None:
                request["idem"] = idem
            if self._fires("net.tear"):
                # Deliver a torn frame: the worker cannot parse it and drops
                # the connection; the request was never executed.
                frame = encode_frame(request)
                sock.sendall(frame[: max(1, len(frame) // 2)])
                raise WireError(f"injected: frame to {self.name} torn mid-send")
            if self._fires("net.blackhole"):
                # The request vanishes in the network: never delivered, and
                # the client burns its full read deadline waiting.
                raise socket.timeout(  # repro: allow-error-taxonomy - injected fault
                    f"injected: request to {self.name} black-holed"
                )
            send_frame(sock, request)
            if self._fires("net.slow"):
                # Slow-loris response: the worker EXECUTED the op but the
                # reply does not arrive within the deadline.  The retry (same
                # idempotency key) must dedup, not double-apply.
                raise socket.timeout(  # repro: allow-error-taxonomy - injected fault
                    f"injected: response from {self.name} too slow"
                )
        except (WireError, OSError) as exc:
            if sock is not None:
                _close(sock)
            return exc
        return sock, request["id"]

    def _receive_once(self, flight: tuple[socket.socket, int] | Exception) -> dict[str, Any]:
        """Receive half: the one reply to the request :meth:`_send_once` put
        in *flight*.  The socket is pooled again only when that reply was read
        whole and carries the request's id; any raise discards it."""
        if isinstance(flight, Exception):
            raise flight
        sock, request_id = flight
        try:
            response = read_frame(sock)
            if response is None:
                raise WireError(f"{self.name} closed the connection before responding")
            if response.get("id") != request_id:
                raise WireError(
                    f"{self.name} answered request {response.get('id')!r}, not {request_id}"
                )
        except (WireError, OSError):
            _close(sock)
            raise
        self._checkin(sock)
        return response

    def _exchange_once(
        self, op: str, args: dict[str, Any], idem: str | None, timeout: float
    ) -> dict[str, Any]:
        """One request/response exchange: the send half, then the receive half."""
        return self._receive_once(self._send_once(op, args, idem, timeout))

    # -- call core -------------------------------------------------------------

    def call(
        self,
        op: str,
        args: dict[str, Any] | None = None,
        write: bool = False,
        timeout: float | None = None,
        meanwhile: Callable[[], None] | None = None,
    ) -> Any:
        """Issue one logical RPC with retries; returns the decoded value.

        *meanwhile* runs once between the first attempt's send half and its
        receive half — with this request's frame out and the worker serving
        it.  It runs even when the send half failed or the shard is marked
        dead: that failure surfaces afterwards, through the retry loop.
        """
        args = args or {}
        idem = uuid.uuid4().hex if write else None
        deadline = timeout if timeout is not None else self.op_timeout_s
        with self.obs.span("rpc.request") as span:
            span.set("shard", self.shard_index)
            span.set("op", op)
            if self._dead:
                flight: Any = ShardUnavailableError(
                    f"{self.name} is marked dead (restarting or unreachable)",
                    shards=(self.shard_index,),
                )
            else:
                flight = self._send_once(op, args, idem, deadline)
            if meanwhile is not None:
                try:
                    meanwhile()
                except BaseException:
                    if isinstance(flight, tuple):
                        _close(flight[0])  # its reply will never be read
                    raise
            value = self._call_with_retries(op, args, idem, deadline, span, flight)
        if self.obs.enabled:
            # Per-op latency distribution; the generic span.rpc.request
            # histogram is recorded by the tracer on span exit.
            self.obs.observe(f"rpc.client.{op}", span.duration)
        return value

    def _call_with_retries(
        self, op: str, args: dict[str, Any], idem: str | None, deadline: float, span: Any, flight: Any
    ) -> Any:
        """The retry loop; *flight* is the first attempt's send half.  A
        dead-marked shard's error is no transport error: the first receive
        raises it straight through — fail fast, no dial, no retry."""
        obs = self.obs
        last_exc: Exception | None = None
        timed_out = False
        for attempt in range(1, self.retry.attempts + 1):
            if attempt > 1:
                obs.count("rpc.retries")
                if isinstance(last_exc, BackpressureError):
                    time.sleep(min(last_exc.retry_after, self.retry.max_backoff_s))
                else:
                    time.sleep(self.retry.backoff(attempt - 1, self._rng))
                flight = self._send_once(op, args, idem, deadline)
            try:
                response = self._receive_once(flight)
            except socket.timeout as exc:
                last_exc, timed_out = exc, True
                obs.count("rpc.timeouts")
                continue
            except (WireError, ConnectionError, OSError) as exc:
                last_exc, timed_out = exc, False
                obs.count("rpc.transport_errors")
                continue
            if response.get("ok"):
                span.set("attempts", attempt)
                return response.get("value")
            error = self._decode_error(response)
            if isinstance(error, BackpressureError):
                last_exc, timed_out = error, False
                obs.count("rpc.backpressure")
                continue
            raise error
        span.set("failed", True)
        if timed_out:
            raise ShardTimeoutError(
                f"{self.name} op {op!r} timed out after {self.retry.attempts} "
                f"attempt(s) with a {deadline}s deadline"
            ) from last_exc
        if isinstance(last_exc, BackpressureError):
            raise last_exc
        raise ShardUnavailableError(
            f"{self.name} unreachable after {self.retry.attempts} attempt(s): {last_exc}",
            shards=(self.shard_index,),
        ) from last_exc

    def _decode_error(self, response: dict[str, Any]) -> GraphittiError:
        name = response.get("error", "ServiceError")
        message = response.get("message", f"{self.name} rpc failed")
        cls = self._errors.get(name, ServiceError)
        if cls is BackpressureError:
            return BackpressureError(message, retry_after=float(response.get("retry_after", 0.05)))
        if cls is ShardUnavailableError:
            return ShardUnavailableError(message, shards=(self.shard_index,))
        try:
            return cls(message)
        except TypeError:  # pragma: no cover - exotic constructor
            return ServiceError(message)

    # -- liveness --------------------------------------------------------------

    def ping(self, timeout: float = 1.0) -> dict[str, Any]:
        """One heartbeat probe — single attempt, no retry, ignores dead-mark."""
        response = self._exchange_once("ping", {}, None, timeout)
        if not response.get("ok"):
            raise self._decode_error(response)
        return response["value"]

    def status(self) -> dict[str, Any]:
        return self.call("status")

    # -- GraphittiService surface ----------------------------------------------
    #
    # Every table verb is generated by ``_rpc_stub``; only what the table does
    # not describe (status-derived properties, shutdown) is written out.

    @property
    def last_wal_seq(self) -> int:
        return int(self.call("status")["last_wal_seq"])

    @property
    def recovery_info(self) -> dict[str, Any] | None:
        return self.call("status").get("recovery")

    def shutdown(self) -> None:
        """Ask the worker to checkpoint (per its config) and exit cleanly."""
        try:
            self.call("shutdown", timeout=10.0)
        except (ShardUnavailableError, ShardTimeoutError):
            pass  # already gone — the supervisor escalates to SIGKILL
        self.close_pool()

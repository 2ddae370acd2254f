"""Client/server RPC behaviour over real sockets (in-process worker).

Covers the reliability contracts the network tier promises: typed remote
errors arrive as the same :class:`GraphittiError` subclass the worker
raised; a retried mutation with a duplicate idempotency key applies once
and replays the recorded ack; a full write window answers backpressure with
a Retry-After hint instead of queueing; dead-marked shards fail fast; and
per-op deadlines surface as :class:`ShardTimeoutError`.
"""

import socket

import pytest

from repro.core.manager import Graphitti
from repro.datatypes.sequence import DnaSequence
from repro.errors import (
    AnnotationError,
    BackpressureError,
    QuerySyntaxError,
    ServiceError,
    ShardTimeoutError,
    ShardUnavailableError,
)
from repro.net import RetryPolicy, ShardClient, ShardWorkerServer
from repro.service import GraphittiService

FAST_RETRY = RetryPolicy(attempts=3, base_backoff_s=0.001, max_backoff_s=0.005)


@pytest.fixture
def rig():
    service = GraphittiService(manager=Graphitti("rpc-test", id_namespace="s00"))
    server = ShardWorkerServer(service, shard_index=0, max_inflight=4, retry_after_s=0.001)
    host, port = server.start()
    client = ShardClient(0, host, port, retry=FAST_RETRY, op_timeout_s=5.0)
    seq = DnaSequence("chr1", "ACGT" * 100, domain="rpc:chr1")
    service.register(seq)
    yield service, server, client
    client.close()
    server.stop()
    service.close()


def _builder(service, title="probe", keywords=("alpha",)):
    return service.new_annotation(title=title, keywords=list(keywords)).mark_sequence(
        "chr1", 5, 40
    )


def test_round_trip_commit_and_reads(rig):
    service, _server, client = rig
    annotation = client.commit(_builder(service).build())
    assert client.holds(annotation.annotation_id)
    fetched = client.annotation(annotation.annotation_id)
    assert fetched.content.dublin_core.title == "probe"
    assert client.annotation_count == service.annotation_count == 1
    result = client.query('SELECT contents WHERE { CONTENT CONTAINS "alpha" }')
    assert result.annotation_ids == [annotation.annotation_id]
    assert client.last_wal_seq == service.last_wal_seq


def test_remote_errors_keep_their_type(rig):
    _service, _server, client = rig
    with pytest.raises(AnnotationError):
        client.annotation("no-such-annotation")
    with pytest.raises(QuerySyntaxError):
        client.query("NOT A QUERY")


def test_duplicate_idempotency_key_applies_once_with_same_ack(rig):
    # The regression the idempotency layer exists for: a retried commit
    # (ack lost to a torn frame / timeout) must not double-apply.
    service, _server, client = rig
    annotation = _builder(service).build()
    from repro.core.persistence import encode_annotation

    args = {"annotation": encode_annotation(annotation)}
    first = client._exchange_once("commit", args, idem="idem-xyz", timeout=5.0)
    second = client._exchange_once("commit", args, idem="idem-xyz", timeout=5.0)
    assert first["ok"] and second["ok"]
    assert second.get("replayed") is True
    assert "replayed" not in first
    assert second["value"] == first["value"]  # byte-for-byte the same ack
    assert service.annotation_count == 1  # applied exactly once
    assert service.obs.registry.counter("rpc.idempotent_replays").value == 1


def test_error_acks_replay_too(rig):
    # A deterministic failure (deleting a missing annotation) must replay the
    # SAME error on retry, not re-execute into a possibly different state.
    service, _server, client = rig
    args = {"annotation_id": "never-existed"}
    first = client._exchange_once("delete_annotation", args, idem="idem-err", timeout=5.0)
    second = client._exchange_once("delete_annotation", args, idem="idem-err", timeout=5.0)
    assert not first["ok"] and not second["ok"]
    assert second.get("replayed") is True
    assert second["error"] == first["error"]


def test_full_write_window_answers_backpressure(rig):
    service, server, client = rig
    server.max_inflight = 0  # every mutation finds the window full
    before = service.annotation_count
    with pytest.raises(BackpressureError) as excinfo:
        client.commit(_builder(service).build())
    assert excinfo.value.retry_after > 0
    assert service.annotation_count == before  # shed before execution
    assert service.obs.registry.counter("rpc.backpressure").value >= FAST_RETRY.attempts
    server.max_inflight = 4
    client.commit(_builder(service).build())  # drains once the window opens


def test_reads_bypass_the_write_window(rig):
    service, server, client = rig
    server.max_inflight = 0
    assert client.annotation_count == 0
    assert client.query('SELECT contents WHERE { CONTENT CONTAINS "alpha" }').count == 0


def test_dead_mark_fails_fast_without_dialing(rig):
    _service, _server, client = rig
    client.mark_dead()
    with pytest.raises(ShardUnavailableError) as excinfo:
        client.annotation_count
    assert excinfo.value.shards == (0,)
    client.mark_alive()
    assert client.annotation_count == 0


def _pool_a_socket_with_an_unread_reply(client):
    """What an abandoned pipelined scatter would leave behind, if it pooled."""
    import select

    from repro.net import send_frame

    sock = client._checkout(5.0)
    send_frame(sock, {"id": 999_999, "op": "ping", "args": {}})
    assert select.select([sock], [], [], 5.0)[0]  # the stale reply has landed
    client._checkin(sock)
    return sock


def test_reply_id_mismatch_is_a_wire_error_and_discards_the_socket():
    import threading

    from repro.errors import WireError
    from repro.net import read_frame, send_frame

    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)

    def answer_someone_elses_request():
        connection, _ = listener.accept()
        with connection:
            request = read_frame(connection)
            send_frame(connection, {"id": request["id"] + 1, "ok": True, "value": {}})

    server = threading.Thread(target=answer_someone_elses_request)
    server.start()
    try:
        client = ShardClient(0, "127.0.0.1", listener.getsockname()[1], op_timeout_s=5.0)
        with pytest.raises(WireError, match="answered request 2, not 1"):
            client._exchange_once("ping", {}, None, 5.0)
        assert not client._pool  # closed, not pooled
    finally:
        server.join(timeout=5.0)
        listener.close()
    assert not server.is_alive()


def test_a_pooled_socket_with_an_unread_reply_never_answers_the_next_caller(rig):
    # The stale reply is caught by its id (or, when the worker's next reply
    # lands in the same recv, as two frames on a one-frame connection): one
    # transport error, retried on a fresh socket.
    _service, _server, client = rig
    stale = _pool_a_socket_with_an_unread_reply(client)
    assert client.call("status")["shard"] == 0
    assert client.obs.registry.counter("rpc.transport_errors").value == 1
    assert stale.fileno() == -1 and stale not in client._pool


def test_meanwhile_runs_between_the_send_half_and_the_receive_half(rig):
    _service, _server, client = rig
    seen = []

    def nested():
        # The outer frame is out on a checked-out socket (not in the pool);
        # a call made now rides a second connection and is answered first.
        seen.append(("pooled-during-outer", len(client._pool)))
        seen.append(("inner", client.call("status")["shard"]))

    assert client.call("status", meanwhile=nested)["shard"] == 0
    assert seen == [("pooled-during-outer", 0), ("inner", 0)]
    assert len(client._pool) == 2  # both replies read: both sockets pooled

    def boom():
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        client.call("status", meanwhile=boom)
    assert len(client._pool) == 1  # the abandoned request's socket was closed, not pooled
    client.mark_dead()
    ran = []
    with pytest.raises(ShardUnavailableError):
        client.call("status", meanwhile=lambda: ran.append(True))
    assert ran == [True]  # a scatter's chain is never cut by a dead shard


def test_unreachable_worker_exhausts_retries(rig):
    _service, server, client = rig
    server.stop()
    with pytest.raises(ShardUnavailableError):
        client.call("status")
    assert client.obs.registry.counter("rpc.transport_errors").value >= FAST_RETRY.attempts


def test_deadline_maps_to_shard_timeout():
    # A listener that accepts but never responds burns the op deadline.
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(8)
    try:
        client = ShardClient(
            0,
            "127.0.0.1",
            listener.getsockname()[1],
            retry=RetryPolicy(attempts=2, base_backoff_s=0.001, max_backoff_s=0.002),
            op_timeout_s=0.05,
        )
        with pytest.raises(ShardTimeoutError):
            client.call("status")
        client.close()
    finally:
        listener.close()


def test_ping_reports_liveness(rig):
    service, _server, client = rig
    payload = client.ping()
    assert payload["pid"] > 0
    assert payload["last_wal_seq"] == service.last_wal_seq
    client.commit(_builder(service).build())
    assert client.ping()["last_wal_seq"] == service.last_wal_seq


def test_shutdown_rpc_stops_the_server(rig):
    _service, server, client = rig
    client.shutdown()
    assert server.wait(timeout=5.0)


def test_stop_on_an_idle_server_returns_promptly(rig):
    # close() alone does not wake a blocked accept(); stop() used to wait out
    # its whole 2 s join on every call.
    import time

    _service, server, client = rig
    client.ping()
    time.sleep(0.1)  # the accept loop is parked in accept() again
    began = time.monotonic()
    server.stop()
    assert time.monotonic() - began < 0.5
    assert not server._accept_thread.is_alive()


def test_malformed_args_answer_with_a_typed_error(rig):
    # A bad request must come back as an error response on the SAME
    # connection — not kill the worker's connection thread mid-exchange.
    _service, _server, client = rig
    with pytest.raises(ServiceError, match="malformed args"):
        client.call("query", {"text": "SELECT contents WHERE { KEYWORD IS alpha }"})
    with pytest.raises(ServiceError, match="malformed args"):
        client.call("commit", {"wrong_key": {}}, write=True)
    # The connection (and the worker) are still healthy afterwards.
    assert client.ping()["pid"] > 0

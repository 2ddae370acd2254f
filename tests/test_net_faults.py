"""Deterministic network fault matrix: zero acked-write loss, oracle reads.

Every transport fault the RPC layer claims to survive is scheduled here via
:class:`FaultSchedule` (occurrence-counted, no wall clock, no randomness at
evaluation time) and asserted against the two contracts that matter:

* an acknowledged write is never lost, and a retried mutation never
  double-applies — even when the fault fires *after* the worker executed
  the op (``net.slow``, the lost-ack case);
* reads remain oracle-equivalent once the fault clears, and a fault burst
  longer than the retry budget surfaces as a *typed* error, not a hang or
  a silent wrong answer.
"""

import select
import sys
import threading

import pytest

from repro.core.manager import Graphitti
from repro.errors import ServiceError, ShardTimeoutError, ShardUnavailableError
from repro.net import NetworkShardedGraphittiService, RetryPolicy
from repro.net.codec import encode_query_result
from repro.replica.faults import NET_FAULT_POINTS, FaultRule, FaultSchedule
from repro.service import GraphittiService
from repro.shard import ShardedGraphittiService

from test_shard_service import PROBES, assert_bit_identical, populate

FAST_RETRY = RetryPolicy(attempts=4, base_backoff_s=0.001, max_backoff_s=0.01)


def open_net(**kwargs):
    kwargs.setdefault("shards", 2)
    kwargs.setdefault("worker_mode", "thread")
    kwargs.setdefault("start_monitor", False)
    kwargs.setdefault("retry", FAST_RETRY)
    kwargs.setdefault("op_timeout_s", 10.0)
    return NetworkShardedGraphittiService.open(None, **kwargs)


def install(service, *rules):
    schedule = FaultSchedule(rules=list(rules))
    schedule.install_network(service)
    return schedule


def test_net_points_are_schedulable():
    for point in NET_FAULT_POINTS:
        FaultRule(point=point, at=1)
    with pytest.raises(ServiceError):
        FaultRule(point="net.nonsense", at=1)


def test_torn_frame_never_executes_and_retry_applies_once():
    service = open_net()
    populate(service, count=8)
    before = service.annotation_count
    schedule = install(service, FaultRule(point="net.tear", at=1, target="shard-0"))
    result = service.query(PROBES[0])  # first shard-0 exchange is torn
    assert schedule.fired and schedule.fired[0]["point"] == "net.tear"
    assert result.count == service.query(PROBES[0]).count
    assert service.annotation_count == before
    # The worker counted the torn frame and dropped the connection.
    torn = sum(
        worker.obs.registry.counter("net.torn_frames").value
        for worker in service._worker_services
    )
    assert torn == 1
    service.close()


def test_refused_connection_retries_through():
    service = open_net()
    populate(service, count=8)
    service._shards[0].close_pool()  # force the next exchange to dial
    schedule = install(service, FaultRule(point="net.refused", at=1, target="shard-0"))
    assert service.query(PROBES[0]).count > 0
    assert schedule.fired[0]["point"] == "net.refused"
    assert service.obs.registry.counter("rpc.retries").value >= 1
    service.close()


def test_blackholed_request_times_out_then_recovers():
    service = open_net()
    populate(service, count=8)
    schedule = install(service, FaultRule(point="net.blackhole", at=1, target="shard-1"))
    assert service.query(PROBES[0]).count > 0
    assert schedule.fired[0]["point"] == "net.blackhole"
    assert service.obs.registry.counter("rpc.timeouts").value >= 1
    service.close()


def test_slow_loris_lost_ack_dedups_via_idempotency_key():
    # net.slow = the worker EXECUTED the mutation but the ack missed the
    # deadline.  The retried exchange carries the same idempotency key; the
    # worker must replay the recorded ack, not apply twice.
    service = open_net()
    populate(service, count=8)
    before = service.annotation_count
    install(service, FaultRule(point="net.slow", at=1, target="shard-0"))
    annotation = (
        service.new_annotation(title="lost-ack", keywords=["common"])
        .mark_sequence("obj0", 1, 20)
        .commit()
    )
    assert service.annotation_count == before + 1  # exactly one apply
    assert service.annotation(annotation.annotation_id).annotation_id == annotation.annotation_id
    replays = sum(
        worker.obs.registry.counter("rpc.idempotent_replays").value
        for worker in service._worker_services
    )
    assert replays == 1
    service.close()


def test_fault_burst_beyond_retry_budget_is_a_typed_error():
    service = open_net()
    populate(service, count=8)
    # Burst as long as the whole retry budget: the call must fail typed.
    install(
        service,
        FaultRule(point="net.tear", at=1, target="shard-0", count=FAST_RETRY.attempts),
    )
    with pytest.raises(ShardUnavailableError) as excinfo:
        service.query(PROBES[0])
    assert 0 in excinfo.value.shards
    # The burst is spent; the next query sails through unchanged.
    assert service.query(PROBES[0]).count > 0
    service.close()


def test_timeout_burst_maps_to_shard_timeout():
    service = open_net()
    populate(service, count=8)
    install(
        service,
        FaultRule(point="net.blackhole", at=1, target="shard-1", count=FAST_RETRY.attempts),
    )
    with pytest.raises(ShardTimeoutError):
        service.query(PROBES[0])
    service.close()


@pytest.mark.parametrize("seed", [11, 23, 47])
def test_seeded_fault_matrix_zero_acked_loss_and_oracle_reads(seed):
    # A seed-derived schedule sweeps tears, black holes, refused dials and
    # slow-loris acks across both shards.  Burst lengths (<= 3) stay inside
    # the retry budget (4), so every op must ultimately ack — and every
    # acked write must survive with reads bit-identical to an unfaulted
    # oracle.
    service = open_net()
    oracle = GraphittiService(manager=Graphitti(f"fault-oracle-{seed}"))
    schedule = FaultSchedule.random(
        seed,
        points=NET_FAULT_POINTS,
        targets=(None, "shard-0", "shard-1"),
        rules=4,
        horizon=30,
    )
    schedule.install_network(service)
    populate(service)
    populate(oracle)
    for index in (3, 10):
        service.delete_annotation(f"x-{index:03d}")
        oracle.delete_annotation(f"x-{index:03d}")
    assert_bit_identical(service, oracle)
    assert service.annotation_count == oracle.annotation_count
    assert not service.check_integrity().errors
    service.close()
    oracle.close()


# -- mid-scatter faults: the facade sends every shard's frame, then collects ------

TYPED = {
    "net.refused": ShardUnavailableError,
    "net.tear": ShardUnavailableError,
    "net.blackhole": ShardTimeoutError,
    "net.slow": ShardTimeoutError,
}


def page_key(page):
    """Everything a merged page carries except its per-step timings."""
    encoded = encode_query_result(page)
    del encoded["step_details"]
    return encoded


def assert_sockets_idle(service):
    """Every pooled socket is idle — no unread reply, no EOF — and the pool is capped."""
    for client in service.shards:
        assert len(client._pool) <= client._pool_size
        if client._pool:
            readable, _, _ = select.select(client._pool, [], [], 0)
            assert not readable, f"{client.name} pooled a socket with buffered bytes"


def arm(service, point, shard, count=1, at=1):
    service.shards[shard].close_pool()  # net.refused fires at dial
    return install(service, FaultRule(point=point, at=at, target=f"shard-{shard}", count=count))


@pytest.mark.parametrize("degraded", [False, True])
@pytest.mark.parametrize("shard", [0, 1])
@pytest.mark.parametrize("point", NET_FAULT_POINTS)
def test_mid_scatter_fault_matrix(point, shard, degraded):
    # shard 1 faults with shard 0's request already in flight; shard 0 faults
    # and shard 1's frame still goes out before anything is collected.
    service = open_net(degraded_reads=degraded)
    populate(service, count=12)
    expected = page_key(service.query(PROBES[0]))
    # One fault, inside the retry budget: the same page, after one retry.
    schedule = arm(service, point, shard)
    assert page_key(service.query(PROBES[0])) == expected
    assert [fired["point"] for fired in schedule.fired] == [point]
    assert service.obs.registry.counter("rpc.retries").value == 1
    assert_sockets_idle(service)
    # A burst as long as the retry budget: typed error, or the degraded page.
    arm(service, point, shard, count=FAST_RETRY.attempts)
    if degraded:
        page = service.query(PROBES[0])
        assert page.degraded and page.missing_shards == [shard]
        assert page.annotation_ids == service.shards[1 - shard].query(PROBES[0]).annotation_ids
        assert service.obs.registry.counter("query.degraded").value == 1
    else:
        with pytest.raises(TYPED[point]) as excinfo:
            service.query(PROBES[0])
        if TYPED[point] is ShardUnavailableError:
            assert excinfo.value.shards == (shard,)
    assert_sockets_idle(service)
    # A scatter with no degraded form abandons the other shard's reply: that
    # socket is closed, never pooled with the reply still on it.
    arm(service, point, shard, count=FAST_RETRY.attempts)
    with pytest.raises(TYPED[point]):
        service.search_by_keyword("common")
    assert_sockets_idle(service)
    assert page_key(service.query(PROBES[0])) == expected  # burst spent
    assert_sockets_idle(service)
    service.close()


@pytest.mark.parametrize("shard", [0, 1])
def test_mid_scatter_slow_write_dedups_by_idempotency_key(shard):
    service = open_net()
    object_ids = populate(service, count=8)
    before = service.annotation_count
    batch = [
        service.new_annotation(f"bulk-{index}", keywords=["bulk"]).mark_sequence(object_id, 1, 20)
        for index, object_id in enumerate(object_ids)
    ]
    # bulk_commit probes each explicit id on every shard first (one holds
    # frame per annotation per shard); the next frame is the shard's group.
    schedule = arm(service, "net.slow", shard, at=len(batch) + 1)
    committed = service.bulk_commit(batch)
    assert len(schedule.fired) == 1
    assert [annotation.annotation_id for annotation in committed] == [
        f"bulk-{index}" for index in range(len(batch))
    ]
    assert service.annotation_count == before + len(batch)  # each group applied once
    replays = [
        worker.obs.registry.counter("rpc.idempotent_replays").value
        for worker in service._worker_services
    ]
    assert replays[shard] == 1 and replays[1 - shard] == 0
    assert_sockets_idle(service)
    service.close()


def test_eight_caller_threads_get_the_threaded_facades_pages():
    net = open_net()
    threaded = ShardedGraphittiService(shards=2, name="graphitti")
    populate(net)
    populate(threaded)
    expected = {text: page_key(threaded.query(text)) for text in PROBES}
    mismatches = []

    def caller():
        for _ in range(5):
            for text in PROBES:
                if page_key(net.query(text)) != expected[text]:
                    mismatches.append(text)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=caller) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not mismatches
    assert_sockets_idle(net)
    net.close()
    threaded.close()


def test_network_facade_scatters_without_a_thread_pool():
    service = open_net()
    populate(service, count=8)
    service.query(PROBES[0])
    service.statistics()
    assert not hasattr(service, "_pool")
    assert not [t.name for t in threading.enumerate() if t.name.startswith("netshard")]
    service.close()


def test_malformed_text_fails_at_the_facade_with_every_reply_collected():
    # The facade parses while its workers run, so malformed text does reach
    # them — but it fails here with the parser's error, as on the threaded
    # facade, and no socket is pooled with a worker's refusal unread.
    from repro.errors import QuerySyntaxError

    service = open_net()
    populate(service, count=8)
    with pytest.raises(QuerySyntaxError):
        service.query("SELECT contents WHERE { CONTENT CONTAINS }")
    assert_sockets_idle(service)
    assert page_key(service.query(PROBES[0]))["annotation_ids"]
    service.close()

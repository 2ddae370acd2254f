"""Lock-order detector across the real concurrency surfaces: zero cycles.

Every tier (single service, sharded facade, replicated deployment, net
facade in thread mode) runs a real mixed workload with the ReadWriteLock
class instrumented; the per-thread acquisition graph must come back acyclic.
The plain mutex that rides next to the service lock (the query-result
cache's) is wrapped into the same graph for the single-service run, so a
service-lock-vs-cache-mutex inversion cannot hide.

The proof that the detector FIRES on an inversion lives in
test_analysis_runtime.py (inverted-order fixture); these tests are the
other half: the shipped tree is clean.
"""

from repro.analysis.runtime import monitoring, name_lock, wrap_lock
from repro.core.manager import Graphitti
from repro.service import GraphittiService, ServiceConfig
from repro.shard import ShardedGraphittiService
from repro.workloads.service_scenario import run_service_workload, seed_service_objects


def test_service_mixed_workload_is_acyclic(tmp_path):
    with monitoring() as monitor:
        service = GraphittiService.open(
            tmp_path / "svc", config=ServiceConfig(checkpoint_on_close=False)
        )
        name_lock(service._lock, "service-lock")
        service._cache._mutex = wrap_lock("cache-mutex", service._cache._mutex, monitor)
        object_ids = seed_service_objects(service)
        summary = run_service_workload(
            service,
            object_ids,
            readers=3,
            writers=2,
            queries_per_reader=40,
            commits_per_writer=12,
            delete_every=5,
            integrity_every=20,
            seed=20260808,
            run_tag="lockorder",
        )
        assert summary["errors"] == []
        service.statistics()
        service.metrics()
        service.checkpoint()
        service.close()
    assert monitor.acquisitions > 100
    monitor.assert_no_cycles()


def test_sharded_facade_is_acyclic():
    with monitoring() as monitor:
        sharded = ShardedGraphittiService(shards=3, name="lockorder-shard")
        for index, shard in enumerate(sharded.shards):
            name_lock(shard._lock, f"shard-{index}-lock")
        from test_shard_service import populate

        populate(sharded)
        sharded.query('SELECT contents WHERE { CONTENT CONTAINS "alpha" }')
        sharded.statistics()
        for index in (3, 10, 25):
            sharded.delete_annotation(f"x-{index:03d}")
        sharded.close()
    assert monitor.acquisitions > 0
    monitor.assert_no_cycles()


def test_replicated_deployment_is_acyclic(tmp_path):
    from repro.replica import ReplicatedGraphittiService, ReplicationConfig
    from repro.datatypes import DnaSequence

    with monitoring() as monitor:
        deployment = ReplicatedGraphittiService.open(
            tmp_path / "repl",
            replicas=2,
            config=ServiceConfig(durability="never"),
            replication=ReplicationConfig(
                auto_ship=False, auto_failover=False, read_deadline=0.05
            ),
        )
        deployment.register(
            DnaSequence("lockorder_seq", "ACGT" * 100, domain="lockorder:chr1")
        )
        for index in range(4):
            (
                deployment.new_annotation(
                    f"lockorder-{index}",
                    keywords=["lockorder"],
                    body=f"lock order probe {index}",
                )
                .mark_sequence("lockorder_seq", index * 10, index * 10 + 8)
                .commit()
            )
        deployment.ship()
        deployment.query('SELECT contents WHERE { CONTENT CONTAINS "lock order" }')
        deployment.close()
    assert monitor.acquisitions > 0
    monitor.assert_no_cycles()


def test_net_facade_thread_mode_is_acyclic():
    from repro.net import NetworkShardedGraphittiService, RetryPolicy

    with monitoring() as monitor:
        net = NetworkShardedGraphittiService.open(
            None,
            shards=2,
            worker_mode="thread",
            start_monitor=False,
            retry=RetryPolicy(attempts=2, base_backoff_s=0.001, max_backoff_s=0.005),
            op_timeout_s=10.0,
        )
        from test_shard_service import populate

        populate(net, count=12)
        net.query('SELECT contents WHERE { CONTENT CONTAINS "alpha" }')
        net.close()
    assert monitor.acquisitions > 0
    monitor.assert_no_cycles()

"""Deterministic fault injection: the crash/failover matrix.

Each test arms a :class:`FaultSchedule` against a live replicated
deployment and drives writes until the fault fires, then verifies the two
invariants the tentpole promises: **zero acknowledged-write loss** (every
commit that returned survives failover, on the new primary and on every
surviving follower) and **no double-apply** (sequence numbers never rewind;
re-ships and replays are idempotent).  The seeded sweep at the end replays
a pseudo-random schedule matrix — same seed, same faults, every run.
"""

import pytest

from repro.datatypes import DnaSequence
from repro.errors import ServiceError
from repro.replica import (
    FaultRule,
    FaultSchedule,
    InjectedFsyncError,
    PrimaryCrashed,
    ReplicatedGraphittiService,
    ReplicationConfig,
)
from repro.service import ServiceConfig

MANUAL = ReplicationConfig(auto_ship=False, auto_failover=False, read_deadline=0.05)

PROBE = 'SELECT contents WHERE { CONTENT CONTAINS "fault" }'


def open_deployment(root, durability="always", replicas=2):
    return ReplicatedGraphittiService.open(
        root,
        replicas=replicas,
        config=ServiceConfig(durability=durability),
        replication=MANUAL,
    )


def register_pool(service, object_id="fault_seq"):
    service.register(DnaSequence(object_id, "ACGT" * 200, domain="fault:chr1"))
    return object_id


def commit_one(service, object_id, serial):
    annotation = (
        service.new_annotation(
            f"fault-{serial}",
            keywords=["fault"],
            body=f"fault matrix annotation {serial}",
        )
        .mark_sequence(object_id, serial * 10, serial * 10 + 8)
        .commit()
    )
    return annotation.annotation_id


def assert_zero_acked_loss(service, acked_ids):
    """Every acknowledged id must be queryable on the serving read path and
    present on every surviving follower — and nothing may exist twice."""
    result = service.query(PROBE, consistency="fresh")
    assert set(acked_ids) <= set(result.annotation_ids)
    assert len(result.annotation_ids) == len(set(result.annotation_ids))
    service.ship()
    for follower in service.followers:
        for annotation_id in acked_ids:
            follower.service.annotation(annotation_id)  # raises if lost


def test_fsync_failure_poisons_primary_then_failover(tmp_path):
    with open_deployment(tmp_path / "rep") as service:
        schedule = FaultSchedule([FaultRule("wal.fsync", at=4)])
        schedule.install(service)
        object_id = register_pool(service)
        acked = []
        # The injected fsync failure surfaces raw (it is an OSError, exactly
        # what a real device hands back) and poisons the WAL behind it.
        with pytest.raises(InjectedFsyncError):
            for serial in range(10):
                acked.append(commit_one(service, object_id, serial))
        assert schedule.fired and schedule.fired[0]["point"] == "wal.fsync"
        # The poisoned WAL refuses further writes: the primary is dead.
        assert not service.primary_alive()
        with pytest.raises(ServiceError):
            commit_one(service, object_id, 11)
        report = service.failover()
        assert report["term"] == 2
        assert_zero_acked_loss(service, acked)


def test_torn_shipment_is_reshipped_whole(tmp_path):
    with open_deployment(tmp_path / "rep", durability="never") as service:
        schedule = FaultSchedule([FaultRule("ship.tear", at=1)])
        schedule.install(service)
        object_id = register_pool(service)
        acked = [commit_one(service, object_id, serial) for serial in range(3)]
        service.ship()  # the first follower's datagram is torn mid-record
        assert any(f["point"] == "ship.tear" for f in schedule.fired)
        frontiers = sorted(f.applied_seq for f in service.followers)
        assert frontiers[0] < service.last_acked_seq  # the torn one lags
        service.ship()  # re-ships the torn record whole
        assert all(f.applied_seq == service.last_acked_seq for f in service.followers)
        assert_zero_acked_loss(service, acked)


def test_stalled_follower_routes_around_then_catches_up(tmp_path):
    with open_deployment(tmp_path / "rep", durability="never") as service:
        stalled = service.followers[0].name
        schedule = FaultSchedule([FaultRule("follower.stall", at=1, target=stalled, count=2)])
        schedule.install(service)
        object_id = register_pool(service)
        acked = [commit_one(service, object_id, serial) for serial in range(3)]
        service.ship()
        by_name = {f.name: f for f in service.followers}
        assert by_name[stalled].applied_seq == 0  # frozen
        healthy = next(f for f in service.followers if f.name != stalled)
        assert healthy.applied_seq == service.last_acked_seq
        # A fresh read routes around the stalled follower, never degrading.
        result = service.query(PROBE, consistency="fresh")
        assert set(acked) <= set(result.annotation_ids)
        assert service.replication_stats()["reads"]["degraded"] == 0
        # Once the stall clears, the pending buffer drains without loss.
        service.ship()
        service.ship()
        assert by_name[stalled].applied_seq == service.last_acked_seq
        assert_zero_acked_loss(service, acked)


def test_kill_after_append_write_is_indeterminate(tmp_path):
    with open_deployment(tmp_path / "rep") as service:
        schedule = FaultSchedule([FaultRule("primary.kill_after_append", at=3)])
        schedule.install(service)
        object_id = register_pool(service)
        acked = []
        indeterminate = None
        for serial in range(5):
            try:
                acked.append(commit_one(service, object_id, serial))
            except PrimaryCrashed:
                indeterminate = f"fault-{serial}"
                break
        assert indeterminate is not None
        assert not service.primary_alive()
        report = service.failover()
        assert report["term"] == 2
        assert_zero_acked_loss(service, acked)
        # The unacknowledged write is allowed to survive (it was durable) but
        # must be all-or-nothing: present and fully wired, or absent.
        result = service.query(PROBE, consistency="fresh")
        survivors = set(result.annotation_ids)
        assert survivors - set(acked) <= {indeterminate}
        assert service.check_integrity().ok


def test_heartbeat_monitor_detects_the_dead_primary(tmp_path):
    with open_deployment(tmp_path / "rep") as service:
        # Occurrence 1 is the pool registration; the first commit acks at 2
        # and the second dies in its ack window at 3.
        schedule = FaultSchedule([FaultRule("primary.kill_after_append", at=3)])
        schedule.install(service)
        object_id = register_pool(service)
        acked = [commit_one(service, object_id, 0)]
        with pytest.raises(PrimaryCrashed):
            commit_one(service, object_id, 1)
        # Drive the lease clock by hand (the monitor thread is off in
        # manual mode): enough missed ticks must trigger the failover.
        ticks = 0
        while not service.tick():
            ticks += 1
            assert ticks <= ReplicatedGraphittiService.LEASE_TICKS + 1
        assert service.term == 2
        assert_zero_acked_loss(service, acked)


def test_seeded_schedule_matrix_never_loses_acked_writes(tmp_path):
    """Sweep pseudo-random fault schedules; the invariants hold for all."""
    for seed in range(6):
        root = tmp_path / f"matrix-{seed}"
        service = open_deployment(root)
        schedule = FaultSchedule.random(
            seed=seed,
            targets=(None, "replica-00", "replica-01"),
            rules=3,
            horizon=8,
        )
        schedule.install(service)
        try:
            object_id = None
            acked = []
            serial = 0
            while serial < 12:
                try:
                    if object_id is None:
                        object_id = register_pool(service, f"fault_seq_t{service.term}")
                    acked.append(commit_one(service, object_id, serial))
                except (PrimaryCrashed, ServiceError, OSError):
                    # Crash in the ack window, a failed fsync (raw OSError,
                    # which also poisons the WAL), or the poisoned WAL
                    # refusing the next write: promote and resume on a
                    # freshly registered object (replayed state is
                    # catalogue-only, so post-failover marks need one).
                    service.failover()
                    object_id = None
                serial += 1
            for _ in range(3):  # drain through any scheduled tears/stalls
                service.ship()
            assert_zero_acked_loss(service, acked)
            assert service.check_integrity().ok
        finally:
            service.close()

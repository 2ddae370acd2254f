"""ReplicatedGraphittiService: shipping, read routing, reseed, failover.

Everything runs in manual-ship mode (``auto_ship=False``) so each test
controls exactly when records move — the background threads are covered by
the benchmarks and the fault matrix.
"""

import pytest

from repro.datatypes import DnaSequence
from repro.errors import ServiceError, WalCorruptionError
from repro.replica import (
    ReplicatedGraphittiService,
    ReplicationConfig,
    StaleTermError,
    read_replication_manifest,
)
from repro.service import GraphittiService, ServiceConfig

MANUAL = ReplicationConfig(auto_ship=False, auto_failover=False, read_deadline=0.05)
CONFIG = ServiceConfig(durability="never")


def open_deployment(root, replicas=2):
    return ReplicatedGraphittiService.open(
        root, replicas=replicas, config=ServiceConfig(durability="never"), replication=MANUAL
    )


def seed(service, count=3, prefix="rep", object_id="rep_seq1"):
    service.register(DnaSequence(object_id, "ACGT" * 200, domain="rep:chr1"))
    for index in range(count):
        (
            service.new_annotation(
                f"{prefix}-{index}",
                keywords=["replica", "test"],
                body=f"replica test annotation {index}",
            )
            .mark_sequence(object_id, index * 30, index * 30 + 20)
            .commit()
        )


PROBE = 'SELECT contents WHERE { CONTENT CONTAINS "replica" }'


def test_ship_moves_acknowledged_history(tmp_path):
    with open_deployment(tmp_path / "rep") as service:
        seed(service)
        assert [f.applied_seq for f in service.followers] == [0, 0]
        service.ship()
        frontier = service.last_acked_seq
        assert frontier > 0
        assert all(f.applied_seq == frontier for f in service.followers)
        for follower in service.followers:
            assert follower.query(PROBE).count == 3


def test_eventual_reads_route_to_followers(tmp_path):
    with open_deployment(tmp_path / "rep") as service:
        seed(service)
        service.ship()
        assert service.query(PROBE).count == 3
        stats = service.replication_stats()
        assert stats["reads"]["replica"] == 1
        assert stats["reads"]["primary"] == 0
        assert service.query(PROBE, consistency="primary").count == 3
        assert service.replication_stats()["reads"]["primary"] == 1


def test_fresh_read_pumps_inline(tmp_path):
    with open_deployment(tmp_path / "rep") as service:
        seed(service)
        # No explicit ship(): the waiting read ships what it needs itself.
        assert service.query(PROBE, consistency="fresh").count == 3
        stats = service.replication_stats()
        assert stats["reads"]["replica"] == 1
        assert stats["reads"]["degraded"] == 0


def test_min_seq_gives_read_your_writes(tmp_path):
    with open_deployment(tmp_path / "rep") as service:
        seed(service)
        acked = service.last_acked_seq
        result = service.query(PROBE, min_seq=acked)
        assert result.count == 3
        assert all(f.applied_seq >= acked for f in service.followers)


def test_affinity_pins_a_query_to_one_follower(tmp_path):
    with open_deployment(tmp_path / "rep") as service:
        seed(service)
        service.ship()
        picks = {service._pick_follower(0, affinity=7).name for _ in range(5)}
        assert len(picks) == 1  # deterministic for a given affinity
        # Without affinity the picker round-robins.
        rotation = {service._pick_follower(0).name for _ in range(4)}
        assert rotation == {f.name for f in service.followers}
        # A lagging preferred follower falls through to a caught-up one.
        lagging = service._pick_follower(0, affinity=0)
        need = lagging.applied_seq + 1
        assert service._pick_follower(need, affinity=0) is None  # nobody has it yet
        seed(service, count=1, prefix="more", object_id="rep_seq2")
        service.ship()
        assert service._pick_follower(need, affinity=0) is not None


def test_checkpoint_drains_then_truncates(tmp_path):
    root = tmp_path / "rep"
    with open_deployment(root) as service:
        seed(service)
        service.checkpoint()
        frontier = service.last_acked_seq
        assert all(f.applied_seq == frontier for f in service.followers)
        # Shipping continues across the truncation without a gap.
        seed(service, count=2, prefix="after", object_id="rep_seq2")
        service.ship()
        assert all(f.applied_seq == service.last_acked_seq for f in service.followers)
        assert all(f.reseeds == 0 for f in service.followers)


def test_checkpointed_away_history_triggers_reseed(tmp_path):
    with open_deployment(tmp_path / "rep") as service:
        seed(service)
        # Checkpoint the primary alone: the records vanish from its WAL
        # before any follower saw them — the hidden-gap case.
        service.primary.checkpoint()
        service.ship()
        frontier = service.last_acked_seq
        assert all(f.applied_seq == frontier for f in service.followers)
        assert all(f.reseeds == 1 for f in service.followers)
        assert service.query(PROBE, consistency="fresh").count == 3


def test_reopen_adopts_manifest_topology(tmp_path):
    root = tmp_path / "rep"
    with open_deployment(root) as service:
        seed(service)
        service.checkpoint()
    reopened = ReplicatedGraphittiService.open(
        root, config=ServiceConfig(durability="never"), replication=MANUAL
    )
    try:
        assert len(reopened.followers) == 2
        assert reopened.query(PROBE, consistency="fresh").count == 3
        seed(reopened, count=1, prefix="again", object_id="rep_seq3")
        reopened.ship()
        assert all(
            f.applied_seq == reopened.last_acked_seq for f in reopened.followers
        )
    finally:
        reopened.close()


def test_conflicting_replica_count_rejected(tmp_path):
    root = tmp_path / "rep"
    open_deployment(root).close()
    with pytest.raises(ServiceError):
        ReplicatedGraphittiService.open(root, replicas=5, replication=MANUAL)


def test_promote_fences_old_primary_and_bumps_term(tmp_path):
    root = tmp_path / "rep"
    with open_deployment(root) as service:
        seed(service)
        old_primary = service.primary
        report = service.promote()
        assert report["term"] == 2
        assert report["promoted_at_seq"] == report["old_primary_seq"]
        assert old_primary.fenced
        with pytest.raises(ServiceError):
            old_primary.delete_annotation("rep-0")
        manifest = read_replication_manifest(root)
        assert manifest["term"] == 2
        assert manifest["primary"] == report["primary"]
        # The promoted follower serves the full acknowledged history, and
        # post-promotion writes on natively registered objects replicate on.
        assert service.query(PROBE, consistency="fresh").count == 3
        seed(service, count=1, prefix="post", object_id="rep_seq9")
        service.ship()
        remaining = service.followers
        assert len(remaining) == 1
        assert remaining[0].applied_seq == service.last_acked_seq


def test_promote_refuses_lagging_target(tmp_path):
    with open_deployment(tmp_path / "rep") as service:
        seed(service)
        service.ship()
        behind = service.followers[0]
        seed(service, count=1, prefix="late", object_id="rep_seq2")
        # The pre-promotion drain catches followers up, so only one that
        # cannot apply (disk stall) can still lag at selection time.
        behind.stall_hook = lambda: True
        with pytest.raises(ServiceError, match="lagging"):
            service.promote(target=behind.name)


def test_zombie_shipment_rejected_by_term_and_seq_guard(tmp_path):
    with open_deployment(tmp_path / "rep") as service:
        seed(service)
        service.ship()
        follower = service.followers[0]
        current_term = follower.term
        with pytest.raises(StaleTermError):
            follower.apply_records(
                [{"seq": follower.applied_seq + 1, "op": "commit", "payload": {}}],
                term=current_term - 1,
            )
        # The append-time seq-fencing guard is the belt to the term check's
        # braces: rewinding records die even if a stale term slipped through.
        with pytest.raises(WalCorruptionError):
            follower.service._store.wal.append_record(
                {"seq": follower.applied_seq, "op": "commit", "payload": {}}
            )


def test_writes_refused_when_primary_dead(tmp_path):
    root = tmp_path / "rep"
    with open_deployment(root) as service:
        seed(service)
        service.checkpoint()
    recovered = ReplicatedGraphittiService.recover(
        root, replication=MANUAL, assume_primary_dead=True
    )
    try:
        with pytest.raises(ServiceError):
            recovered.register(DnaSequence("nope", "ACGT" * 10, domain="rep:chr1"))
        # Reads degrade to the most-caught-up follower rather than failing.
        assert recovered.query(PROBE).count == 3
        recovered.failover()
        assert recovered.primary is not None
        assert recovered.query(PROBE, consistency="fresh").count == 3
    finally:
        recovered.close()


def test_sharded_deployment_with_replicas(tmp_path):
    from repro.shard import ShardedGraphittiService

    root = tmp_path / "shards"
    service = ShardedGraphittiService.open(
        root, shards=2, replicas=1, config=ServiceConfig(durability="never")
    )
    try:
        seed(service, count=4)
        assert service.query(PROBE).count == 4
        stats = service.statistics()
        rows = stats["sharding"]["replication"]
        assert len(rows) == 2
        assert all(row["term"] == 1 for row in rows)
    finally:
        service.close()


def test_a_shipment_advances_the_follower_cache_under_its_write_lock(tmp_path):
    """A follower drops what a shipment reached while it applies it, so the
    first reader after the shipment pays no drop and a page the shipment
    missed still hits."""
    with open_deployment(tmp_path / "rep", replicas=1) as service:
        seed(service)
        service.ship()
        follower = service.followers[0]
        assert follower.query(PROBE).count == 3
        service.new_annotation("fresh-0", keywords=["fresh"]).mark_sequence(
            "rep_seq1", 300, 320
        ).commit()
        cache = follower.service._cache  # noqa: SLF001 - the follower's result cache
        kept = cache.stats()["kept"]
        service.ship()
        assert cache.stats()["kept"] == kept + 1  # tested before any reader came
        hits = cache.stats()["hits"]
        assert follower.query(PROBE).count == 3
        assert cache.stats()["hits"] == hits + 1


def test_a_long_shipment_keeps_the_pages_none_of_its_records_reach(tmp_path):
    """Each shipped record drops only what it reaches, however many records
    one shipment carries (more than 64 here)."""
    with open_deployment(tmp_path / "rep", replicas=1) as service:
        seed(service)
        service.ship()
        follower = service.followers[0]
        assert follower.query(PROBE).count == 3
        for index in range(70):
            service.new_annotation(f"fresh-{index}", keywords=["fresh"]).mark_sequence(
                "rep_seq1", 400 + index, 402 + index
            ).commit()
        before = follower.applied_seq
        service.ship()
        assert follower.applied_seq - before >= 70
        cache = follower.service._cache  # noqa: SLF001 - the follower's result cache
        hits = cache.stats()["hits"]
        assert follower.query(PROBE).count == 3
        assert cache.stats()["hits"] == hits + 1
        assert cache.stats()["invalidations"] == 0

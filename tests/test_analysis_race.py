"""Seeded race-stress probes around the serving layer's hot seams.

Always run (downsized); under ``REPRO_ANALYSIS_RACE=1`` the iteration counts
scale up and the interpreter switch interval drops to 10µs (conftest), so
the barrier-aligned threads genuinely collide inside the seams:

* cache put / hit / invalidation,
* mutation epoch bump vs concurrent reads,
* checkpoint seal+freeze vs concurrent commits,
* follower apply vs follower reads.

Each probe asserts semantic invariants (no stale cache hits across epochs,
integrity holds, applied records all visible) — the failures these would
produce on a seeded race are wrong *values*, not just crashes.
"""

from repro.analysis.runtime import race_rounds, race_stress, run_racing
from repro.datatypes import DnaSequence
from repro.service import GraphittiService, ServiceConfig
from repro.service.cache import QueryResultCache


def test_cache_put_hit_invalidate_race():
    cache = QueryResultCache(capacity=32)
    rounds = race_rounds(default=20, stressed=400)

    with race_stress():
        for epoch in range(rounds):
            def put():
                cache.put("k", {"epoch": epoch})

            def hit():
                value = cache.get("k")
                # A hit never surfaces a value put before the last drop.
                assert value is None or value["epoch"] == epoch

            def invalidate():
                cache.invalidate(None)

            run_racing([put, hit, hit, invalidate])
            cache.invalidate(None)  # the next round's write lands
            assert cache.get("k") is None
    stats = cache.stats()
    assert stats["entries"] <= 32


def _open(tmp_path):
    service = GraphittiService.open(
        tmp_path / "svc",
        config=ServiceConfig(checkpoint_on_close=False, durability="never"),
    )
    service.register(DnaSequence("race_seq", "ACGT" * 200, domain="race:chr1"))
    return service


def test_epoch_bump_vs_reads_race(tmp_path):
    service = _open(tmp_path)
    rounds = race_rounds(default=8, stressed=120)
    probe = 'SELECT contents WHERE { CONTENT CONTAINS "racer" }'
    try:
        with race_stress():
            for index in range(rounds):
                def write():
                    (
                        service.new_annotation(
                            f"race-{index}", keywords=["racer"], body=f"racer {index}"
                        )
                        .mark_sequence("race_seq", (index * 7) % 600, (index * 7) % 600 + 5)
                        .commit()
                    )

                def read():
                    result = service.query(probe)
                    # Every id served must denote a committed annotation.
                    for annotation_id in result.annotation_ids:
                        assert service.manager.has_annotation(annotation_id)

                run_racing([write, read, read])
        assert service.check_integrity().ok
    finally:
        service.close()


def test_checkpoint_freeze_vs_commit_race(tmp_path):
    service = GraphittiService.open(
        tmp_path / "svc", config=ServiceConfig(checkpoint_on_close=False)
    )
    service.register(DnaSequence("ckpt_seq", "ACGT" * 200, domain="ckpt:chr1"))
    rounds = race_rounds(default=4, stressed=40)
    try:
        with race_stress():
            for index in range(rounds):
                def commit(tag):
                    def thunk():
                        (
                            service.new_annotation(
                                f"ckpt-{tag}-{index}", keywords=["ckpt"], body=f"ckpt {index}"
                            )
                            .mark_sequence("ckpt_seq", index * 11, index * 11 + 6)
                            .commit()
                        )
                    return thunk

                def checkpoint():
                    service.checkpoint()

                run_racing([commit("a"), checkpoint, commit("b")])
        # Recover from disk: everything acknowledged must replay.
        service.close()
        recovered = GraphittiService.open(tmp_path / "svc")
        try:
            assert recovered.annotation_count == rounds * 2
            assert recovered.check_integrity().ok
        finally:
            recovered.close()
    except Exception:
        service.close()
        raise


def test_follower_apply_vs_follower_read_race(tmp_path):
    from repro.replica import ReplicatedGraphittiService, ReplicationConfig

    deployment = ReplicatedGraphittiService.open(
        tmp_path / "repl",
        replicas=1,
        config=ServiceConfig(durability="never"),
        replication=ReplicationConfig(
            auto_ship=False, auto_failover=False, read_deadline=0.5
        ),
    )
    rounds = race_rounds(default=6, stressed=80)
    probe = 'SELECT contents WHERE { CONTENT CONTAINS "shipped" }'
    try:
        deployment.register(
            DnaSequence("repl_seq", "ACGT" * 150, domain="repl:chr1")
        )
        with race_stress():
            for index in range(rounds):
                (
                    deployment.new_annotation(
                        f"ship-{index}", keywords=["shipped"], body=f"shipped {index}"
                    )
                    .mark_sequence("repl_seq", (index * 9) % 500, (index * 9) % 500 + 4)
                    .commit()
                )

                def ship():
                    deployment.ship()

                def follower_read():
                    result = deployment.query(probe)
                    for annotation_id in result.annotation_ids:
                        assert annotation_id.startswith("ship-")

                run_racing([ship, follower_read, follower_read])
    finally:
        deployment.close()

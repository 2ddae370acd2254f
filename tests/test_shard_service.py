"""ShardedGraphittiService behaviour: oracle equality, durability, aggregation.

The load-bearing invariant is that a sharded deployment is *observationally
identical* to a single service for annotation-level queries — same
annotation ids, same order, same referent pages — while writes route, caches
invalidate per shard, and every shard recovers independently.
"""

import threading
import time

import pytest

from repro.core.manager import Graphitti
from repro.datatypes.sequence import DnaSequence
from repro.errors import AnnotationError, ServiceError
from repro.service import GraphittiService, ServiceConfig
from repro.shard import (
    ShardedGraphittiService,
    read_manifest,
    shard_for_key,
    shard_from_annotation_id,
)

PROBES = (
    'SELECT contents WHERE { CONTENT CONTAINS "alpha" }',
    "SELECT contents WHERE { INTERVAL OVERLAPS sh:chr1 [100, 2000] }",
    'SELECT referents WHERE { CONTENT CONTAINS "common" INTERVAL OVERLAPS sh:chr1 [0, 3000] }',
    'SELECT contents WHERE { NOT { CONTENT CONTAINS "alpha" } }',
    'SELECT contents WHERE { ANY { CONTENT CONTAINS "alpha" CONTENT CONTAINS "beta" } }',
    'SELECT contents WHERE { CONTENT CONTAINS "common" } LIMIT 7',
)


def populate(service, count: int = 36) -> list[str]:
    object_ids = []
    for index in range(6):
        obj = DnaSequence(
            f"obj{index}", "ACGT" * 300, domain="sh:chr1", offset=index * 1200
        )
        service.register(obj)
        object_ids.append(obj.object_id)
    for index in range(count):
        (
            service.new_annotation(
                f"x-{index:03d}",
                title=f"t{index}",
                keywords=["alpha" if index % 2 else "beta", "common"],
                body=f"body {index}",
            )
            .mark_sequence(object_ids[index % 6], (index * 17) % 900, (index * 17) % 900 + 30)
            .commit()
        )
    return object_ids


@pytest.fixture
def pair():
    sharded = ShardedGraphittiService(shards=4, name="test-sharded")
    oracle = GraphittiService(manager=Graphitti("test-oracle"))
    populate(sharded)
    populate(oracle)
    yield sharded, oracle
    sharded.close()
    oracle.close()


def assert_bit_identical(sharded, oracle):
    for text in PROBES:
        left = sharded.query(text)
        right = oracle.query(text)
        assert left.annotation_ids == right.annotation_ids, text
        left_refs = [referent.referent_id for referent in left.referents]
        right_refs = [referent.referent_id for referent in right.referents]
        assert left_refs == right_refs, text
        assert _fragment_rows(left) == _fragment_rows(right), text
        left_graphs = [subgraph.to_dict() for subgraph in left.subgraphs]
        assert left_graphs == [subgraph.to_dict() for subgraph in right.subgraphs], text


def _fragment_rows(result):
    """Each fragment's ``to_dict()`` beside its annotation id (``None`` kept)."""
    fragments = result.fragments
    assert not fragments or len(fragments) == len(result.annotation_ids)
    return [
        (annotation_id, None if fragment is None else fragment.to_dict())
        for annotation_id, fragment in zip(result.annotation_ids, fragments)
    ]


def test_queries_bit_identical_to_unsharded(pair):
    assert_bit_identical(*pair)


def test_queries_bit_identical_after_deletes(pair):
    sharded, oracle = pair
    for index in (3, 10, 25):
        sharded.delete_annotation(f"x-{index:03d}")
        oracle.delete_annotation(f"x-{index:03d}")
    assert_bit_identical(sharded, oracle)


def test_annotations_route_by_object_and_colocate():
    sharded = ShardedGraphittiService(shards=4, name="route-test")
    populate(sharded)
    for shard_index, shard in enumerate(sharded.shards):
        for annotation in shard.manager.annotations():
            object_id = annotation.referents[0].ref.object_id
            assert shard_for_key(object_id, 4) == shard_index
    sharded.close()


def test_generated_ids_encode_their_shard():
    sharded = ShardedGraphittiService(shards=4, name="id-test")
    populate(sharded, count=4)
    builder = sharded.new_annotation(title="auto", keywords=["auto"])
    builder.mark_sequence("obj3", 5, 5)
    committed = sharded.commit(builder)
    assert shard_from_annotation_id(committed.annotation_id) == shard_for_key("obj3", 4)
    # the encoded id resolves without a scatter and round-trips lookups
    assert sharded.annotation(committed.annotation_id).annotation_id == committed.annotation_id
    sharded.delete_annotation(committed.annotation_id)
    with pytest.raises(AnnotationError):
        sharded.annotation(committed.annotation_id)
    sharded.close()


def test_duplicate_explicit_id_rejected(pair):
    sharded, _ = pair
    with pytest.raises(AnnotationError):
        sharded.new_annotation("x-001", keywords=["dup"])


def _cross_shard_pair(sharded):
    """Two same-id builders whose referents route to DIFFERENT shards."""
    objects = sorted(range(6), key=lambda index: shard_for_key(f"obj{index}", 4))
    first, second = objects[0], objects[-1]
    assert shard_for_key(f"obj{first}", 4) != shard_for_key(f"obj{second}", 4)
    left = sharded.new_annotation(keywords=["dup"])
    left._annotation.annotation_id = "cross-dup"  # bypass the builder check
    left._annotation.content.dublin_core.identifier = "cross-dup"
    left.mark_sequence(f"obj{first}", 0, 5)
    right = sharded.new_annotation(keywords=["dup"])
    right._annotation.annotation_id = "cross-dup"
    right._annotation.content.dublin_core.identifier = "cross-dup"
    right.mark_sequence(f"obj{second}", 0, 5)
    return left.build(), right.build()


def test_duplicate_id_rejected_across_shards_at_commit(pair):
    """Regression: two same-id annotations routing to different shards must
    not both commit — the second commit fails like a single service's."""
    sharded, _ = pair
    left, right = _cross_shard_pair(sharded)
    sharded.commit(left)
    with pytest.raises(AnnotationError):
        sharded.commit(right)
    assert sharded.annotation("cross-dup").referents[0].ref.object_id == left.referents[0].ref.object_id


def test_duplicate_id_rejected_across_shards_in_bulk(pair):
    sharded, _ = pair
    left, right = _cross_shard_pair(sharded)
    with pytest.raises(AnnotationError):
        sharded.bulk_commit([left, right])


def test_open_refuses_unsharded_root(tmp_path):
    """Regression: laying shard directories (and a manifest) over a root
    holding single-service state would permanently hide that data."""
    root = tmp_path / "was-single"
    single = GraphittiService.open(root)
    single.register(DnaSequence("solo", "ACGT" * 50, domain="solo:1"))
    single.close()
    with pytest.raises(ServiceError):
        ShardedGraphittiService.open(root, shards=4)
    # the single-service state is untouched and still opens
    reopened = GraphittiService.open(root)
    assert "solo" in reopened.manager.registry
    reopened.close()


def test_bulk_commit_groups_by_shard_and_keeps_input_order(pair):
    sharded, oracle = pair
    def batch_for(service):
        batch = []
        for index in range(14):
            batch.append(
                service.new_annotation(
                    f"bulk-{index:02d}", title=f"bulk {index}", keywords=["bulkkw"]
                ).mark_sequence(f"obj{index % 6}", 0, 10)
            )
        return batch

    committed = sharded.bulk_commit(batch_for(sharded))
    oracle.bulk_commit(batch_for(oracle))
    assert [annotation.annotation_id for annotation in committed] == [
        f"bulk-{index:02d}" for index in range(14)
    ]
    assert_bit_identical(sharded, oracle)
    # the batch actually spread over more than one shard
    owners = {shard_for_key(f"obj{index % 6}", 4) for index in range(14)}
    assert len(owners) > 1


def test_statistics_aggregate(pair):
    sharded, oracle = pair
    stats = sharded.statistics()
    expected = oracle.statistics()
    assert stats["annotations"] == expected["annotations"]
    assert stats["referents"] == expected["referents"]
    # replicated substrates report one copy, not shards * copies
    assert stats["data_objects"] == expected["data_objects"]
    assert stats["sharding"]["shards"] == 4
    assert len(stats["sharding"]["per_shard"]) == 4
    assert sum(row["annotations"] for row in stats["sharding"]["per_shard"]) == stats["annotations"]
    cache = stats["service"]["query_cache"]
    assert 0.0 <= cache["hit_rate"] <= 1.0


def test_per_shard_cache_survives_writes_to_other_shards(pair):
    sharded, _ = pair
    probe = PROBES[0]
    sharded.query(probe)  # warm every shard
    before = sharded.statistics()["service"]["query_cache"]["hits"]
    builder = sharded.new_annotation(title="w", keywords=["gamma"])
    builder.mark_sequence("obj0", 1, 2)
    sharded.commit(builder)
    sharded.query(probe)
    after = sharded.statistics()["service"]["query_cache"]["hits"]
    # statistics() itself runs no queries; the single write invalidated ONE
    # shard's entry, so at least shards-1 of the scatter still hit.
    assert after - before >= sharded.shard_count - 1


def test_explain_aggregates_per_shard_plans(pair):
    sharded, _ = pair
    explanation = sharded.explain(PROBES[0])
    assert explanation["mode"] == "scatter-gather"
    assert explanation["shards"] == 4
    assert len(explanation["plans"]) == 4
    assert all("plan" in plan for plan in explanation["plans"])
    # A one-constraint query is planned with no count: the total sums none.
    assert [rows for plan in explanation["plans"] for _, rows in plan["estimated_rows"]] == [None] * 4
    assert explanation["estimated_rows_total"] == 0
    counted = sharded.explain(PROBES[2])
    assert counted["estimated_rows_total"] == sum(
        rows for plan in counted["plans"] for _, rows in plan["estimated_rows"]
    ) > 0


def test_integrity_check_covers_every_shard(pair):
    sharded, _ = pair
    report = sharded.check_integrity()
    assert report.ok
    assert len(report.reports) == 4


def test_search_passthroughs_merge(pair):
    sharded, oracle = pair
    assert sharded.search_by_keyword("common") == oracle.search_by_keyword("common")
    assert sharded.annotation_count == oracle.annotation_count
    assert sharded.related_annotations("x-000") == oracle.related_annotations("x-000")


def test_checkpoint_recover_round_trip(tmp_path):
    root = tmp_path / "sharded"
    sharded = ShardedGraphittiService.open(root, shards=4)
    oracle = GraphittiService(manager=Graphitti("rt-oracle"))
    populate(sharded)
    populate(oracle)
    sharded.checkpoint()
    manifest = read_manifest(root)
    assert manifest["shards"] == 4
    assert manifest["checkpoints"] >= 1
    sharded.close()

    recovered = ShardedGraphittiService.recover(root)
    assert_bit_identical(recovered, oracle)
    assert recovered.check_integrity().ok
    recovered.close()
    oracle.close()


def test_recover_replays_unsnapshotted_wal(tmp_path):
    root = tmp_path / "replay"
    config = ServiceConfig(checkpoint_on_close=False)
    sharded = ShardedGraphittiService.open(root, shards=3, config=config)
    oracle = GraphittiService(manager=Graphitti("replay-oracle"))
    populate(sharded)
    populate(oracle)
    sharded.close()  # no checkpoint: state lives only in the shard WALs

    recovered = ShardedGraphittiService.recover(root, config=config)
    info = recovered.recovery_info
    assert info is not None and info["replayed"] > 0
    assert_bit_identical(recovered, oracle)
    recovered.close()
    oracle.close()


def test_reads_of_one_in_process_shard_take_turns():
    """Two callers scattering the same query read shard 0 one after the other,
    so the second is served from the entry the first cached."""
    service = ShardedGraphittiService(shards=2)
    populate(service, count=8)
    inside, release, entered = threading.Event(), threading.Event(), []
    original = service.shards[0].query

    def parked(text):
        entered.append(text)
        inside.set()
        release.wait(10)
        return original(text)

    service.shards[0].query = parked
    callers = [threading.Thread(target=service.query, args=(PROBES[0],)) for _ in range(2)]
    callers[0].start()
    assert inside.wait(10)
    callers[1].start()
    time.sleep(0.2)
    assert len(entered) == 1  # the second caller waits at the shard, not inside it
    release.set()
    for caller in callers:
        caller.join(10)
    assert not any(caller.is_alive() for caller in callers)
    cache = service.shards[0]._cache.stats()
    assert (cache["misses"], cache["hits"]) == (1, 1)
    service.close()


def test_close_finishes_when_a_final_checkpoint_fails(tmp_path):
    """Regression: one shard's failed close-time checkpoint must not leak its
    WAL handle, skip the shards after it, or skip the manifest."""
    root = tmp_path / "failing-close"
    sharded = ShardedGraphittiService.open(root, shards=3)
    oracle = GraphittiService(manager=Graphitti("close-oracle"))
    populate(sharded)
    populate(oracle)

    def disk_full():
        raise OSError("disk full")

    sharded.shards[0]._store.snapshot_write_hook = disk_full
    with pytest.raises(ServiceError):
        sharded.close()
    assert all(shard._closed for shard in sharded.shards)
    assert all(shard._store.wal._handle.closed for shard in sharded.shards)
    wal_seqs = read_manifest(root)["wal_seqs"]
    assert wal_seqs == [shard.last_wal_seq for shard in sharded.shards]
    assert all(seq > 0 for seq in wal_seqs)

    recovered = ShardedGraphittiService.recover(root)
    assert recovered.recovery_info["replayed"] > 0  # shard 0's WAL, never snapshotted
    assert_bit_identical(recovered, oracle)
    recovered.close()
    oracle.close()


def test_open_rejects_topology_mismatch(tmp_path):
    root = tmp_path / "fixed"
    ShardedGraphittiService.open(root, shards=4).close()
    with pytest.raises(ServiceError):
        ShardedGraphittiService.open(root, shards=2)
    # manifest wins when shards is omitted
    reopened = ShardedGraphittiService.open(root)
    assert reopened.shard_count == 4
    reopened.close()


def test_recover_empty_root_raises(tmp_path):
    with pytest.raises(ServiceError):
        ShardedGraphittiService.recover(tmp_path / "nothing")


def test_lost_manifest_infers_topology_from_shard_dirs(tmp_path):
    """Regression: a root whose manifest was lost must derive its shard
    count from the shard directories — defaulting to 4 on an 8-shard root
    would serve half the data and misroute every write."""
    from repro.shard import MANIFEST_FILE

    root = tmp_path / "lost-manifest"
    sharded = ShardedGraphittiService.open(root, shards=6)
    populate(sharded, count=12)
    sharded.checkpoint()
    sharded.close()
    (root / MANIFEST_FILE).unlink()

    recovered = ShardedGraphittiService.recover(root)
    assert recovered.shard_count == 6
    assert recovered.annotation_count == 12
    recovered.close()
    # an explicit conflicting count is a migration, not an open-time flag
    (root / MANIFEST_FILE).unlink()
    with pytest.raises(ServiceError):
        ShardedGraphittiService.open(root, shards=4)


def test_foreign_shard_encoded_id_still_resolves(pair):
    """Regression: an id that LOOKS shard-encoded but was minted under a
    different topology routes by referent hash like any explicit id; lookups
    must fall through to the full probe instead of trusting the encoding."""
    sharded, _ = pair
    builder = sharded.new_annotation("anno-s01-999999", keywords=["foreign"])
    builder.mark_sequence("obj0", 3, 9)
    committed = sharded.commit(builder)
    owner = shard_for_key("obj0", 4)
    assert owner != 1  # the premise: the encoding lies about the owner
    assert sharded.annotation(committed.annotation_id).annotation_id == committed.annotation_id
    sharded.delete_annotation(committed.annotation_id)
    with pytest.raises(AnnotationError):
        sharded.annotation(committed.annotation_id)


def test_graph_results_respect_global_limit(pair):
    """Regression: GRAPH pages must re-apply LIMIT globally — every subgraph
    member is a returned annotation id and pages never exceed the limit."""
    sharded, _ = pair
    result = sharded.query('SELECT graph WHERE { CONTENT CONTAINS "common" } LIMIT 5')
    assert len(result.annotation_ids) == 5
    returned = set(result.annotation_ids)
    assert len(result.subgraphs) <= 5
    for subgraph in result.subgraphs:
        assert set(subgraph.terminals) <= returned


def test_single_shard_degenerate_case_matches_oracle():
    sharded = ShardedGraphittiService(shards=1, name="degenerate")
    oracle = GraphittiService(manager=Graphitti("degenerate-oracle"))
    populate(sharded)
    populate(oracle)
    assert_bit_identical(sharded, oracle)
    sharded.close()
    oracle.close()

"""Tests for the GraphittiService facade: caching, WAL wiring, bulk commits."""

import pytest

from repro.datatypes import DnaSequence
from repro.errors import ServiceError
from repro.query.parser import parse_query
from repro.service import GraphittiService, ServiceConfig, read_records
from repro.workloads import build_influenza_instance

KEYWORD_QUERY = 'SELECT contents WHERE { CONTENT CONTAINS "cleavage" }'


@pytest.fixture
def service():
    return GraphittiService(manager=build_influenza_instance())


@pytest.fixture
def durable_service(tmp_path):
    svc = GraphittiService.open(tmp_path / "inst", manager_factory=build_influenza_instance)
    yield svc
    svc.close()


# -- the plan a result ran -------------------------------------------------------


def test_result_carries_fingerprint(service):
    """A result carries no plan digest: its step details say which order
    ran, and a one-constraint query ran uncounted."""
    result = service.query(KEYWORD_QUERY)
    assert not hasattr(result, "plan_fingerprint")
    assert "plan_fingerprint" not in result.to_dict()
    steps = [(detail["label"], detail["estimated"]) for detail in result.step_details]
    assert steps == [("content CONTAINS 'cleavage'", None)]


# -- query caching -------------------------------------------------------------


def test_repeated_query_hits_cache(service):
    first = service.query(KEYWORD_QUERY)
    second = service.query(KEYWORD_QUERY)
    # Same text -> served from cache, as an independent copy (a caller
    # consuming one result must not corrupt the other's view).
    assert second is not first
    assert second.to_dict() == first.to_dict()
    stats = service.statistics()["service"]["query_cache"]
    assert stats["hits"] == 1 and stats["misses"] == 1


def test_mutation_invalidates_cache(service):
    first = service.query(KEYWORD_QUERY)
    (
        service.new_annotation("svc-new", keywords=["cleavage"], body="fresh cleavage mark")
        .mark_sequence("HA_chicken", 700, 750)
        .commit()
    )
    second = service.query(KEYWORD_QUERY)
    assert second is not first
    assert "svc-new" in second.annotation_ids
    assert service.statistics()["service"]["query_cache"]["invalidations"] >= 1


def test_delete_invalidates_cache_and_rebuilds_components(service):
    (
        service.new_annotation("svc-del", keywords=["cleavage"], body="to be deleted")
        .mark_sequence("HA_chicken", 800, 850)
        .commit()
    )
    assert "svc-del" in service.query(KEYWORD_QUERY).annotation_ids
    service.delete_annotation("svc-del")
    assert "svc-del" not in service.query(KEYWORD_QUERY).annotation_ids
    # The delete's remove_node marked components stale; the service rebuilt
    # them before releasing the write lock.
    assert service.manager.agraph.graph.components_stale is False


def test_cache_disabled(service):
    service = GraphittiService(
        manager=build_influenza_instance(), config=ServiceConfig(cache_capacity=0)
    )
    first = service.query(KEYWORD_QUERY)
    second = service.query(KEYWORD_QUERY)
    assert second is not first
    assert service.statistics()["service"]["query_cache"]["hits"] == 0


def test_query_object_input(service):
    result = service.query(parse_query(KEYWORD_QUERY))
    assert result.annotation_ids == ["flu-a1", "flu-a2"]


# -- write path ----------------------------------------------------------------


def test_builder_commit_routes_through_service(durable_service):
    wal_before = durable_service.statistics()["service"]["wal"]["records"]
    (
        durable_service.new_annotation("svc-b1", keywords=["routed"], body="via builder")
        .mark_sequence("HA_chicken", 10, 30)
        .commit()
    )
    stats = durable_service.statistics()["service"]
    assert stats["wal"]["records"] == wal_before + 1
    assert durable_service.annotation("svc-b1").annotation_id == "svc-b1"


def test_register_and_commit_logged(durable_service):
    durable_service.register(DnaSequence("svc_seq", "ACGT" * 100, domain="svc:d"))
    (
        durable_service.new_annotation("svc-r1", keywords=["logged"], body="on new object")
        .mark_sequence("svc_seq", 5, 25)
        .commit()
    )
    records, torn = read_records(durable_service._store.wal_path)
    assert not torn
    assert [record["op"] for record in records] == ["register", "commit"]


def test_bulk_commit_matches_sequential(tmp_path):
    def build_batch(svc):
        svc.register(DnaSequence("bulk_seq", "ACGT" * 200, domain="bulk:d"))
        return [
            svc.new_annotation(
                f"bulk-{index}", keywords=["bulk", f"k{index % 3}"], body=f"bulk member {index}"
            )
            .mark_sequence("bulk_seq", index * 10, index * 10 + 25)
            .build()
            for index in range(12)
        ]

    sequential = GraphittiService(manager=build_influenza_instance())
    for annotation in build_batch(sequential):
        sequential.commit(annotation)
    bulk = GraphittiService(manager=build_influenza_instance())
    committed = bulk.bulk_commit(build_batch(bulk))
    assert len(committed) == 12

    probe = 'SELECT contents WHERE { CONTENT CONTAINS "bulk" }'
    assert bulk.query(probe).annotation_ids == sequential.query(probe).annotation_ids
    bulk_stats, seq_stats = bulk.statistics(), sequential.statistics()
    for key in ("annotations", "referents", "agraph_nodes", "agraph_edges"):
        assert bulk_stats[key] == seq_stats[key]


def test_bulk_commit_validates_atomically(service):
    service.register(DnaSequence("atomic_seq", "ACGT" * 50, domain="at:d"))
    good = (
        service.new_annotation("atomic-good", keywords=["atomic"], body="fine")
        .mark_sequence("atomic_seq", 0, 10)
        .build()
    )
    from repro.core.annotation import Annotation, AnnotationContent
    from repro.core.dublin_core import DublinCore
    from repro.datatypes.base import SubstructureRef, DataType

    bad = Annotation(
        "atomic-bad",
        AnnotationContent(dublin_core=DublinCore(identifier="atomic-bad", subject=["atomic"])),
    )
    bad._referents.append(  # noqa: SLF001 - forging an invalid referent
        __import__("repro.core.annotation", fromlist=["Referent"]).Referent(
            ref=SubstructureRef(object_id="ghost", data_type=DataType.DNA, descriptor={})
        )
    )
    from repro.errors import UnknownObjectError

    with pytest.raises(UnknownObjectError):
        service.bulk_commit([good, bad])
    # Nothing from the failed batch was applied.
    assert service.search_by_keyword("atomic") == []


def test_bulk_commit_defers_index_until_search(service):
    service.register(DnaSequence("defer_seq", "ACGT" * 50, domain="df:d"))
    batch = [
        service.new_annotation(f"defer-{index}", keywords=["deferred"], body="later")
        .mark_sequence("defer_seq", index, index + 5)
        .build()
        for index in range(4)
    ]
    contents = service.manager.contents
    parked = contents.lazy_document_count
    service.bulk_commit(batch)
    # Indexed at once, so the planner counts the batch before any search;
    # the trees wait for a reader that is handed them.
    assert contents.lazy_document_count == parked + 4
    assert contents.keyword_document_frequency("deferred") == 4
    assert len(service.search_by_keyword("deferred")) == 4
    assert contents.lazy_document_count == parked + 4  # verified from the parked texts


def test_empty_bulk_commit(service):
    assert service.bulk_commit([]) == []


# -- checkpoint / lifecycle ----------------------------------------------------


def test_checkpoint_truncates_wal(durable_service):
    (
        durable_service.new_annotation("cp-1", keywords=["checkpoint"], body="before cp")
        .mark_sequence("HA_chicken", 40, 60)
        .commit()
    )
    assert durable_service.statistics()["service"]["wal"]["records"] == 1
    durable_service.checkpoint()
    stats = durable_service.statistics()["service"]
    assert stats["wal"]["records"] == 0
    assert stats["checkpoints"] >= 1
    # Components were rebuilt at the checkpoint quiesce point.
    assert durable_service.manager.agraph.graph.components_stale is False


def test_auto_checkpoint_interval(tmp_path):
    svc = GraphittiService.open(
        tmp_path / "auto",
        config=ServiceConfig(checkpoint_interval=3),
        manager_factory=build_influenza_instance,
    )
    checkpoints_before = svc.statistics()["service"]["checkpoints"]
    for index in range(3):
        (
            svc.new_annotation(f"auto-{index}", keywords=["auto"], body="tick")
            .mark_sequence("HA_chicken", index * 10, index * 10 + 5)
            .commit()
        )
    assert svc.statistics()["service"]["checkpoints"] == checkpoints_before + 1
    svc.close()


def test_closed_service_rejects_mutations(tmp_path):
    svc = GraphittiService.open(tmp_path / "closing", manager_factory=build_influenza_instance)
    svc.close()
    with pytest.raises(ServiceError):
        svc.delete_annotation("flu-a1")
    svc.close()  # idempotent


def test_statistics_surface_service_counters(service):
    stats = service.statistics()
    assert "service" in stats
    assert stats["service"]["durable"] is False
    assert set(stats["service"]["query_cache"]) >= {"hits", "misses", "evictions", "invalidations"}


def test_non_durable_checkpoint_is_local(service):
    # No root: checkpoint still drains deferred work but writes nothing.
    assert service.checkpoint() is None


def test_sibling_services_report_their_own_stats():
    """Two services over one manager (the benchmark shape) must each report
    their own cache counters, and close() must detach the stats provider."""
    manager = build_influenza_instance()
    uncached = GraphittiService(manager=manager, config=ServiceConfig(cache_capacity=0))
    cached = GraphittiService(manager=manager, config=ServiceConfig())
    cached.query(KEYWORD_QUERY)
    cached.query(KEYWORD_QUERY)
    uncached.query(KEYWORD_QUERY)
    assert cached.statistics()["service"]["query_cache"]["hits"] == 1
    uncached_stats = uncached.statistics()["service"]["query_cache"]
    assert uncached_stats["capacity"] == 0 and uncached_stats["hits"] == 0
    providers_before = len(manager.stats_providers)
    uncached.close()
    assert len(manager.stats_providers) == providers_before - 1


def test_wal_failure_poisons_further_writes(durable_service, monkeypatch):
    """Regression: after a failed append (possible torn line), further writes
    and checkpoints must be refused — appending more would bury valid records
    behind mid-file corruption that recovery refuses to read past."""
    def boom(op, payload):
        raise OSError("disk full")

    monkeypatch.setattr(durable_service._store.wal, "append", boom)
    with pytest.raises(OSError):
        (
            durable_service.new_annotation("poison-1", keywords=["poison"], body="x")
            .mark_sequence("HA_chicken", 1, 9)
            .commit()
        )
    monkeypatch.undo()
    with pytest.raises(ServiceError):
        (
            durable_service.new_annotation("poison-2", keywords=["poison"], body="y")
            .mark_sequence("HA_chicken", 10, 19)
            .commit()
        )
    with pytest.raises(ServiceError):
        durable_service.bulk_commit([
            durable_service.new_annotation("poison-3", keywords=["poison"], body="z")
            .mark_sequence("HA_chicken", 20, 29)
            .build()
        ])
    with pytest.raises(ServiceError):
        durable_service.checkpoint()

"""Service-level mutation lifecycle: WAL logging, caching, deferred work."""

import pytest

from repro.core.annotation import Referent
from repro.datatypes import DnaSequence
from repro.errors import AnnotationError
from repro.service import GraphittiService, ServiceConfig, read_records
from repro.service.durability import recover_manager

NO_CLOSE_CHECKPOINT = ServiceConfig(checkpoint_on_close=False)


def _seeded(root=None, config=None):
    service = GraphittiService.open(root, config=config or NO_CLOSE_CHECKPOINT) if root else GraphittiService(config=config)
    service.register(DnaSequence("svc_seq1", "ACGT" * 200, domain="svc:chr1"))
    service.register(DnaSequence("svc_seq2", "TGCA" * 200, domain="svc:chr1", offset=800))
    service.commit(
        service.new_annotation(
            "m1", title="original", keywords=["alpha"], body="protease mark"
        ).mark_sequence("svc_seq1", 10, 40)
    )
    return service


def test_update_logs_codec_shaped_record(tmp_path):
    root = tmp_path / "svc"
    service = _seeded(root)
    addition = Referent(ref=service.data_object("svc_seq2").mark(5, 25))
    referent_id = service.annotation("m1").referents[0].referent_id
    service.update_annotation(
        "m1",
        {
            "title": "revised",
            "add_referents": [addition],
            "move_referents": {referent_id: {"start": 200, "end": 230}},
        },
    )
    service.close()
    records, torn = read_records(root / "wal.jsonl")
    assert not torn
    record = records[-1]
    assert record["op"] == "update_annotation"
    payload = record["payload"]
    assert payload["annotation_id"] == "m1"
    # live Referent objects were encoded to plain codec dicts
    assert payload["changes"]["add_referents"][0]["referent_id"] == addition.referent_id
    assert payload["changes"]["move_referents"][referent_id] == {"start": 200, "end": 230}


def test_update_and_delete_object_replay_to_same_state(tmp_path):
    root = tmp_path / "svc"
    service = _seeded(root)
    service.commit(
        service.new_annotation("m2", keywords=["beta"], body="second mark").mark_sequence(
            "svc_seq2", 50, 80
        )
    )
    referent_id = service.annotation("m1").referents[0].referent_id
    service.update_annotation(
        "m1",
        {"keywords": ["gamma"], "move_referents": {referent_id: {"start": 300, "end": 330}}},
    )
    service.delete_object("svc_seq2")  # cascades m2
    expected = service.statistics()
    expected_hits = service.query('SELECT contents WHERE { CONTENT CONTAINS "gamma" }')
    service.close()

    recovered, info = recover_manager(root)
    assert info["replayed"] == len(read_records(root / "wal.jsonl")[0])
    stats = recovered.statistics()
    for volatile in ("mutation_epoch", "service"):
        stats.pop(volatile, None)
        expected.pop(volatile, None)
    assert stats == expected
    assert (
        recovered.query('SELECT contents WHERE { CONTENT CONTAINS "gamma" }').annotation_ids
        == expected_hits.annotation_ids
    )
    assert recovered.search_by_overlap_interval("svc:chr1", 295, 340) == ["m1"]
    assert recovered.annotations_on_object("svc_seq2") == []
    report = recovered.check_integrity()
    assert report.ok, report.errors


def test_update_invalidates_result_cache():
    service = _seeded()
    probe = 'SELECT contents WHERE { CONTENT CONTAINS "alpha" }'
    assert service.query(probe).annotation_ids == ["m1"]
    assert service.query(probe).annotation_ids == ["m1"]  # cache hit
    hits_before = service.statistics()["service"]["query_cache"]["hits"]
    assert hits_before >= 1
    service.update_annotation("m1", {"keywords": ["omega"]})
    assert service.query(probe).annotation_ids == []
    assert service.query('SELECT contents WHERE { CONTENT CONTAINS "omega" }').annotation_ids == ["m1"]
    service.close()


def test_delete_object_invalidates_cache_and_refuses_without_cascade():
    service = _seeded()
    probe = 'SELECT contents WHERE { CONTENT CONTAINS "alpha" }'
    assert service.query(probe).annotation_ids == ["m1"]
    with pytest.raises(AnnotationError):
        service.delete_object("svc_seq1", cascade=False)
    cascaded = service.delete_object("svc_seq1")
    assert cascaded == ["m1"]
    assert service.query(probe).annotation_ids == []
    assert service.annotations_on_object("svc_seq1") == []
    service.close()


def test_bulk_commit_then_delete_then_search(tmp_path):
    """Satellite regression at the service level: the deferred index flush
    (triggered by a read view) must not resurrect a deleted annotation."""
    service = _seeded(tmp_path / "svc")
    batch = [
        service.new_annotation(
            f"bulk-{i}", keywords=["deferred", f"tag{i}"], body=f"bulk member {i}"
        ).mark_sequence("svc_seq1", 100 + i * 10, 105 + i * 10)
        for i in range(3)
    ]
    service.bulk_commit(batch)
    service.delete_annotation("bulk-1")
    assert service.search_by_keyword("tag1") == []
    assert service.search_by_keyword("deferred") == ["bulk-0", "bulk-2"]
    assert service.check_integrity().ok
    service.close()


def test_update_after_bulk_commit_before_flush(tmp_path):
    """An update landing while the keyword indexing is still deferred swaps
    the pending body; the flush indexes the latest content exactly once."""
    service = _seeded(tmp_path / "svc")
    batch = [
        service.new_annotation(
            f"pend-{i}", keywords=["pending"], body=f"pending body {i}"
        ).mark_sequence("svc_seq1", 200 + i * 10, 205 + i * 10)
        for i in range(2)
    ]
    service.bulk_commit(batch)
    service.update_annotation(
        "pend-0", {"keywords": ["flushed-edit"], "body": "rewritten before the flush"}
    )
    assert service.search_by_keyword("flushed-edit") == ["pend-0"]
    assert service.search_by_keyword("pending") == ["pend-1"]
    assert service.search_by_keyword("rewritten") == ["pend-0"]
    service.close()


def test_update_replans_prepared_plan():
    """A result from before the update must not serve afterwards — the
    update reaches the page's keyword step and drops it, so the text is
    parsed and planned again."""
    service = _seeded()
    probe = 'SELECT contents WHERE { CONTENT CONTAINS "alpha" TYPE dna_sequence }'
    first = service.query(probe)
    service.update_annotation("m1", {"keywords": ["alpha", "extra"]})
    second = service.query(probe)
    assert second.annotation_ids == ["m1"]
    assert first.annotation_ids == ["m1"]
    service.close()


def test_closed_service_refuses_mutations():
    from repro.errors import ServiceError

    service = _seeded()
    service.close()
    with pytest.raises(ServiceError):
        service.update_annotation("m1", {"title": "x"})
    with pytest.raises(ServiceError):
        service.delete_object("svc_seq1")


def _edge_set(service):
    return {
        (edge.source, edge.target, edge.label) for edge in service.manager.agraph.graph.edges()
    }


@pytest.mark.parametrize("how", ["delete_annotation", "remove_referents"])
def test_dropping_a_shared_referent_retracts_only_its_own_edges(tmp_path, how):
    """Live state equals checkpoint + recover after one sharer lets go.

    ``a`` and ``b`` mark the same extent with different ontology terms, and
    ``a`` links it to a second same-object extent that ``c`` also marks.  When
    ``a`` goes (or detaches the shared extent) the shared nodes survive, but
    the term pointer and the same-object link only ``a`` wired must not: a
    recovered instance rebuilds without them, and PATH / REFERS pages differ.
    """
    from repro.net.codec import encode_query_result
    from repro.ontology.model import Ontology

    root = tmp_path / "svc"
    service = GraphittiService.open(root, config=NO_CLOSE_CHECKPOINT)
    ontology = Ontology("go")
    ontology.add_concept("GO:1", "alpha")
    ontology.add_concept("GO:2", "beta")
    service.register_ontology(ontology)
    service.register(DnaSequence("chr1", "ACGT" * 100, domain="shared:chr1"))
    a = (
        service.new_annotation("a", title="A", keywords=["ka"])
        .mark_sequence("chr1", 5, 40, ontology_terms=["GO:1"])
        .mark_sequence("chr1", 50, 60)
        .commit()
    )
    service.new_annotation("b", title="B", keywords=["kb"]).mark_sequence(
        "chr1", 5, 40, ontology_terms=["GO:2"]
    ).commit()
    service.new_annotation("c", title="C", keywords=["kc"]).mark_sequence("chr1", 50, 60).commit()
    shared, sibling = (referent.referent_id for referent in a.referents)
    assert (shared, "GO:1", "refers_to") in _edge_set(service)

    if how == "delete_annotation":
        service.delete_annotation("a")
    else:
        service.update_annotation("a", {"remove_referents": [shared]})

    queries = [
        'SELECT referents WHERE { REFERENT REFERS "GO:1" }',
        'SELECT contents WHERE { REFERENT REFERS "GO:2" }',
        'SELECT contents WHERE { PATH "kb" TO "kc" MAXLEN 4 }',
        'SELECT graph WHERE { PATH "kb" TO "alpha" MAXLEN 6 }',
    ]
    live_edges = _edge_set(service)
    live_pages = [encode_query_result(service.query(text)) for text in queries]
    assert (shared, "GO:1", "refers_to") not in live_edges
    assert (shared, "GO:2", "refers_to") in live_edges  # b's own pointer stays
    assert not {(shared, sibling), (sibling, shared)} & {edge[:2] for edge in live_edges}
    service.checkpoint()
    service.close()

    recovered = GraphittiService.recover(root)
    assert _edge_set(recovered) == live_edges
    assert [encode_query_result(recovered.query(text)) for text in queries] == live_pages
    recovered.close()

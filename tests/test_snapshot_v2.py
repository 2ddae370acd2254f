"""Snapshots carry records, not renderings, and detect their own damage.

* A checkpoint writes no annotation content document: recovery derives each
  one from its record (``Annotation.searchable_text`` for the index, the
  tree only when read).  ``searchable_text`` is pinned byte-identical to the
  collection's extraction over the rendered document, over generated records.
* A v1 snapshot (every document dumped) written by commit d5983d2 recovers
  to exactly the instance that commit recovered from it.
* A live instance and its checkpoint-recovered twin answer every keyword
  alike, and every tree built on demand -- live, WAL-replayed or
  snapshot-recovered -- is the record's ``Annotation.to_document()``.
* Every snapshot carries a CRC32 of its bytes; damage that would still
  parse, and truncation, raise :class:`SnapshotCorruptionError`.
* A checkpoint copies the records of unchanged rows from the snapshot it
  replaces only while that file verifies against the checksum it was written
  with: a flipped byte, a replaced file or a recovered service makes it
  encode every row, and the file it writes is still a full encode's.
* The ``object_metadata`` section is written byte-for-byte as commit
  6862682 wrote it, except that native bytes are never persisted: a row's
  ``raw`` is ``null`` in every snapshot, as it is in every WAL record.
"""

from __future__ import annotations

import json
import re
import shutil
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

REPO = Path(__file__).resolve().parents[1]
if str(REPO) not in sys.path:  # the e2e oracle's page form is the probe fixture's
    sys.path.insert(0, str(REPO))

from benchmarks.e2e.oracle import pages  # noqa: E402

from repro.core.annotation import Annotation, AnnotationContent, Referent  # noqa: E402
from repro.core.dublin_core import DublinCore  # noqa: E402
from repro.core.persistence import CatalogueObject, snapshot  # noqa: E402
from repro.datatypes import DnaSequence, Image  # noqa: E402
from repro.datatypes.base import DataType, SubstructureRef  # noqa: E402
from repro.errors import SnapshotCorruptionError  # noqa: E402
from repro.replica.follower import ReplicaFollower  # noqa: E402
from repro.service import GraphittiService, ServiceConfig  # noqa: E402
from repro.service.durability import (  # noqa: E402
    SNAPSHOT_FILE,
    peek_snapshot_wal_seq,
    read_snapshot,
    recover_manager,
    write_snapshot_file,
)
from repro.spatial.interval import Interval  # noqa: E402
from repro.spatial.rect import Rect  # noqa: E402
from repro.workloads import run_churn_workload, seed_churn_corpus  # noqa: E402
from repro.xmlstore.collection import DocumentCollection  # noqa: E402
from repro.xmlstore.document import XmlDocument, XmlElement  # noqa: E402

FIXTURES = Path(__file__).parent / "fixtures"
CONFIG = ServiceConfig(durability="never", checkpoint_on_close=False)


def plain(value):
    """*value* as JSON would give it back (tuples become lists)."""
    return json.loads(json.dumps(value))


# -- searchable text without the tree -----------------------------------------------

texts = st.text(max_size=10)
names = st.text(alphabet="abcdefgh_", min_size=1, max_size=6)
terms = st.lists(st.sampled_from(["go:1", "bo:i7", "uberon:0002037", "x"]), max_size=3)
coordinates = st.integers(-50, 50) | st.floats(-50, 50, allow_nan=False)


@st.composite
def referents(draw) -> Referent:
    kind = draw(st.sampled_from(["interval", "rect", "none"]))
    interval = rect = None
    if kind == "interval":
        start, end = sorted(draw(st.lists(coordinates, min_size=2, max_size=2)))
        interval = Interval(start, end, domain=draw(st.none() | texts))
    elif kind == "rect":
        lo = draw(st.lists(coordinates, min_size=2, max_size=3))
        hi = [value + draw(st.integers(0, 9)) for value in lo]
        rect = Rect(tuple(lo), tuple(hi), space=draw(st.none() | texts))
    # Keys in and out of the rendered set; values of every shape a mark makes.
    descriptor = draw(
        st.dictionaries(
            st.sampled_from(["residues", "leaves", "row_keys", "edges", "start", "clade", "size"]),
            texts | st.integers() | st.lists(texts, max_size=3),
            max_size=4,
        )
    )
    ref = SubstructureRef(
        object_id=draw(names),
        data_type=draw(st.sampled_from(list(DataType))),
        descriptor=descriptor,
        interval=interval,
        rect=rect,
        label=draw(st.none() | texts),
    )
    return Referent(ref=ref, ontology_terms=draw(terms), referent_id=draw(st.none() | texts))


@st.composite
def annotations(draw) -> Annotation:
    core = DublinCore(
        title=draw(texts),
        creator=draw(texts),
        subject=draw(st.lists(texts, max_size=3)),
        description=draw(texts),
        contributor=draw(st.lists(texts, max_size=2)),
        date=draw(texts),
        type=draw(texts),
        language=draw(texts),
        rights=draw(texts),
    )
    content = AnnotationContent(
        dublin_core=core,
        body=draw(texts),  # empty bodies render no <body>
        ontology_terms=draw(terms),
        user_tags=draw(st.dictionaries(names, texts, max_size=3)),  # empty values included
    )
    annotation = Annotation(draw(names), content)
    annotation._referents.extend(draw(st.lists(referents(), max_size=3)))
    return annotation


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(annotation=annotations())
def test_searchable_text_is_the_rendered_documents(annotation):
    rendered = DocumentCollection._searchable_text(annotation.to_document())
    assert annotation.searchable_text() == rendered
    for referent in annotation.referents:  # the update path's delta parts
        element = referent.to_element()
        texts_, attributes = referent.searchable_parts()
        assert texts_ == [node.text for node in element.iter() if node.text]
        assert attributes == [value for node in element.iter() for value in node.attributes.values()]


# -- what a checkpoint writes ----------------------------------------------------------


def churned_root(root: Path, annotations: int = 60, operations: int = 150) -> GraphittiService:
    service = GraphittiService.open(root, config=CONFIG)
    churn = seed_churn_corpus(service, objects=4, annotations=annotations, tag="v2")
    summary = run_churn_workload(service, churn, operations=operations)
    assert summary["errors"] == []
    return service


def test_a_checkpoint_writes_records_and_only_the_documents_no_record_owns(tmp_path):
    service = churned_root(tmp_path / "root", annotations=20, operations=40)
    try:
        service.checkpoint()
        payload = read_snapshot(tmp_path / "root" / SNAPSHOT_FILE)
        assert list(payload)[:2] == ["wal_seq", "crc32"]
        assert payload["contents"] == {}
        assert len(payload["annotations"]) == service.annotation_count

        note = XmlElement("note", attributes={"lang": "en"}, text="an orphan remark")
        service.manager.contents.add(XmlDocument(note), doc_id="orphan")
        service.checkpoint()
        payload = read_snapshot(tmp_path / "root" / SNAPSHOT_FILE)
        assert list(payload["contents"]) == ["orphan"]
        assert payload == plain({**snapshot(service.manager), "wal_seq": payload["wal_seq"],
                                 "crc32": payload["crc32"]})
    finally:
        service.close()
    recovered, _ = recover_manager(tmp_path / "root")
    assert recovered.contents.document_ids()[0] == "orphan"
    assert recovered.contents.search_keyword("orphan remark") == ["orphan"]
    assert recovered.contents.lazy_document_count == recovered.annotation_count


def test_a_tree_built_on_demand_is_the_records_rendering(tmp_path):
    service = churned_root(tmp_path / "root", annotations=20, operations=40)
    try:
        live = service.manager
        replayed, info = recover_manager(tmp_path / "root")
        assert info["replayed"] > 0
        service.checkpoint()
        recovered, info = recover_manager(tmp_path / "root")
        assert info["snapshot"] and info["replayed"] == 0
        assert recovered.contents.lazy_document_count == recovered.annotation_count
        expected = {
            annotation_id: live.annotation(annotation_id).to_document().to_dict()
            for annotation_id in live.annotation_ids()
        }
        for manager in (live, replayed, recovered):
            contents = manager.contents
            assert contents.document_ids() == live.contents.document_ids()
            for annotation_id in manager.annotation_ids():
                built = contents.get(annotation_id).to_dict()
                assert built == manager.annotation(annotation_id).to_document().to_dict()
                assert built == expected[annotation_id], annotation_id
            assert contents.lazy_document_count == 0
    finally:
        service.close()


def test_live_and_checkpoint_recovered_twins_answer_every_keyword_alike(tmp_path):
    service = churned_root(tmp_path / "root")
    try:
        service.checkpoint()
        live = service.manager.contents
        recovered, info = recover_manager(tmp_path / "root")
        assert info["replayed"] == 0  # the snapshot alone
        twin = recovered.contents
        assert twin.lazy_document_count == recovered.annotation_count
        assert twin._index._postings == live._index._postings
        assert twin._index._doc_lengths == live._index._doc_lengths
        phrases = ["revised body", "initial mark", "churn annotation 7", "delete+recommit cycle"]
        for keyword in sorted(live._index.terms()) + phrases:
            assert twin.search_keyword(keyword) == live.search_keyword(keyword), keyword
    finally:
        service.close()


def test_a_live_instance_plans_like_its_recovered_twin(tmp_path):
    """Bulk ingest and edits leave the live instance laid out, and so
    planned, exactly as recovery lays out its snapshot: every document
    parked, every text indexed."""
    keywords = ["zebra", "striped", "edited", "churn", "initial mark", "refined", "curated"]
    texts = [f'SELECT contents WHERE {{ CONTENT CONTAINS "{keyword}" }}' for keyword in keywords]
    texts += [
        'SELECT referents WHERE { CONTENT CONTAINS "zebra" CONTENT CONTAINS "churn" }',
        'SELECT contents WHERE { CONTENT CONTAINS "edited" NOT { CONTENT CONTAINS "zebra" } }',
    ]

    def planning(manager) -> tuple:
        contents = manager.contents
        estimates = [
            contents.keyword_document_frequency(keyword, mode=mode)
            for keyword in keywords
            for mode in ("and", "or")
        ]
        return contents.lazy_document_count, estimates, [plain(manager.explain(text)) for text in texts]

    service = GraphittiService.open(tmp_path / "root", config=CONFIG)
    try:
        churn = seed_churn_corpus(service, objects=3, annotations=30, tag="plan")
        object_id = churn["object_ids"][0]
        service.bulk_commit(
            service.new_annotation(f"zebra-{serial}", keywords=["zebra"], body="striped")
            .mark_sequence(object_id, serial, serial + 9)
            for serial in range(5)
        )
        edited = churn["annotation_ids"][::4]
        for serial, annotation_id in enumerate(edited):
            changes = {"title": f"edited {serial}", "keywords": ["edited", "zebra"]}
            service.update_annotation(annotation_id, changes)
        live = planning(service.manager)  # before a checkpoint could tidy anything
        service.checkpoint()
    finally:
        service.close()
    recovered, info = recover_manager(tmp_path / "root")
    assert info["replayed"] == 0
    assert live[0] == recovered.annotation_count  # every document parked
    assert live[1][0] == 5 + len(edited)  # "zebra", counted before any search
    assert planning(recovered) == live


# -- v1 compatibility -----------------------------------------------------------------


@pytest.fixture(scope="module")
def v1_expected():
    return json.loads((FIXTURES / "snapshot_v1_expected.json").read_text(encoding="utf-8"))


@pytest.fixture
def v1_root(tmp_path):
    root = tmp_path / "v1"
    root.mkdir()
    shutil.copyfile(FIXTURES / "snapshot_v1.json", root / SNAPSHOT_FILE)
    return root


def in_dict_form(page: dict) -> dict:
    """A probe page with each fragment's row text (the wire form) as the
    ``to_dict`` the fixture pins (attribute order is not pinned there)."""
    fragments = [
        None if text is None else XmlDocument.from_rows(json.loads(text)).to_dict()
        for text in page["fragments"]
    ]
    return {**page, "fragments": fragments}


def test_a_v1_snapshot_recovers_the_instance_its_own_code_recovered(v1_root, v1_expected):
    payload = json.loads((v1_root / SNAPSHOT_FILE).read_text(encoding="utf-8"))
    assert "crc32" not in payload and len(payload["contents"]) == len(payload["annotations"]) + 1
    manager, info = recover_manager(v1_root)  # loads unverified
    assert info["base_seq"] == payload["wal_seq"]
    contents = manager.contents
    # The extent summaries left statistics() after the fixture was written.
    expected = {key: value for key, value in v1_expected["statistics"].items() if key != "extent_summaries"}
    assert plain(manager.statistics()) == expected
    assert list(contents.document_ids()) == v1_expected["document_ids"]
    # The dumped annotation documents were ignored: every one is derived.
    assert contents.lazy_document_count == len(payload["annotations"])
    for text, page in v1_expected["probes"].items():
        assert in_dict_form(plain(pages(manager.query(text)))) == page, text
    hits = v1_expected["search_keyword"]
    for keyword in sorted(contents._index.terms()) + ["catalytic loop", "curator remark"]:
        assert contents.search_keyword(keyword) == hits.get(keyword, []), keyword
    for doc_id, document in v1_expected["documents"].items():
        assert contents.get(doc_id).to_dict() == document, doc_id


def test_a_v1_root_checkpoints_to_v2_and_recovers_the_same(v1_root, v1_expected):
    service = GraphittiService.recover(v1_root, config=CONFIG)
    try:
        service.checkpoint()
    finally:
        service.close()
    payload = read_snapshot(v1_root / SNAPSHOT_FILE)
    assert "crc32" in payload and list(payload["contents"]) == ["curator-note"]
    manager, _ = recover_manager(v1_root)
    assert list(manager.contents.document_ids()) == v1_expected["document_ids"]
    for doc_id, document in v1_expected["documents"].items():
        assert manager.contents.get(doc_id).to_dict() == document, doc_id


# -- checksum ----------------------------------------------------------------------------


@pytest.fixture
def v2_root(tmp_path):
    root = tmp_path / "v2"
    service = churned_root(root, annotations=20, operations=30)
    try:
        service.checkpoint()
    finally:
        service.close()
    return root


def test_the_checksum_leaves_the_head_peekable_and_the_file_json(v2_root):
    data = (v2_root / SNAPSHOT_FILE).read_bytes()
    head = re.match(rb'\{"wal_seq": (\d+), "crc32": "([0-9a-f]{8})"', data)
    assert head is not None
    assert peek_snapshot_wal_seq(v2_root / SNAPSHOT_FILE) == int(head.group(1))
    assert json.loads(data)["crc32"] == head.group(2).decode()


def test_a_flipped_digit_in_an_annotation_body_still_parses_but_is_refused(v2_root):
    path = v2_root / SNAPSHOT_FILE
    data = path.read_bytes()
    body = re.search(rb'"body": "initial mark (\d)', data)
    at = body.start(1)
    flipped = b"%d" % ((int(data[at:at + 1]) + 1) % 10)
    path.write_bytes(data[:at] + flipped + data[at + 1:])
    damaged = json.loads(path.read_bytes())  # without the checksum it would load
    assert any(record["body"].startswith("initial mark ") for record in damaged["annotations"])
    with pytest.raises(SnapshotCorruptionError):
        recover_manager(v2_root)


def test_a_truncated_snapshot_is_refused(v2_root):
    path = v2_root / SNAPSHOT_FILE
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(SnapshotCorruptionError):
        read_snapshot(path)
    path.write_bytes(data[:-1])
    with pytest.raises(SnapshotCorruptionError):
        GraphittiService.recover(v2_root, config=CONFIG)


def test_a_reseeded_replica_root_gets_the_checkpoint_writers_file(v2_root, tmp_path):
    payload = read_snapshot(v2_root / SNAPSHOT_FILE)
    follower = ReplicaFollower(tmp_path / "replica", config=CONFIG)
    try:
        assert follower.reseed(payload) == payload["wal_seq"]
        written = read_snapshot(tmp_path / "replica" / SNAPSHOT_FILE)  # verified
        assert list(written)[:2] == ["wal_seq", "crc32"]
        assert {k: v for k, v in written.items() if k != "crc32"} == {
            k: v for k, v in payload.items() if k != "crc32"
        }
        assert follower.manager.annotation_count == len(payload["annotations"])
    finally:
        follower.close()


# -- incremental checkpoints never launder damage ------------------------------------------


def full_encode(service: GraphittiService, root: Path) -> bytes:
    """The file a full encode of *service*'s state writes for its snapshot."""
    payload = snapshot(service.manager)
    payload["wal_seq"] = peek_snapshot_wal_seq(root / SNAPSHOT_FILE)
    target = root.parent / "full.json"
    write_snapshot_file(target, payload)
    return target.read_bytes()


def rows(service: GraphittiService) -> tuple[int, int]:
    counters = service.statistics()["service"]
    return counters["checkpoint_rows_encoded"], counters["checkpoint_rows_copied"]


def checkpoint_after_edits(service: GraphittiService, root: Path) -> tuple[int, int]:
    """Edit two annotations, checkpoint; ``(encoded, copied)`` by that checkpoint."""
    for annotation_id in sorted(service.manager.annotation_ids())[:2]:
        service.update_annotation(annotation_id, {"title": "edited after the checkpoint"})
    encoded, copied = rows(service)
    service.checkpoint()
    assert (root / SNAPSHOT_FILE).read_bytes() == full_encode(service, root)
    recovered, _ = recover_manager(root)
    assert plain(snapshot(recovered)) == plain(snapshot(service.manager))
    after = rows(service)
    return after[0] - encoded, after[1] - copied


def test_an_undamaged_snapshot_is_copied_from(tmp_path):
    root = tmp_path / "root"
    service = churned_root(root, annotations=20, operations=30)
    try:
        service.checkpoint()
        assert checkpoint_after_edits(service, root) == (2, service.annotation_count - 2)
    finally:
        service.close()


def test_a_damaged_record_is_never_copied_forward(tmp_path):
    root = tmp_path / "root"
    service = churned_root(root, annotations=20, operations=30)
    try:
        service.checkpoint()
        path = root / SNAPSHOT_FILE
        data = path.read_bytes()
        at = re.search(rb'"body": "initial mark (\d)', data).start(1)
        path.write_bytes(data[:at] + b"%d" % ((int(data[at:at + 1]) + 1) % 10) + data[at + 1:])
        assert checkpoint_after_edits(service, root) == (service.annotation_count, 0)
    finally:
        service.close()


def test_a_replaced_snapshot_is_never_copied_from(tmp_path):
    root = tmp_path / "root"
    service = churned_root(root, annotations=20, operations=30)
    try:
        service.checkpoint()
        path = root / SNAPSHOT_FILE
        payload = read_snapshot(path)
        payload["annotations"][0]["body"] = "a different snapshot"
        write_snapshot_file(path, payload)  # verifies, under another checksum
        assert checkpoint_after_edits(service, root) == (service.annotation_count, 0)
    finally:
        service.close()


def test_a_recovered_service_copies_nothing_from_the_file_it_recovered(tmp_path):
    root = tmp_path / "root"
    service = churned_root(root, annotations=20, operations=30)
    service.checkpoint()
    service.close()
    service = GraphittiService.recover(root, config=CONFIG)
    try:
        assert checkpoint_after_edits(service, root) == (service.annotation_count, 0)
        assert checkpoint_after_edits(service, root) == (2, service.annotation_count - 2)
    finally:
        service.close()


# -- object metadata ---------------------------------------------------------------------

#: The ``object_metadata`` section commit 6862682 wrote for
#: :func:`registered_root` (``raw`` bytes then went out as a hex blob).
PARENT_METADATA_SECTION = (
    b'{"name": "graphitti", "tables": {"data_objects": {"schema": {"name": "data_objects", "columns": ['
    b'{"name": "object_id", "type": "text", "nullable": false, "default": null}, '
    b'{"name": "data_type", "type": "text", "nullable": false, "default": null}, '
    b'{"name": "domain", "type": "text", "nullable": true, "default": null}, '
    b'{"name": "description", "type": "text", "nullable": true, "default": null}, '
    b'{"name": "metadata", "type": "json", "nullable": true, "default": null}, '
    b'{"name": "raw", "type": "blob", "nullable": true, "default": null}], '
    b'"primary_key": "object_id", "unique": []}, '
    b'"rows": ['
    b'{"object_id": "seq-a", "data_type": "dna_sequence", "domain": "chr1", "description": "dna sequence seq-a (4 residues)", '
    b'"metadata": {"lab": "wet", "tags": ["a", null, {"depth": [1, 2.5, true], "empty": {}}], "note": null}, "raw": {"__blob__": "0001"}}, '
    b'{"object_id": "net-b", "data_type": "interaction_graph", "domain": null, "description": "interaction_graph net-b (catalogue entry)", '
    b'"metadata": {"source": {"db": "string", "ids": []}}, "raw": null}, '
    b'{"object_id": "seq-d", "data_type": "dna_sequence", "domain": "seq-d", "description": "dna sequence seq-d (7 residues)", '
    b'"metadata": {"curated": false}, "raw": null}]}}}'
)

RAW = b"\x00\x01"


def registered_root(root: Path) -> dict:
    """Checkpoint rows of every value shape; return the live rows."""
    service = GraphittiService.open(root, config=CONFIG)
    try:
        service.register(
            DnaSequence("seq-a", "ACGT", domain="chr1"),
            raw=RAW,
            lab="wet",
            tags=["a", None, {"depth": [1, 2.5, True], "empty": {}}],
            note=None,
        )
        service.register(
            CatalogueObject("net-b", DataType.GRAPH, metadata={"source": {"db": "string", "ids": []}})
        )
        service.register(Image("img-c", dimension=2, space="atlas"), stain=None)
        service.delete_object("img-c")
        service.register(DnaSequence("seq-d", "GATTACA"), curated=False)
        live = {
            object_id: service.manager.object_metadata(object_id)
            for object_id in ("seq-a", "net-b", "seq-d")
        }
        service.checkpoint()
    finally:
        service.close()
    return live


def metadata_section(path: Path) -> bytes:
    data = path.read_bytes()
    start = data.index(b'"object_metadata": ') + len(b'"object_metadata": ')
    return data[start:data.index(b', "contents": ', start)]


def test_the_object_metadata_section_is_written_as_before(tmp_path):
    live = registered_root(tmp_path / "root")
    assert live["net-b"]["domain"] is None and live["seq-a"]["raw"] == RAW
    written = metadata_section(tmp_path / "root" / SNAPSHOT_FILE)
    assert written == PARENT_METADATA_SECTION.replace(b'{"__blob__": "0001"}', b"null")


def test_a_parent_written_object_metadata_section_recovers_the_same_rows(tmp_path):
    live = registered_root(tmp_path / "root")
    path = tmp_path / "root" / SNAPSHOT_FILE
    payload = read_snapshot(path)
    del payload["crc32"]
    payload["object_metadata"] = json.loads(PARENT_METADATA_SECTION)
    path.write_text(json.dumps(payload), encoding="utf-8")
    manager, _ = recover_manager(tmp_path / "root")
    assert list(manager.metadata_rows) == list(live)
    for object_id, row in live.items():
        assert manager.object_metadata(object_id) == {**row, "raw": None}
    assert sorted(manager.registry.object_ids()) == sorted(live)


def test_native_bytes_are_never_persisted(tmp_path):
    recovered = {}
    for checkpoint in (False, True):
        root = tmp_path / f"checkpoint-{checkpoint}"
        service = GraphittiService.open(root, config=CONFIG)
        try:
            service.register(DnaSequence("seq-a", "ACGT"), raw=RAW)
            if checkpoint:
                service.checkpoint()
            assert service.manager.object_metadata("seq-a")["raw"] == RAW
        finally:
            service.close()
        manager, info = recover_manager(root)
        assert info["replayed"] == (0 if checkpoint else 1)  # the register record
        recovered[checkpoint] = manager.object_metadata("seq-a")
    assert recovered[True] == recovered[False]
    assert recovered[True]["raw"] is None

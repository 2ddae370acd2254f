"""Manager-level ``update_annotation``: delta maintenance semantics."""

import pytest

from repro.core.annotation import Referent
from repro.core.manager import Graphitti
from repro.datatypes import DnaSequence, Image
from repro.errors import AnnotationError, UnknownObjectError
from repro.ontology.builtin import build_protein_ontology
from repro.query.stats import StatisticsCatalogue


@pytest.fixture
def instance():
    g = Graphitti("update-test")
    g.register_ontology(build_protein_ontology())
    g.register(DnaSequence("seq1", "ACGT" * 250, domain="upd:chr1"))
    g.register(DnaSequence("seq2", "TGCA" * 250, domain="upd:chr1", offset=1000))
    g.register(Image("img", dimension=2, space="upd:atlas", size=(200, 200)))
    (
        g.new_annotation(
            "a1",
            title="original title",
            creator="alice",
            keywords=["alpha", "binding"],
            body="protease cleavage site",
        )
        .mark_sequence("seq1", 10, 40)
        .commit()
    )
    return g


def test_content_edit_updates_keyword_search(instance):
    assert instance.search_by_keyword("alpha") == ["a1"]
    instance.update_annotation("a1", {"keywords": ["gamma"], "body": "kinase motif"})
    assert instance.search_by_keyword("alpha") == []
    assert instance.search_by_keyword("gamma") == ["a1"]
    assert instance.search_by_keyword("kinase") == ["a1"]
    assert instance.search_by_keyword("protease") == []


def test_content_fields_replace_in_place(instance):
    instance.update_annotation(
        "a1",
        {
            "title": "revised title",
            "creator": "bob",
            "description": "a refined mark",
            "user_tags": {"confidence": "high"},
        },
    )
    annotation = instance.annotation("a1")
    assert annotation.content.dublin_core.title == "revised title"
    assert annotation.content.dublin_core.creator == "bob"
    assert annotation.content.user_tags == {"confidence": "high"}
    # the stored document reflects the edit (lazily regenerated on read)
    document = instance.contents.get("a1")
    assert "revised title" in document.text_content()
    # tag *values* are searchable text (keys are element names, which are not)
    assert instance.search_by_keyword("high") == ["a1"]


def test_update_keeps_annotation_id_and_slot(instance):
    slot_before = instance.idspace.slot("a1")
    instance.update_annotation("a1", {"title": "revised"})
    assert instance.idspace.slot("a1") == slot_before
    assert len(instance.idspace) == 1 and "a1" in instance.idspace


def test_extent_move_updates_overlap_search(instance):
    assert instance.search_by_overlap_interval("upd:chr1", 0, 50) == ["a1"]
    referent_id = instance.annotation("a1").referents[0].referent_id
    instance.update_annotation(
        "a1", {"move_referents": {referent_id: {"start": 500, "end": 540}}}
    )
    assert instance.search_by_overlap_interval("upd:chr1", 0, 50) == []
    assert instance.search_by_overlap_interval("upd:chr1", 490, 560) == ["a1"]
    # the referent id stays stable; descriptor follows the move
    referent = instance.annotation("a1").referents[0]
    assert referent.referent_id == referent_id
    assert referent.ref.descriptor["start"] == 500
    assert referent.ref.descriptor["end"] == 540


def test_extent_move_adjusts_summaries(instance):
    tree = instance.substructures.interval_family.tree("upd:chr1")
    assert (len(tree), tree.span().as_tuple()) == (1, (10, 40))
    referent_id = instance.annotation("a1").referents[0].referent_id
    instance.update_annotation(
        "a1", {"move_referents": {referent_id: {"start": 100, "end": 160}}}
    )
    # one remove + one insert in the same tree: its count and span follow
    assert (len(tree), tree.span().as_tuple()) == (1, (100, 160))


def test_region_move(instance):
    (
        instance.new_annotation("a2", keywords=["spot"], body="a region mark")
        .mark_region("img", (10, 10), (20, 20))
        .commit()
    )
    referent_id = instance.annotation("a2").referents[0].referent_id
    instance.update_annotation(
        "a2", {"move_referents": {referent_id: {"lo": (50, 50), "hi": (70, 70)}}}
    )
    assert instance.search_by_overlap_region("upd:atlas", (0, 0), (30, 30)) == []
    assert instance.search_by_overlap_region("upd:atlas", (45, 45), (80, 80)) == ["a2"]


def test_remove_referent_shared_survival(instance):
    # a2 shares a1's referent; removing it from a2 must keep the substructure
    (
        instance.new_annotation("a2", keywords=["shared"], body="shares the referent")
        .mark_sequence("seq1", 10, 40)
        .mark_sequence("seq2", 5, 25)
        .commit()
    )
    shared = instance.annotation("a1").referents[0].referent_id
    assert shared in {r.referent_id for r in instance.annotation("a2").referents}
    instance.update_annotation("a2", {"remove_referents": [shared]})
    assert shared not in {r.referent_id for r in instance.annotation("a2").referents}
    assert shared in instance.substructures  # a1 still needs it
    assert instance.search_by_overlap_interval("upd:chr1", 0, 50) == ["a1"]
    report = instance.check_integrity()
    assert report.ok, report.errors


def test_remove_referent_unshared_drops_node_and_extent(instance):
    (
        instance.new_annotation("a2", keywords=["solo"], body="private referent")
        .mark_sequence("seq2", 100, 140)
        .mark_sequence("seq2", 300, 340)
        .commit()
    )
    doomed = instance.annotation("a2").referents[1].referent_id
    instance.update_annotation("a2", {"remove_referents": [doomed]})
    assert doomed not in instance.substructures
    assert doomed not in instance.agraph
    report = instance.check_integrity()
    assert report.ok, report.errors


def test_add_referent_wires_like_commit(instance):
    addition = Referent(ref=instance.data_object("seq2").mark(50, 90))
    instance.update_annotation("a1", {"add_referents": [addition]})
    annotation = instance.annotation("a1")
    assert annotation.referent_count == 2
    assert addition.referent_id in instance.substructures
    assert addition.referent_id in instance.agraph
    assert instance.agraph.contents_annotating(addition.referent_id) == ["a1"]
    # keyword search sees the new referent's attribute text lazily
    assert instance.search_by_overlap_interval("upd:chr1", 1040, 1100) == ["a1"]
    report = instance.check_integrity()
    assert report.ok, report.errors


def test_add_referent_accepts_codec_dict(instance):
    from repro.core.persistence import encode_referent

    addition = Referent(ref=instance.data_object("seq2").mark(200, 240))
    instance.update_annotation("a1", {"add_referents": [encode_referent(addition)]})
    assert instance.annotation("a1").referent_count == 2


def test_ontology_terms_rewire_diffed(instance):
    instance.update_annotation("a1", {"ontology_terms": ["protein:protease"]})
    assert "a1" in instance.search_by_ontology("protein:protease")
    assert "protein:protease" in instance.agraph.ontology_terms_of("a1")
    instance.update_annotation("a1", {"ontology_terms": ["protein:kinase"]})
    assert "a1" not in instance.search_by_ontology("protein:protease", include_descendants=False)
    assert "a1" in instance.search_by_ontology("protein:kinase")
    assert instance.agraph.ontology_terms_of("a1") == ["protein:kinase"]


def test_catalogue_matches_rebuild_after_updates(instance):
    instance.update_annotation("a1", {"ontology_terms": ["protein:protease"]})
    addition = Referent(ref=instance.data_object("img").mark_region((5, 5), (9, 9)))
    instance.update_annotation("a1", {"add_referents": [addition]})
    instance.update_annotation("a1", {"remove_referents": [addition.referent_id]})
    fresh = StatisticsCatalogue()
    fresh.rebuild(instance)
    assert instance.stats_catalogue.counts() == fresh.counts()


def test_update_bumps_epoch(instance):
    epoch = instance.mutation_epoch
    instance.update_annotation("a1", {"title": "bumped"})
    assert instance.mutation_epoch == epoch + 1


def test_update_unknown_annotation_raises(instance):
    with pytest.raises(AnnotationError):
        instance.update_annotation("missing", {"title": "x"})


def test_update_unknown_key_raises(instance):
    with pytest.raises(AnnotationError):
        instance.update_annotation("a1", {"colour": "red"})


def test_update_unknown_referent_raises_and_applies_nothing(instance):
    epoch = instance.mutation_epoch
    with pytest.raises(AnnotationError):
        instance.update_annotation(
            "a1", {"title": "should not land", "remove_referents": ["nope"]}
        )
    assert instance.annotation("a1").content.dublin_core.title == "original title"
    assert instance.mutation_epoch == epoch


def test_update_move_of_removed_referent_raises(instance):
    referent_id = instance.annotation("a1").referents[0].referent_id
    with pytest.raises(AnnotationError):
        instance.update_annotation(
            "a1",
            {
                "remove_referents": [referent_id],
                "move_referents": {referent_id: {"start": 1, "end": 2}},
            },
        )


def test_update_bad_move_spec_applies_nothing(instance):
    """A move with the wrong dimensionality (or on an extent-less referent)
    must fail validation — never half-apply the change set."""
    referent_id = instance.annotation("a1").referents[0].referent_id
    epoch = instance.mutation_epoch
    with pytest.raises(AnnotationError):
        instance.update_annotation(
            "a1",
            {
                "title": "must not land",
                "move_referents": {referent_id: {"lo": (0,), "hi": (1,)}},  # 1D referent
            },
        )
    with pytest.raises(AnnotationError):
        instance.update_annotation(
            "a1", {"move_referents": {referent_id: {}}}  # empty spec
        )
    assert instance.annotation("a1").content.dublin_core.title == "original title"
    assert instance.mutation_epoch == epoch
    assert instance.search_by_keyword("land") == []
    # wrong corner arity on a region referent
    (
        instance.new_annotation("r1", keywords=["rect"], body="region")
        .mark_region("img", (10, 10), (20, 20))
        .commit()
    )
    rect_id = instance.annotation("r1").referents[0].referent_id
    with pytest.raises(AnnotationError):
        instance.update_annotation(
            "r1", {"move_referents": {rect_id: {"lo": (1, 2, 3), "hi": (4, 5, 6)}}}
        )


def test_shared_referent_move_syncs_every_sharer(instance):
    """Moving a shared substructure moves it for every annotation marking it:
    each sharer's own referent copy, document and index postings follow."""
    from repro.xmlstore.text_index import InvertedIndex

    (
        instance.new_annotation("a2", keywords=["sharer"], body="shares the mark")
        .mark_sequence("seq1", 10, 40)
        .commit()
    )
    shared = instance.annotation("a1").referents[0].referent_id
    assert instance.annotation("a2").referents[0].referent_id == shared
    instance.update_annotation(
        "a2", {"move_referents": {shared: {"start": 700, "end": 750}}}
    )
    # both annotations report the moved extent (shared substructure refined)
    for annotation_id in ("a1", "a2"):
        referent = instance.annotation(annotation_id).referents[0]
        assert referent.ref.interval.start == 700
        assert referent.ref.interval.end == 750
        assert "700" in instance.contents.get(annotation_id).to_dict().__str__()
    assert sorted(instance.search_by_overlap_interval("upd:chr1", 690, 760)) == ["a1", "a2"]
    assert instance.search_by_overlap_interval("upd:chr1", 0, 50) == []
    # every document's postings equal a from-scratch rebuild
    live = instance.contents._index
    fresh = InvertedIndex()
    for doc_id in instance.contents.document_ids():
        fresh.add_document(
            doc_id, instance.contents._searchable_text(instance.contents.get(doc_id))
        )
    assert live._postings == fresh._postings
    report = instance.check_integrity()
    assert report.ok, report.errors


def test_a_mark_of_a_moved_referents_first_extent_gets_its_own_referent(tmp_path):
    """A marks seq[10, 20] and moves it to [30, 45]; B then marks seq[10, 20].
    B's key-derived id names A's moved referent, so B's mark is filed under
    the next free id with its own extent, and every later mark of [10, 20]
    (a commit, an added referent) shares B's.  WAL replay and a snapshot
    load file each mark where the live writes did."""
    from repro.core.persistence import encode_annotation
    from repro.net.codec import encode_query_result
    from repro.service import GraphittiService, ServiceConfig

    root = tmp_path / "svc"
    config = ServiceConfig(checkpoint_on_close=False)
    service = GraphittiService.open(root, config=config)
    service.register(DnaSequence("seq", "ACGT" * 100, domain="d:chr1"))
    service.new_annotation("A", keywords=["alpha"]).mark_sequence("seq", 10, 20).commit()
    moved = service.annotation("A").referents[0].referent_id
    service.update_annotation("A", {"move_referents": {moved: {"start": 30, "end": 45}}})
    service.new_annotation("B", keywords=["beta"]).mark_sequence("seq", 10, 20).commit()
    service.new_annotation("C", keywords=["gamma"]).mark_sequence("seq", 10, 20).commit()
    service.new_annotation("D", keywords=["delta"]).mark_sequence("seq", 60, 70).commit()
    added = Referent(service.manager.data_object("seq").mark(10, 20))
    service.update_annotation("D", {"add_referents": [added]})

    filed = service.annotation("B").referents[0].referent_id
    assert filed != moved
    assert service.annotation("C").referents[0].referent_id == filed
    assert [r.referent_id for r in service.annotation("D").referents][1] == filed
    assert service.manager.search_by_overlap_interval("d:chr1", 10, 20) == ["B", "C", "D"]
    assert service.manager.search_by_overlap_interval("d:chr1", 30, 45) == ["A"]
    service.manager._row_cache.clear()  # noqa: SLF001 - rows materialize from the columns
    interval = service.annotation("B").referents[0].ref.interval
    assert (interval.start, interval.end) == (10, 20)
    assert service.check_integrity().ok

    texts = [
        'SELECT contents WHERE { INTERVAL OVERLAPS d:chr1 [10, 20] }',
        'SELECT referents WHERE { INTERVAL OVERLAPS d:chr1 [0, 50] }',
        'SELECT referents WHERE { CONTENT CONTAINS "beta" }',
        'SELECT graph WHERE { CONTENT CONTAINS "delta" }',
    ]

    def pages(target) -> list:
        rows = [encode_annotation(target.annotation(name)) for name in "ABCD"]
        answers = []
        for text in texts:
            page = encode_query_result(target.query(text))
            page.pop("step_details")
            answers.append(page)
        return rows + answers

    live = pages(service)
    service.close()  # no closing checkpoint: recovery replays every write
    replayed = GraphittiService.recover(root, config=config)
    assert replayed.recovery_info["replayed"] > 0
    assert pages(replayed) == live
    replayed.checkpoint()
    replayed.close()
    rebuilt = GraphittiService.recover(root, config=config)  # the snapshot alone
    assert rebuilt.recovery_info["replayed"] == 0
    assert pages(rebuilt) == live
    rebuilt.close()


def test_update_unregistered_object_raises(instance):
    from repro.datatypes.base import DataType, SubstructureRef

    stray = Referent(ref=SubstructureRef("ghost", DataType.DNA))
    with pytest.raises(UnknownObjectError):
        instance.update_annotation("a1", {"add_referents": [stray]})


def test_update_cannot_strip_last_referent_without_terms(instance):
    referent_id = instance.annotation("a1").referents[0].referent_id
    with pytest.raises(AnnotationError):
        instance.update_annotation("a1", {"remove_referents": [referent_id]})
    # ...but swapping the last referent for an ontology pointer is fine
    instance.update_annotation(
        "a1",
        {"remove_referents": [referent_id], "ontology_terms": ["protein:protease"]},
    )
    assert instance.annotation("a1").referent_count == 0
    report = instance.check_integrity()
    assert report.ok, report.errors


def test_update_on_reloaded_snapshot(tmp_path, instance):
    from repro.core.persistence import load_instance, save_instance

    path = tmp_path / "inst.json"
    save_instance(instance, path)
    reloaded = load_instance(path)
    reloaded.update_annotation("a1", {"keywords": ["reloaded-edit"]})
    assert reloaded.search_by_keyword("reloaded-edit") == ["a1"]
    report = reloaded.check_integrity()
    assert report.ok, report.errors

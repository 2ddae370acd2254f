"""Delta index maintenance and lazy document regeneration in the xmlstore.

Covers the two new inverted-index paths (``update_document`` term diff,
``apply_text_delta`` exact part delta), the collection's in-place update
methods, and the deferred-indexing delete regression: a document committed
with ``defer_index=True`` and removed before ``flush_index()`` must never
resurrect ghost postings.
"""

import pytest

from repro.xmlstore.collection import DocumentCollection
from repro.xmlstore.parser import parse_xml
from repro.xmlstore.text_index import InvertedIndex


def _doc(text: str):
    return parse_xml(f"<note label='tagged'>{text}</note>")


def _rebuilt(collection: DocumentCollection) -> InvertedIndex:
    fresh = InvertedIndex()
    for doc_id in collection.document_ids():
        fresh.add_document(doc_id, collection._searchable_text(collection.get(doc_id)))
    return fresh


def assert_index_equals_rebuild(collection: DocumentCollection):
    live = collection._index
    fresh = _rebuilt(collection)
    assert live._postings == fresh._postings
    assert live._doc_lengths == fresh._doc_lengths
    assert {d: set(t) for d, t in live._doc_terms.items()} == {
        d: set(t) for d, t in fresh._doc_terms.items()
    }


# -- InvertedIndex.update_document (full-text term diff) -----------------------


def test_update_document_matches_full_reindex():
    index = InvertedIndex()
    index.add_document("d1", "alpha beta gamma alpha")
    touched, dropped = index.update_document("d1", "beta delta delta")
    assert dropped == 2  # alpha, gamma
    assert touched >= 1  # delta (new), beta unchanged
    reference = InvertedIndex()
    reference.add_document("d1", "beta delta delta")
    assert index._postings == reference._postings
    assert index._doc_lengths == reference._doc_lengths


def test_update_document_unindexed_falls_back_to_add():
    index = InvertedIndex()
    index.update_document("d1", "fresh words")
    assert index.document_frequency("fresh") == 1


def test_update_document_unchanged_text_touches_nothing():
    index = InvertedIndex()
    index.add_document("d1", "alpha beta")
    touched, dropped = index.update_document("d1", "alpha beta")
    assert (touched, dropped) == (0, 0)


# -- InvertedIndex.apply_text_delta (exact part delta) -------------------------


def test_apply_text_delta_equals_reindex():
    index = InvertedIndex()
    index.add_document("d1", "alpha beta title-old shared")
    index.apply_text_delta("d1", ["title-old"], ["title-new words"])
    reference = InvertedIndex()
    reference.add_document("d1", "alpha beta title-new words shared")
    assert index._postings == reference._postings
    assert index._doc_lengths == reference._doc_lengths


def test_apply_text_delta_requires_indexed_document():
    index = InvertedIndex()
    with pytest.raises(KeyError):
        index.apply_text_delta("ghost", ["a"], ["b"])


def test_apply_text_delta_floors_at_zero():
    index = InvertedIndex()
    index.add_document("d1", "alpha")
    # inexact caller: removes more than the document holds
    index.apply_text_delta("d1", ["alpha alpha alpha"], [])
    assert index.document_frequency("alpha") == 0
    assert index._doc_lengths["d1"] == 0


# -- DocumentCollection in-place updates ---------------------------------------


def test_collection_update_delta_is_lazy_and_exact():
    collection = DocumentCollection("lazy")
    collection.add(_doc("alpha beta"), doc_id="d1")
    collection.update_delta(
        "d1", lambda: _doc("alpha gamma"), removed_parts=["beta"], added_parts=["gamma"]
    )
    assert collection.stale_document_count == 1
    # index already reflects the edit, before any materialization
    assert collection._index.document_contains("d1", "gamma")
    assert not collection._index.document_contains("d1", "beta")
    # the first read materializes the new body
    assert "gamma" in collection.get("d1").text_content()
    assert collection.stale_document_count == 0
    assert collection.search_keyword("gamma") == ["d1"]
    assert collection.search_keyword("beta") == []
    assert_index_equals_rebuild(collection)


def test_collection_update_eager_delta():
    collection = DocumentCollection("eager")
    collection.add(_doc("alpha beta"), doc_id="d1")
    collection.update("d1", _doc("alpha delta"))
    assert collection.stale_document_count == 0
    assert collection.search_keyword("delta") == ["d1"]
    assert collection.search_keyword("beta") == []
    assert_index_equals_rebuild(collection)


def test_search_materializes_stale_candidates():
    collection = DocumentCollection("verify")
    collection.add(_doc("alpha beta"), doc_id="d1")
    collection.update_delta(
        "d1", lambda: _doc("alpha phrase match"), ["beta"], ["phrase match"]
    )
    # phrase verification must read the *new* body, not the stale one
    assert collection.search_keyword("phrase match") == ["d1"]


def test_save_and_corpus_materialize(tmp_path):
    collection = DocumentCollection("persist")
    collection.add(_doc("alpha"), doc_id="d1")
    collection.update_delta("d1", lambda: _doc("omega"), ["alpha"], ["omega"])
    reloaded = DocumentCollection.load(collection.save(tmp_path / "c.json"))
    assert "omega" in reloaded.get("d1").text_content()
    assert "omega" in collection.to_corpus_xml()


# -- deferred-indexing delete regression (ghost postings) ----------------------


def test_deferred_add_then_remove_leaves_no_ghost_postings():
    collection = DocumentCollection("ghosts")
    collection.add(_doc("phantom keyword"), doc_id="d1", defer_index=True)
    collection.add(_doc("surviving keyword"), doc_id="d2", defer_index=True)
    assert collection.pending_index_count == 2
    collection.remove("d1")  # deleted before the flush ever indexed it
    assert collection.pending_index_count == 1
    flushed = collection.flush_index()
    assert flushed == 1
    assert collection.search_keyword("phantom") == []
    assert collection._index.document_frequency("phantom") == 0
    assert collection.search_keyword("surviving") == ["d2"]
    assert_index_equals_rebuild(collection)


def test_deferred_update_then_flush_indexes_latest_body():
    collection = DocumentCollection("pending-update")
    collection.add(_doc("first draft"), doc_id="d1", defer_index=True)
    collection.update_delta("d1", lambda: _doc("second draft"), ["first"], ["second"])
    # still pending: the delta must NOT have touched the index
    assert collection.pending_index_count == 1
    collection.flush_index()
    assert collection.search_keyword("second") == ["d1"]
    assert collection.search_keyword("first") == []
    assert_index_equals_rebuild(collection)


def test_manager_bulk_commit_delete_flush_interleaving():
    """Satellite regression: bulk_commit (defer) -> delete -> flush."""
    from repro.core.manager import Graphitti
    from repro.datatypes import DnaSequence

    g = Graphitti("ghost-mgr")
    g.register(DnaSequence("seq", "ACGT" * 100, domain="g:1"))
    batch = [
        g.new_annotation(f"g{i}", keywords=["bulk", f"only{i}"], body=f"bulk body {i}")
        .mark_sequence("seq", i * 10, i * 10 + 5)
        .build()
        for i in range(4)
    ]
    g.commit_many(batch)  # deferred indexing
    assert g.contents.pending_index_count == 4
    g.delete_annotation("g2")
    # the flush (triggered by the first search) must not resurrect g2
    assert g.search_by_keyword("only2") == []
    assert g.search_by_keyword("bulk") == ["g0", "g1", "g3"]
    assert g.contents._index.document_frequency("only2") == 0
    report = g.check_integrity()
    assert report.ok, report.errors


# -- live-ingested and recovered documents search alike -------------------------

_BODIES = {
    "d1": "Alpha beta cleavage site",
    "d2": "beta gamma Binding pocket",
    "d3": "alpha gamma protease cleavage",
    "d4": "delta epsilon",
}
_PROBES = (
    "alpha", "BETA", "cleavage site", "gamma alpha", "tagged", "revised draft", "draft", "zeta", "epsilon",
)


def _twins():
    """The same corpus ingested live (``add``) and as recovery registers it
    (``add_lazy``: text only, tree on demand)."""
    live, recovered = DocumentCollection("live"), DocumentCollection("recovered")
    for doc_id, body in _BODIES.items():
        live.add(_doc(body), doc_id=doc_id)
        recovered.add_lazy(
            doc_id, DocumentCollection._searchable_text(_doc(body)), lambda body=body: _doc(body)
        )
    return live, recovered


def assert_twins_agree(live, recovered):
    assert live.document_ids() == recovered.document_ids()
    for probe in _PROBES:
        for mode in ("and", "or"):
            hits = live.search_keyword(probe, mode=mode)
            assert recovered.search_keyword(probe, mode=mode) == hits
            for doc_id in live.document_ids():
                member = doc_id in hits
                assert live.document_matches_keyword(doc_id, probe, mode=mode) == member
                assert recovered.document_matches_keyword(doc_id, probe, mode=mode) == member
        # ground truth: the index-free scan over the materialized bodies
        assert live.search_keyword(probe) == live.scan_keyword(probe)


def test_live_and_recovered_collections_search_alike_through_mutations():
    live, recovered = _twins()
    assert recovered.lazy_document_count == len(_BODIES)
    assert_twins_agree(live, recovered)
    # verification never built a recovered tree, and never needs to
    assert recovered.lazy_document_count == len(_BODIES) and live.lazy_document_count == 0
    for collection in (live, recovered):
        collection.update("d1", _doc("revised draft of alpha"))
    assert_twins_agree(live, recovered)
    for collection in (live, recovered):
        collection.update_delta(
            "d2", lambda: _doc("beta zeta Binding pocket"), ["gamma"], ["zeta"]
        )
    assert_twins_agree(live, recovered)
    for collection in (live, recovered):
        collection.remove("d3")
    assert_twins_agree(live, recovered)
    for collection in (live, recovered):
        collection.add(_doc("late zeta cleavage site"), doc_id="d5", defer_index=True)
        assert collection.pending_index_count == 1
    assert_twins_agree(live, recovered)  # the search flushed the deferred add
    for collection in (live, recovered):
        collection.add(_doc("never searched"), doc_id="d6", defer_index=True)
        collection.update("d6", _doc("epsilon after all"))  # edited while still pending
        assert collection.flush_index() == 1
    assert_twins_agree(live, recovered)
    assert_index_equals_rebuild(live)

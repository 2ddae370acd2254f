"""Delta index maintenance and lazy document regeneration in the xmlstore.

Covers the inverted index's one update path (``apply_text_delta``, an exact
text delta), the collection's in-place update (an edit hands over the new
text, re-posts only the changed span and re-parks the document), and the
parked-document delete regression: a document removed before any reader
built its tree must never leave ghost postings.  Also pinned: keyword
verification never renders a document, the index tokenizes the lower-cased
text verification reads, and concurrent readers see only current texts.
"""

import sys
import threading
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.xmlstore.collection import DocumentCollection
from repro.xmlstore.parser import parse_xml
from repro.xmlstore.text_index import InvertedIndex


def _doc(text: str):
    return parse_xml(f"<note label='tagged'>{text}</note>")


def _park(collection: DocumentCollection, doc_id: str, text: str) -> None:
    """Park ``_doc(text)`` as annotation documents are registered."""
    searchable = DocumentCollection._searchable_text(_doc(text))
    collection.add_lazy_many([(doc_id, searchable, lambda: _doc(text))])


def _update(collection: DocumentCollection, doc_id: str, text: str) -> None:
    """Edit a document to ``_doc(text)`` as the manager edits one."""
    searchable = DocumentCollection._searchable_text(_doc(text))
    collection.update(doc_id, lambda: _doc(text), searchable)


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


# -- InvertedIndex.apply_text_delta (exact part delta) -------------------------


def test_apply_text_delta_equals_reindex():
    index = InvertedIndex()
    index.add_document("d1", "alpha beta title-old shared")
    index.apply_text_delta("d1", ["title-old"], ["title-new words"])
    reference = InvertedIndex()
    reference.add_document("d1", "alpha beta title-new words shared")
    assert index._postings == reference._postings
    assert index._doc_lengths == reference._doc_lengths


def test_apply_text_delta_returns_old_and_new_terms():
    index = InvertedIndex()
    index.add_document("d1", "alpha beta-gamma")
    old, new = index.apply_text_delta("d1", ["beta-gamma"], ["delta"])
    assert set(old) == {"alpha", "beta-gamma", "beta", "gamma"}
    assert set(new) == {"alpha", "delta"} == set(index.document_terms("d1"))


def test_apply_text_delta_of_equal_parts_changes_nothing():
    index = InvertedIndex()
    index.add_document("d1", "alpha beta")
    postings = {term: dict(docs) for term, docs in index._postings.items()}
    old, new = index.apply_text_delta("d1", ["alpha"], ["alpha"])
    assert set(old) == set(new) == {"alpha", "beta"}
    assert index._postings == postings


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


def test_collection_update_is_lazy_and_exact():
    collection = DocumentCollection("lazy")
    collection.add(_doc("alpha beta"), doc_id="d1")
    _update(collection, "d1", "alpha gamma")
    assert collection.lazy_document_count == 1  # the edit re-parked it
    # index already reflects the edit, before any materialization
    assert collection._index.document_contains("d1", "gamma")
    assert not collection._index.document_contains("d1", "beta")
    # the first read materializes the new body
    assert "gamma" in collection.get("d1").text_content()
    assert collection.lazy_document_count == 0
    assert collection.search_keyword("gamma") == ["d1"]
    assert collection.search_keyword("beta") == []
    assert_index_equals_rebuild(collection)


def test_search_materializes_stale_candidates():
    collection = DocumentCollection("verify")
    collection.add(_doc("alpha beta"), doc_id="d1")
    _update(collection, "d1", "alpha phrase match")
    # phrase verification must read the *new* body, not the stale one
    assert collection.search_keyword("phrase match") == ["d1"]
    assert collection.search_keyword("alpha beta") == []


def test_save_and_corpus_materialize():
    collection = DocumentCollection("persist")
    collection.add(_doc("alpha"), doc_id="d1")
    _update(collection, "d1", "omega")
    corpus = collection.to_corpus_xml()
    assert "omega" in corpus
    reloaded = DocumentCollection.from_corpus_xml(corpus)
    assert "omega" in reloaded.get("d1").text_content()


# -- parked-document delete regression (ghost postings) -------------------------


def test_deferred_add_then_remove_leaves_no_ghost_postings():
    collection = DocumentCollection("ghosts")
    _park(collection, "d1", "phantom keyword")
    _park(collection, "d2", "surviving keyword")
    assert collection.lazy_document_count == 2
    collection.remove("d1")  # deleted before any reader built its tree
    assert collection.lazy_document_count == 1
    assert collection.search_keyword("phantom") == []
    assert collection._index.document_frequency("phantom") == 0
    assert collection.search_keyword("surviving") == ["d2"]
    assert_index_equals_rebuild(collection)


def test_parked_then_edited_serves_latest_body():
    """A parked document edited before any reader built it: the first
    search and the first read both see the latest body."""
    collection = DocumentCollection("pending-update")
    _park(collection, "d1", "first draft")
    _update(collection, "d1", "second draft")
    assert collection.lazy_document_count == 1
    assert collection.search_keyword("second") == ["d1"]
    assert collection.search_keyword("first") == []
    assert collection.get("d1").text_content() == "second draft"
    assert_index_equals_rebuild(collection)


def test_manager_bulk_commit_delete_flush_interleaving():
    """Regression: bulk commit (parked) -> delete -> search never finds the
    deleted document."""
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
    g.commit_many(batch)
    assert g.contents.lazy_document_count == 4
    assert g.contents.keyword_document_frequency("only2") == 1  # indexed at once
    g.delete_annotation("g2")
    assert g.search_by_keyword("only2") == []
    assert g.search_by_keyword("bulk") == ["g0", "g1", "g3"]
    assert g.contents._index.document_frequency("only2") == 0
    assert g.contents.lazy_document_count == 3
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
    """The same corpus stored as trees (``add``) and parked as annotation
    documents are registered (text only, tree on demand)."""
    live, recovered = DocumentCollection("live"), DocumentCollection("recovered")
    for doc_id, body in _BODIES.items():
        live.add(_doc(body), doc_id=doc_id)
        _park(recovered, doc_id, body)
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
        _update(collection, "d1", "revised draft of alpha")
    assert_twins_agree(live, recovered)
    for collection in (live, recovered):
        _update(collection, "d2", "beta zeta Binding pocket")
    assert_twins_agree(live, recovered)
    for collection in (live, recovered):
        collection.remove("d3")
    assert_twins_agree(live, recovered)
    for collection in (live, recovered):
        _park(collection, "d5", "late zeta cleavage site")
    assert_twins_agree(live, recovered)
    for collection in (live, recovered):
        _park(collection, "d6", "never searched")
        _update(collection, "d6", "epsilon after all")  # edited while still parked
    assert_twins_agree(live, recovered)
    assert_index_equals_rebuild(live)


# -- one cached lower-cased text per document version ---------------------------

_COUNTED_PROBES = ("tagged", "alpha", "cleavage site", "beta gamma", "zeta", "draft", "parked")


def _probe(collection, probes: int = 50) -> None:
    """*probes* keyword probes alternating the two verifying read paths."""
    for serial in range(probes):
        keyword = _COUNTED_PROBES[serial % len(_COUNTED_PROBES)]
        if serial % 2 == 0:
            collection.search_keyword(keyword)
        else:
            doc_ids = collection.document_ids()
            collection.document_matches_keyword(doc_ids[serial % len(doc_ids)], keyword)


def test_searchable_text_renders_once_per_document_version(monkeypatch):
    parked = {"p1": "parked alpha", "p2": "parked cleavage site"}
    parked_texts = {doc_id: DocumentCollection._searchable_text(_doc(body)) for doc_id, body in parked.items()}
    late_text = DocumentCollection._searchable_text(_doc("late draft"))
    renders: Counter = Counter()
    searchable_text = DocumentCollection._searchable_text

    def counting(document):
        renders[document.doc_id] += 1
        return searchable_text(document)

    monkeypatch.setattr(DocumentCollection, "_searchable_text", staticmethod(counting))
    collection = DocumentCollection("counted")
    for doc_id, body in _BODIES.items():
        collection.add(_doc(body), doc_id=doc_id)
    expected = Counter(dict.fromkeys(_BODIES, 1))  # a live add renders once
    _probe(collection)
    assert renders == expected

    collection.add_lazy_many([("d5", late_text, lambda: _doc("late draft"))])
    _probe(collection)
    assert renders == expected  # a parked text is verified, never rendered

    edits = {"d1": "revised draft of alpha", "d2": "beta zeta Binding pocket"}
    edited_texts = {doc_id: searchable_text(_doc(body)) for doc_id, body in edits.items()}
    for doc_id, body in edits.items():
        collection.update(doc_id, lambda body=body: _doc(body), edited_texts[doc_id])
        assert renders == expected  # the edit hands over its text: nothing renders
        _probe(collection)
        assert renders == expected  # and no verify after it renders either

    collection.add_lazy_many(
        (doc_id, parked_texts[doc_id], lambda body=body: _doc(body)) for doc_id, body in parked.items()
    )
    _probe(collection)
    assert renders == expected  # registered text is verified, never rendered
    assert collection.search_keyword("parked") == ["p1", "p2"]
    assert collection.search_keyword("zeta") == ["d2"]
    assert collection.lazy_document_count == len(parked) + 1 + len(edits)  # d5 and the edited


def _pages(result):
    from repro.net.codec import encode_query_result

    page = encode_query_result(result)
    return page["annotation_ids"], page["referents"], page["fragments"]


def test_concurrent_readers_cache_only_current_texts(tmp_path):
    """Eight readers verify under the shared lock of a service whose corpus
    is recovered (parked), live-ingested and edited in place; every page
    matches a single-threaded oracle, every kept text is the latest body's."""
    from repro.core.manager import Graphitti
    from repro.service.service import GraphittiService, ServiceConfig
    from repro.workloads import seed_churn_corpus
    from repro.workloads.churn_scenario import CHURN_KEYWORDS

    config = ServiceConfig(cache_capacity=0, checkpoint_on_close=False)
    service = GraphittiService.open(tmp_path, config=config)
    try:
        seed_churn_corpus(service, objects=3, annotations=90, tag="parked")
        service.checkpoint()
    finally:
        service.close()
    service = GraphittiService.recover(tmp_path, config=config)
    oracle = Graphitti("oracle")
    seed_churn_corpus(oracle, objects=3, annotations=90, tag="parked")
    edited = [f"churn-parked-{serial}" for serial in range(0, 90, 7)]
    edited += [f"churn-live-{serial}" for serial in range(0, 60, 5)]
    for target in (service, oracle):
        seed_churn_corpus(target, objects=2, annotations=60, domain="churn:live", seed=17, tag="live")
        for serial, annotation_id in enumerate(edited):
            word = CHURN_KEYWORDS[serial % len(CHURN_KEYWORDS)]
            target.update_annotation(
                annotation_id, {"title": f"edited {annotation_id}", "keywords": ["edited", word]}
            )
    contents = service.manager.contents
    # Recovered, live-ingested and edited documents alike are parked.
    assert contents.lazy_document_count == 90 + 60
    keywords = ("churn", "edited", "edited churn", "initial mark", "mark 7 on", "curator-1", *CHURN_KEYWORDS)
    texts = [f'SELECT contents WHERE {{ CONTENT CONTAINS "{keyword}" }}' for keyword in keywords]
    texts.append('SELECT referents WHERE { CONTENT CONTAINS "churn" CONTENT CONTAINS "edited" }')
    expected = {text: _pages(oracle.query(text)) for text in texts}
    failures: list[str] = []
    start = threading.Barrier(8)

    def reader(offset: int) -> None:
        try:
            start.wait(timeout=30)
            for index in range(len(texts)):  # every thread a different rotation
                text = texts[(index + offset) % len(texts)]
                if _pages(service.query(text)) != expected[text]:
                    failures.append(text)
        except Exception as error:  # noqa: BLE001 - reported below, on the main thread
            failures.append(repr(error))

    threads = [threading.Thread(target=reader, args=(offset,)) for offset in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
        alive = [thread for thread in threads if thread.is_alive()]
    try:
        assert not alive
        assert failures == []
        assert set(contents._text) == set(contents.document_ids())
        for doc_id, text in contents._text.items():
            assert text == DocumentCollection._searchable_text(contents.get(doc_id)).lower(), doc_id
    finally:
        service.close()


# -- the index tokenizes the text verification reads ------------------------------


def test_a_character_lower_casing_to_ascii_is_indexed_as_verified():
    """The Kelvin sign lower-cases to ASCII ``k``: index and verify must both
    read ``kelvin``, on every path a text enters by."""
    kelvin = "\u212aelvin scale"
    collection = DocumentCollection("kelvin")
    collection.add(_doc(kelvin), doc_id="d1")
    _park(collection, "d2", kelvin)
    collection.add(_doc("celsius"), doc_id="d3")
    _update(collection, "d3", kelvin)
    assert collection.search_keyword("kelvin") == collection.scan_keyword("kelvin") == ["d1", "d2", "d3"]
    assert collection.search_keyword(kelvin) == ["d1", "d2", "d3"]
    assert all(collection.document_matches_keyword(doc_id, "kelvin") for doc_id in ("d1", "d2", "d3"))
    assert_index_equals_rebuild(collection)


_PIECES = st.sampled_from(
    ["alpha", "Beta", "gamma-ray", "x_y", "v1.2", "...", "-_-", "_.", "--a", "9", "the", "of", "and",
     "\u212aelvin", "\u0130stanbul", "caf\u00e9", "\u00df", "na\u00efve", "", " ", "\n", "<", "=", "\u00a0"]
)
_TEXTS = st.lists(_PIECES, max_size=12).map("".join) | st.lists(_PIECES, max_size=12).map(" ".join)


@settings(max_examples=300, deadline=None)
@given(old=_TEXTS, new=_TEXTS)
def test_an_update_leaves_the_index_a_fresh_index_of_the_new_text(old, new):
    collection = DocumentCollection("span")
    collection.add_lazy_many([("d1", old, lambda: _doc(old))])
    old_terms, new_terms = collection.update("d1", lambda: _doc(new), new)
    fresh = InvertedIndex()
    fresh.add_document("d1", new.lower())
    live = collection._index
    assert live._postings == fresh._postings
    assert live._doc_lengths == fresh._doc_lengths
    assert set(new_terms) == set(live.document_terms("d1")) == set(fresh.document_terms("d1"))
    assert collection.text("d1") == new.lower()

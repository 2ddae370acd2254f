"""Tests for the document collection, keyword index, and FLWOR queries."""

import pytest

from repro.errors import XmlStoreError
from repro.xmlstore.collection import DocumentCollection
from repro.xmlstore.text_index import InvertedIndex, tokenize


def make_collection():
    collection = DocumentCollection("test")
    collection.add_xml(
        "<annotation><dc:subject>protease</dc:subject><body>cleavage site of protein.TP53</body></annotation>",
        doc_id="a1",
    )
    collection.add_xml(
        "<annotation><dc:subject>kinase</dc:subject><body>phosphorylation</body></annotation>",
        doc_id="a2",
    )
    collection.add_xml(
        "<annotation><dc:subject>protease</dc:subject><body>another protease comment</body></annotation>",
        doc_id="a3",
    )
    return collection


def test_add_and_get():
    collection = make_collection()
    assert len(collection) == 3
    assert "a1" in collection
    assert collection.get("a1").root.tag == "annotation"


def test_duplicate_id():
    collection = make_collection()
    with pytest.raises(XmlStoreError):
        collection.add_xml("<a/>", doc_id="a1")


def test_generated_ids():
    collection = DocumentCollection("c")
    first = collection.add_xml("<a/>")
    second = collection.add_xml("<a/>")
    assert first != second


def test_keyword_search_indexed():
    collection = make_collection()
    assert collection.search_keyword("protease") == ["a1", "a3"]
    assert collection.search_keyword("kinase") == ["a2"]


def test_scan_keyword():
    collection = make_collection()
    assert collection.scan_keyword("protease") == ["a1", "a3"]


def test_keyword_search_dotted_term():
    collection = make_collection()
    # protein.TP53 should be findable by its parts too
    assert "a1" in collection.search_keyword("TP53")


def test_remove_updates_index():
    collection = make_collection()
    collection.remove("a1")
    assert collection.search_keyword("protease") == ["a3"]
    assert "a1" not in collection


def test_replace():
    collection = make_collection()
    from repro.xmlstore.parser import parse_xml

    replacement = "<annotation><body>protease now</body></annotation>"
    text = DocumentCollection._searchable_text(parse_xml(replacement))
    collection.update("a2", lambda: parse_xml(replacement), text)
    assert "a2" in collection.search_keyword("protease")
    assert collection.search_keyword("kinase") == []


def test_select_xpath():
    collection = make_collection()
    results = collection.select("//dc:subject")
    assert len(results) == 3


def test_fragments():
    collection = make_collection()
    fragments = collection.fragments("//body")
    assert len(fragments) == 3


def test_flwor_query():
    collection = make_collection()
    results = (
        collection.query()
        .for_each("//annotation")
        .where_contains("protease")
        .select(lambda binding: binding.document.doc_id)
        .execute()
    )
    assert set(results) == {"a1", "a3"}


def test_flwor_where_path_equals():
    collection = make_collection()
    results = (
        collection.query()
        .for_each("//annotation")
        .where_path_equals("dc:subject", "kinase")
        .select(lambda binding: binding.document.doc_id)
        .execute()
    )
    assert results == ["a2"]


def test_export_xml():
    collection = make_collection()
    xml = collection.export_xml("a1")
    assert "protease" in xml


# -- inverted index ---------------------------------------------------------


def test_tokenize_drops_stopwords():
    tokens = tokenize("the protease and the kinase")
    assert "the" not in tokens
    assert "protease" in tokens


def test_inverted_index_basic():
    index = InvertedIndex()
    index.add_document("d1", "protease cleavage")
    index.add_document("d2", "kinase activity")
    assert index.search("protease") == {"d1"}
    assert index.search("protease kinase", mode="or") == {"d1", "d2"}
    assert index.search("protease kinase", mode="and") == set()


def test_inverted_index_reindex():
    index = InvertedIndex()
    index.add_document("d1", "protease")
    index.add_document("d1", "kinase")  # re-index replaces
    assert index.search("protease") == set()
    assert index.search("kinase") == {"d1"}


def test_inverted_index_document_frequency():
    index = InvertedIndex()
    index.add_document("d1", "protease protease")
    index.add_document("d2", "protease")
    assert index.document_frequency("protease") == 2
    assert index.term_frequency("protease", "d1") == 2


def test_inverted_index_vocabulary():
    index = InvertedIndex()
    index.add_document("d1", "alpha beta gamma")
    assert index.vocabulary_size >= 3


def _park(collection, doc_id, xml):
    """Park *xml* as annotation documents are registered: text, no tree."""
    from repro.xmlstore.parser import parse_xml

    text = DocumentCollection._searchable_text(parse_xml(xml))
    collection.add_lazy_many([(doc_id, text, lambda: parse_xml(xml))])


def test_a_parked_document_is_searchable_before_its_tree_exists():
    collection = make_collection()
    _park(collection, "d1", "<annotation><body>parked protease</body></annotation>")
    assert collection.lazy_document_count == 1
    assert collection.keyword_document_frequency("parked") == 1
    assert collection.search_keyword("parked protease") == ["d1"]
    assert collection.lazy_document_count == 1  # verified from the text
    assert collection.get("d1").root.find("body").text == "parked protease"
    assert collection.lazy_document_count == 0


def test_deferred_then_removed_never_indexed():
    collection = make_collection()
    _park(collection, "d1", "<annotation><body>ephemeral marker</body></annotation>")
    collection.remove("d1")
    assert collection.lazy_document_count == 0
    assert collection.search_keyword("ephemeral") == []
    assert collection.keyword_document_frequency("ephemeral") == 0


def test_deferred_then_replaced_indexes_new_text():
    collection = make_collection()
    from repro.xmlstore.parser import parse_xml

    _park(collection, "d1", "<annotation><body>first text</body></annotation>")
    replacement = "<annotation><body>second text</body></annotation>"
    text = DocumentCollection._searchable_text(parse_xml(replacement))
    collection.update("d1", lambda: parse_xml(replacement), text)
    assert collection.lazy_document_count == 1  # re-parked with the new body
    assert collection.search_keyword("second") == ["d1"]
    assert collection.search_keyword("first") == []


def test_two_readers_of_a_parked_document_get_the_first_published_tree():
    """The reader that started building first but finished last returns
    the tree the other reader published, and leaves it published: a page
    must never keep a tree the collection no longer holds."""
    import threading

    from repro.xmlstore.parser import parse_xml

    xml = "<annotation><body>raced</body></annotation>"
    collection = make_collection()
    collection.add_lazy_many([("d1", "raced", lambda: build())])
    first_is_building, second_published = threading.Event(), threading.Event()
    builds = []

    def build():
        builds.append(len(builds))
        if len(builds) == 1:  # the first reader stalls inside its build
            first_is_building.set()
            assert second_published.wait(10.0)
        return parse_xml(xml)

    got = {}
    first = threading.Thread(target=lambda: got.setdefault("first", collection.get("d1")))
    first.start()
    assert first_is_building.wait(10.0)
    got["second"] = collection.get("d1")
    second_published.set()
    first.join(10.0)
    assert not first.is_alive() and len(builds) == 2
    assert got["first"] is got["second"] is collection.get("d1")
    assert collection.lazy_document_count == 0

"""Tests for the XML document model."""

import pytest

from repro.errors import XmlStoreError
from repro.xmlstore.document import XmlDocument, XmlElement


def test_element_requires_tag():
    with pytest.raises(XmlStoreError):
        XmlElement("")


def test_add_child_and_find():
    root = XmlElement("root")
    child = root.add("child", text="hi")
    assert root.find("child") is child
    assert root.find("missing") is None
    assert root.child_text("child") == "hi"


def test_append_detects_existing_parent():
    root = XmlElement("root")
    child = XmlElement("child")
    root.append(child)
    other = XmlElement("other")
    with pytest.raises(XmlStoreError):
        other.append(child)


def test_remove_child():
    root = XmlElement("root")
    child = root.add("child")
    root.remove(child)
    assert root.find("child") is None
    assert child.parent is None


def test_remove_non_child():
    root = XmlElement("root")
    stranger = XmlElement("stranger")
    with pytest.raises(XmlStoreError):
        root.remove(stranger)


def test_find_all():
    root = XmlElement("root")
    root.add("x", text="1")
    root.add("x", text="2")
    root.add("y")
    assert len(root.find_all("x")) == 2


def test_iter_depth_first():
    root = XmlElement("a")
    b = root.add("b")
    b.add("c")
    root.add("d")
    tags = [element.tag for element in root.iter()]
    assert tags == ["a", "b", "c", "d"]


def test_descendants_filtered():
    root = XmlElement("root")
    root.add("keyword", text="x")
    sub = root.add("sub")
    sub.add("keyword", text="y")
    keywords = list(root.descendants("keyword"))
    assert len(keywords) == 2


def test_ancestors_and_root():
    root = XmlElement("root")
    mid = root.add("mid")
    leaf = mid.add("leaf")
    assert [a.tag for a in leaf.ancestors()] == ["mid", "root"]
    assert leaf.root() is root


def test_path():
    root = XmlElement("annotation")
    ref = root.add("referents").add("referent")
    assert ref.path() == "/annotation/referents/referent"


def test_text_content_recursive():
    root = XmlElement("root", text="a")
    child = root.add("child", text="b")
    child.add("grand", text="c")
    assert root.text_content() == "a b c"


def test_attributes():
    element = XmlElement("e", attributes={"k": "v"})
    assert element.get("k") == "v"
    assert element.get("missing", "default") == "default"
    element.set("n", 5)
    assert element.get("n") == "5"


def test_equals():
    a = XmlElement("x", attributes={"k": "v"}, text="hi")
    b = XmlElement("x", attributes={"k": "v"}, text="hi")
    assert a.equals(b)
    b.set("k", "other")
    assert not a.equals(b)


def test_copy_is_deep():
    root = XmlElement("root")
    root.add("child", text="x")
    clone = root.copy()
    clone.find("child").text = "mutated"
    assert root.find("child").text == "x"
    assert clone.parent is None


def test_element_roundtrip_dict():
    root = XmlElement("root", attributes={"id": "1"})
    root.add("child", text="x")
    restored = XmlElement.from_dict(root.to_dict())
    assert restored.equals(root)


def test_document_helpers():
    root = XmlElement("doc")
    root.add("item", text="one")
    root.add("item", text="two")
    document = XmlDocument(root, doc_id="d1")
    assert document.element_count() == 3
    assert len(document.find_elements("item")) == 2
    assert "one" in document.text_content()


def test_document_roundtrip_dict():
    root = XmlElement("doc")
    root.add("item", text="one")
    document = XmlDocument(root, doc_id="d1")
    restored = XmlDocument.from_dict(document.to_dict())
    assert restored.doc_id == "d1"
    assert restored.root.equals(root)


def _sample_document(doc_id="d1"):
    root = XmlElement("annotation", attributes={"id": doc_id, "lang": "en"})
    metadata = root.add("metadata")
    metadata.add("dc:title", text="A title")
    root.add("body", text="free text, with \"quotes\" and é")
    referents = root.add("referents")
    referent = referents.add("referent", id="r1", object="obj")
    referent.add("interval", start="5", end="40", domain="chr1")
    referents.add("referent", id="r2", object="obj")
    return XmlDocument(root, doc_id=doc_id)


def test_document_roundtrip_rows_through_json():
    import json

    document = _sample_document()
    restored = XmlDocument.from_rows(json.loads(json.dumps(document.to_rows())))
    assert restored.to_dict() == document.to_dict()
    assert json.dumps(restored.to_dict()) == json.dumps(document.to_dict())  # same key order
    for element in restored.iter():
        for child in element:
            assert child.parent is element
    assert restored.root.parent is None
    assert restored.root.find("referents").children[0].path() == "/annotation/referents/referent"
    assert XmlDocument.from_rows([None, ["x", {}, "", []]]).doc_id is None


def test_to_rows_shares_nothing_mutable_with_the_tree():
    document = _sample_document()
    rows = document.to_rows()
    rows[1][1]["id"] = "changed"
    assert document.root.get("id") == "d1"


def test_from_rows_adopts_the_rows_it_is_handed():
    rows = ["d", ["root", {"k": "v"}, "", [["leaf", {}, "t", []]]]]
    document = XmlDocument.from_rows(rows)
    assert document.root.attributes is rows[1][1]
    leaf = document.root.find("leaf")
    assert leaf.text == "t" and leaf.parent is document.root
    document.root.add("more")  # a built tree is an ordinary, mutable tree
    assert [child.tag for child in document.root] == ["leaf", "more"]


@pytest.mark.parametrize(
    "rows",
    [
        None,
        {},
        ["d"],
        ["d", ["root", {}, ""]],
        [3, ["root", {}, "", []]],
        ["d", ["", {}, "", []]],
        ["d", [7, {}, "", []]],
        ["d", ["root", [], "", []]],
        ["d", ["root", {}, None, []]],
        ["d", ["root", {}, "", {}]],
        ["d", ["root", {}, "", [["child", {}, ""]]]],
        ["d", ["root", {}, "", [["child", {}, "", "not a list"]]]],
        ["d", ["root", {}, "", ["child"]]],
        ["d", {"tag": "root", "attributes": {}, "text": "", "children": []}],
    ],
)
def test_from_rows_refuses_malformed_rows(rows):
    with pytest.raises(XmlStoreError):
        XmlDocument.from_rows(rows)

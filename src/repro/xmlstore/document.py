"""Lightweight XML element/document model.

Annotation contents in Graphitti are XML documents combining Dublin Core
elements with user-defined tags.  This module provides a small tree model
(:class:`XmlElement`, :class:`XmlDocument`) that is independent of
:mod:`xml.etree` so the XPath-subset evaluator and the FLWOR engine can walk
parent links, document order, and text content without adapters.
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping

from repro.errors import XmlStoreError


class XmlElement:
    """One XML element: tag, attributes, text, and ordered children.

    Elements keep a reference to their parent so upward navigation (``..`` in
    XPath, ancestor checks in the query layer) is O(1).
    """

    __slots__ = ("tag", "attributes", "text", "_children", "parent")

    def __init__(
        self,
        tag: str,
        attributes: Mapping[str, str] | None = None,
        text: str = "",
    ):
        if not tag or not isinstance(tag, str):
            raise XmlStoreError("element tag must be a non-empty string")
        self.tag = tag
        self.attributes: dict[str, str] = dict(attributes or {})
        self.text = text
        self._children: list["XmlElement"] = []
        self.parent: "XmlElement | None" = None

    # -- tree construction --------------------------------------------------

    def append(self, child: "XmlElement") -> "XmlElement":
        """Append *child* and return it (for chaining)."""
        if child.parent is not None:
            raise XmlStoreError(f"element <{child.tag}> already has a parent")
        child.parent = self
        self._children.append(child)
        return child

    def add(self, tag: str, text: str = "", **attributes: str) -> "XmlElement":
        """Create a child element and return it."""
        child = XmlElement(tag, attributes={k: str(v) for k, v in attributes.items()}, text=text)
        return self.append(child)

    def remove(self, child: "XmlElement") -> None:
        """Remove a direct child."""
        try:
            self._children.remove(child)
        except ValueError:
            raise XmlStoreError(f"<{child.tag}> is not a child of <{self.tag}>") from None
        child.parent = None

    # -- navigation -----------------------------------------------------------

    @property
    def children(self) -> tuple["XmlElement", ...]:
        """Direct child elements, in document order."""
        return tuple(self._children)

    def __iter__(self) -> Iterator["XmlElement"]:
        return iter(self._children)

    def __len__(self) -> int:
        return len(self._children)

    def iter(self) -> Iterator["XmlElement"]:
        """Depth-first iteration over this element and all descendants."""
        yield self
        for child in self._children:
            yield from child.iter()

    def find(self, tag: str) -> "XmlElement | None":
        """First direct child with the given tag, or ``None``."""
        for child in self._children:
            if child.tag == tag:
                return child
        return None

    def find_all(self, tag: str) -> list["XmlElement"]:
        """All direct children with the given tag."""
        return [child for child in self._children if child.tag == tag]

    def descendants(self, tag: str | None = None) -> Iterator["XmlElement"]:
        """All descendants (excluding self), optionally filtered by tag."""
        for child in self._children:
            if tag is None or child.tag == tag:
                yield child
            yield from child.descendants(tag)

    def ancestors(self) -> Iterator["XmlElement"]:
        """All ancestors, nearest first."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def root(self) -> "XmlElement":
        """The topmost ancestor (self when unattached)."""
        node = self
        while node.parent is not None:
            node = node.parent
        return node

    def path(self) -> str:
        """Slash-separated tag path from the root to this element."""
        tags = [self.tag]
        tags.extend(ancestor.tag for ancestor in self.ancestors())
        return "/" + "/".join(reversed(tags))

    # -- content ----------------------------------------------------------------

    def get(self, attribute: str, default: str | None = None) -> str | None:
        """Attribute value or *default*."""
        return self.attributes.get(attribute, default)

    def set(self, attribute: str, value: Any) -> None:
        """Set an attribute (values are stringified)."""
        self.attributes[attribute] = str(value)

    def text_content(self) -> str:
        """Concatenated text of this element and every descendant."""
        parts = [self.text] if self.text else []
        for child in self._children:
            content = child.text_content()
            if content:
                parts.append(content)
        return " ".join(parts)

    def child_text(self, tag: str, default: str = "") -> str:
        """Text of the first direct child with *tag* (or *default*)."""
        child = self.find(tag)
        return child.text if child is not None else default

    # -- comparison / serialization ------------------------------------------------

    def equals(self, other: "XmlElement") -> bool:
        """Deep structural equality (tag, attributes, text, children)."""
        if self.tag != other.tag or self.attributes != other.attributes:
            return False
        if (self.text or "").strip() != (other.text or "").strip():
            return False
        if len(self._children) != len(other._children):
            return False
        return all(mine.equals(theirs) for mine, theirs in zip(self._children, other._children))

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible representation of the subtree."""
        return {
            "tag": self.tag,
            "attributes": dict(self.attributes),
            "text": self.text,
            "children": [child.to_dict() for child in self._children],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "XmlElement":
        """Reconstruct a subtree from :meth:`to_dict` output."""
        element = cls(payload["tag"], attributes=payload.get("attributes", {}), text=payload.get("text", ""))
        for child_payload in payload.get("children", []):
            element.append(cls.from_dict(child_payload))
        return element

    def to_rows(self) -> list[Any]:
        """The subtree as nested rows: ``[tag, attributes, text, [child rows...]]``.

        The compact twin of :meth:`to_dict`: positions instead of keys, so
        its JSON text is shorter and :meth:`XmlDocument.from_rows` unpacks
        it without a key lookup.
        """
        return [self.tag, dict(self.attributes), self.text, [child.to_rows() for child in self._children]]

    def copy(self) -> "XmlElement":
        """Deep copy of the subtree (detached from any parent)."""
        clone = XmlElement(self.tag, attributes=dict(self.attributes), text=self.text)
        for child in self._children:
            clone.append(child.copy())
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<XmlElement {self.tag} attrs={len(self.attributes)} children={len(self._children)}>"


def _element_from_row(row: Any, parent: XmlElement | None) -> XmlElement:
    """One element of :meth:`XmlDocument.from_rows`, with its subtree."""
    if type(row) is not list or len(row) != 4:
        raise XmlStoreError(f"element row must be a list of 4 items, got {row!r:.80}")
    tag, attributes, text, children = row
    if (
        type(tag) is not str
        or not tag
        or type(attributes) is not dict
        or type(text) is not str
        or type(children) is not list
    ):
        raise XmlStoreError(f"element row must be [str, dict, str, list], got {row!r:.80}")
    element = XmlElement.__new__(XmlElement)
    element.tag = tag
    element.attributes = attributes
    element.text = text
    element.parent = parent
    element._children = [_element_from_row(child, element) for child in children]
    return element


class XmlDocument:
    """An XML document: a root element plus a document identifier."""

    def __init__(self, root: XmlElement, doc_id: str | None = None):
        self.root = root
        self.doc_id = doc_id

    def iter(self) -> Iterator[XmlElement]:
        """Depth-first iteration over every element."""
        return self.root.iter()

    def text_content(self) -> str:
        """Concatenated text of the whole document."""
        return self.root.text_content()

    def find_elements(self, tag: str) -> list[XmlElement]:
        """Every element (at any depth) with the given tag."""
        return [element for element in self.root.iter() if element.tag == tag]

    def element_count(self) -> int:
        """Number of elements in the document."""
        return sum(1 for _ in self.root.iter())

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible representation."""
        return {"doc_id": self.doc_id, "root": self.root.to_dict()}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "XmlDocument":
        """Reconstruct from :meth:`to_dict` output."""
        return cls(root=XmlElement.from_dict(payload["root"]), doc_id=payload.get("doc_id"))

    def to_rows(self) -> list[Any]:
        """The document as ``[doc_id, root row]`` (see :meth:`XmlElement.to_rows`).

        The network codec's form for a document; :meth:`to_dict` stays the
        disk form.
        """
        return [self.doc_id, self.root.to_rows()]

    @classmethod
    def from_rows(cls, rows: Any) -> "XmlDocument":
        """Rebuild a document from :meth:`to_rows` output (e.g. fresh ``json.loads``).

        Each element's slots and ``parent`` link are set directly — no
        ``XmlElement.__init__``, no ``append`` — and its attributes dict is
        adopted, not copied, so the caller hands *rows* over.  Raises
        :class:`XmlStoreError` unless *rows* is ``[doc_id, root row]`` with a
        ``str`` or ``None`` doc id and every element row is
        ``[str, dict, str, list]`` with a non-empty tag.
        """
        if type(rows) is not list or len(rows) != 2:
            raise XmlStoreError(f"document rows must be [doc_id, root row], got {rows!r:.80}")
        doc_id, root = rows
        if doc_id is not None and type(doc_id) is not str:
            raise XmlStoreError(f"document id must be a string or null, got {doc_id!r:.80}")
        return cls(_element_from_row(root, None), doc_id=doc_id)

    def copy(self) -> "XmlDocument":
        """Deep copy of the document."""
        return XmlDocument(self.root.copy(), doc_id=self.doc_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<XmlDocument {self.doc_id or '?'} root={self.root.tag}>"

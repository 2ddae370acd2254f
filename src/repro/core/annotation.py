"""The annotation model: content, referents, and the linker object.

"We consider an annotation as a linker object that connects the annotation
content (i.e., the comment itself) to one or more annotation referents (i.e.,
the object fragments that are marked for annotation)."

* :class:`AnnotationContent` wraps the XML comment document plus its Dublin
  Core metadata and any ontology references the *content* itself points at.
* :class:`Referent` wraps one marked substructure
  (:class:`~repro.datatypes.base.SubstructureRef`) plus the ontology terms
  that referent points at.
* :class:`Annotation` is the linker object: a content id, its referents, and
  helpers to render the whole thing as one XML document (for commit to the
  annotation store and for the "view it as an XML-structured object" step in
  the paper's annotation tab).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.agraph.agraph import ANNOTATES, REFERS_TO, SAME_OBJECT, NodeKind
from repro.core.dublin_core import DublinCore
from repro.datatypes.base import SubstructureRef
from repro.errors import AnnotationError
from repro.xmlstore.document import XmlDocument, XmlElement

#: Descriptor keys a referent renders, as ``descriptor`` elements.
RENDERED_DESCRIPTORS = frozenset({"residues", "block", "leaves", "nodes", "edges", "row_keys"})


def rect_corners(rect) -> tuple[str, str]:
    """The rendered ``lo`` / ``hi`` attribute strings of a region."""
    return (
        ",".join(str(value) for value in rect.lo),
        ",".join(str(value) for value in rect.hi),
    )


@dataclass
class Referent:
    """One annotation referent: a marked substructure + ontology pointers."""

    ref: SubstructureRef
    ontology_terms: list[str] = field(default_factory=list)
    referent_id: str | None = None

    def __post_init__(self) -> None:
        if self.referent_id is None:
            self.referent_id = self.ref.key()

    def point_to(self, term_id: str) -> None:
        """Make this referent point at an ontology term."""
        if term_id not in self.ontology_terms:
            self.ontology_terms.append(term_id)

    def to_element(self) -> XmlElement:
        """Render the referent as a ``referent`` XML element."""
        element = XmlElement(
            "referent",
            attributes={
                "id": self.referent_id or "",
                "object": self.ref.object_id,
                "type": self.ref.data_type.value,
            },
        )
        if self.ref.label:
            element.set("label", self.ref.label)
        if self.ref.interval is not None:
            element.add(
                "interval",
                start=str(self.ref.interval.start),
                end=str(self.ref.interval.end),
                domain=str(self.ref.interval.domain or ""),
            )
        if self.ref.rect is not None:
            lo, hi = rect_corners(self.ref.rect)
            element.add("region", lo=lo, hi=hi, space=str(self.ref.rect.space or ""))
        for key, value in sorted(self.ref.descriptor.items()):
            if key in RENDERED_DESCRIPTORS:
                element.add("descriptor", text=str(value), key=key)
        for term in self.ontology_terms:
            element.add("ontology-ref", term=term)
        return element

    def searchable_parts(self) -> tuple[list[str], list[str]]:
        """What :meth:`to_element` makes searchable, without building it:
        ``(truthy texts, attribute values)``, each in document order."""
        ref = self.ref
        texts: list[str] = []
        attributes = [self.referent_id or "", ref.object_id, ref.data_type.value]
        if ref.label:
            attributes.append(str(ref.label))
        if ref.interval is not None:
            interval = ref.interval
            attributes += (str(interval.start), str(interval.end), str(interval.domain or ""))
        if ref.rect is not None:
            attributes += (*rect_corners(ref.rect), str(ref.rect.space or ""))
        for key, value in sorted(ref.descriptor.items()):
            if key in RENDERED_DESCRIPTORS:
                text = str(value)
                if text:
                    texts.append(text)
                attributes.append(key)
        attributes.extend(str(term) for term in self.ontology_terms)
        return texts, attributes


@dataclass
class AnnotationContent:
    """The annotation content: metadata, free-text body, ontology pointers."""

    dublin_core: DublinCore
    body: str = ""
    ontology_terms: list[str] = field(default_factory=list)
    user_tags: dict[str, str] = field(default_factory=dict)

    def add_keyword(self, keyword: str) -> None:
        """Add a Dublin Core subject keyword."""
        if keyword not in self.dublin_core.subject:
            self.dublin_core.subject.append(keyword)

    def point_to(self, term_id: str) -> None:
        """Make the content itself point at an ontology term."""
        if term_id not in self.ontology_terms:
            self.ontology_terms.append(term_id)

    def keywords(self) -> list[str]:
        """Subject keywords from the Dublin Core metadata."""
        return self.dublin_core.keywords()

    def text(self) -> str:
        """All searchable text of the content (body + keywords + description)."""
        parts = [self.body, self.dublin_core.description, self.dublin_core.title]
        parts.extend(self.dublin_core.subject)
        parts.extend(self.user_tags.values())
        return " ".join(part for part in parts if part)


class Annotation:
    """The linker object connecting one content to one or more referents."""

    def __init__(self, annotation_id: str, content: AnnotationContent):
        if not annotation_id:
            raise AnnotationError("annotation id must be non-empty")
        self.annotation_id = annotation_id
        self.content = content
        self._referents: list[Referent] = []

    @property
    def referents(self) -> tuple[Referent, ...]:
        """The annotation's referents, in attach order."""
        return tuple(self._referents)

    @property
    def referent_count(self) -> int:
        """Number of referents."""
        return len(self._referents)

    def add_referent(self, ref: SubstructureRef, ontology_terms: Iterable[str] = ()) -> Referent:
        """Attach a marked substructure as a referent (the drag-to-commit step)."""
        referent = Referent(ref=ref, ontology_terms=list(ontology_terms))
        self._referents.append(referent)
        return referent

    def referent_ids(self) -> list[str]:
        """Stable ids of every referent."""
        return [referent.referent_id for referent in self._referents if referent.referent_id]

    def ontology_terms(self) -> set[str]:
        """Every ontology term pointed at by the content or any referent."""
        terms = set(self.content.ontology_terms)
        for referent in self._referents:
            terms.update(referent.ontology_terms)
        return terms

    def object_ids(self) -> set[str]:
        """Ids of every data object this annotation touches."""
        return {referent.ref.object_id for referent in self._referents}

    def agraph_edges(self) -> list[tuple[str, str, str]]:
        """The a-graph edges this annotation contributes, as
        ``(label, source, target)`` in wiring order.

        Per referent: its ``annotates`` edge, its ``refers_to`` terms, then a
        ``same_object`` edge to each earlier referent of the same object;
        then the content's ``refers_to`` terms.  The live a-graph's edge
        multiset is the sum of this list over the live annotations.
        """
        annotation_id = self.annotation_id
        edges = []
        earlier: dict[str, list[str]] = {}
        for referent in self._referents:
            referent_id = referent.referent_id
            edges.append((ANNOTATES, annotation_id, referent_id))
            edges.extend((REFERS_TO, referent_id, term) for term in referent.ontology_terms)
            same_object = earlier.setdefault(referent.ref.object_id, [])
            edges.extend((SAME_OBJECT, referent_id, other_id) for other_id in same_object)
            same_object.append(referent_id)
        edges.extend((REFERS_TO, annotation_id, term) for term in self.content.ontology_terms)
        return edges

    def agraph_nodes(self) -> list[tuple[str, str]]:
        """The a-graph nodes :meth:`agraph_edges` joins, as ``(id, kind)``
        (a :class:`~repro.agraph.agraph.NodeKind` value) in wiring order."""
        nodes = [(self.annotation_id, NodeKind.CONTENT.value)]
        for referent in self._referents:
            nodes.append((referent.referent_id, NodeKind.REFERENT.value))
            nodes.extend((term, NodeKind.ONTOLOGY.value) for term in referent.ontology_terms)
        nodes.extend((term, NodeKind.ONTOLOGY.value) for term in self.content.ontology_terms)
        return nodes

    def to_document(self) -> XmlDocument:
        """Render the whole annotation as one XML document.

        This is the "view it as an XML-structured object (and edit it if
        needed) before it is committed" step of the paper's annotation tab.
        """
        root = XmlElement("annotation", attributes={"id": self.annotation_id})
        metadata = root.add("metadata")
        for element in self.content.dublin_core.to_elements():
            metadata.append(element)
        if self.content.body:
            root.add("body", text=self.content.body)
        if self.content.user_tags:
            tags = root.add("tags")
            for key, value in self.content.user_tags.items():
                tags.add(key, text=value)
        for term in self.content.ontology_terms:
            root.add("ontology-ref", term=term)
        referents = root.add("referents")
        for referent in self._referents:
            referents.append(referent.to_element())
        return XmlDocument(root, doc_id=self.annotation_id)

    def searchable_text(self) -> str:
        """The searchable text of :meth:`to_document`, without building it.

        Byte-identical to ``DocumentCollection._searchable_text`` of the
        rendered document: every truthy text depth-first, space-joined, then
        every attribute value in document order.  Registration, recovery and
        every edit hand it to the document collection, so a document nobody
        reads never becomes a tree.
        """
        content = self.content
        texts = [text for _, text in content.dublin_core.populated()]
        if content.body:
            texts.append(content.body)
        texts.extend(value for value in content.user_tags.values() if value)
        attributes = [self.annotation_id]
        attributes.extend(str(term) for term in content.ontology_terms)
        for referent in self._referents:
            referent_texts, referent_attributes = referent.searchable_parts()
            texts += referent_texts
            attributes += referent_attributes
        return " ".join([" ".join(texts), *attributes])

    def to_xml(self) -> str:
        """Serialize the annotation to XML text."""
        from repro.xmlstore.parser import serialize_xml

        return serialize_xml(self.to_document())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Annotation {self.annotation_id} referents={self.referent_count}>"

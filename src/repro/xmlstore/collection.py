"""The annotation-content document collection.

"The collection of all annotations constitutes a database of XML documents."
The :class:`DocumentCollection` stores those documents, keeps an inverted
keyword index over their text, and exposes the search operations Graphitti's
query processor needs: keyword search (candidate-then-verify for phrases),
XPath selection across the collection, and FLWOR-lite queries.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from repro.errors import XmlStoreError
from repro.xmlstore.document import XmlDocument, XmlElement
from repro.xmlstore.flwor import FlworQuery
from repro.xmlstore.parser import parse_xml, serialize_xml
from repro.xmlstore.text_index import InvertedIndex
from repro.xmlstore.xpath import XPath


class DocumentCollection:
    """A keyed collection of XML documents with a keyword index.

    A document is either stored as a tree (:meth:`add`) or *parked*
    (:meth:`add_lazy_many`): its exact searchable text is indexed at once
    and a regenerator builds the tree for the first reader that is handed
    it.  An in-place edit (:meth:`update_delta`) re-parks the document.
    Phrase verification reads one cached lower-cased text per document
    version, so a search never re-renders a document it verified before.
    """

    def __init__(self, name: str = "annotations", indexed: bool = True):
        self.name = name
        self._documents: dict[str, XmlDocument] = {}
        self._index: InvertedIndex | None = InvertedIndex() if indexed else None
        # Parked documents whose trees were never built — doc id ->
        # regenerator.  Any reader may build one (see :meth:`_materialize`),
        # so nothing drains these ahead of reads.  The entry drops on
        # materialization or when :meth:`update` stores a new tree.
        self._lazy: dict[str, Callable[[], XmlDocument]] = {}
        # Makes "still parked? then publish and unpark" one step.
        self._publishing = threading.Lock()
        # doc id -> the lower-cased searchable text of its *latest* body, the
        # string keyword verification reads.  Filled where the text is
        # computed anyway (``add``, ``add_lazy_many``, ``update``) or by the
        # first verify that misses; dropped only by ``update_delta`` and
        # ``remove``.  A reader may fill it under the shared lock: it reads
        # the latest body, so the text it stores is current.
        self._text: dict[str, str] = {}
        self._next_serial = 1

    # -- container protocol -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._documents)

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._documents

    def __iter__(self) -> Iterator[XmlDocument]:
        self._materialize_all()
        return iter(self._documents.values())

    # -- lazy materialization ---------------------------------------------------

    def _materialize(self, doc_id: str) -> None:
        """Build the tree of one parked document before a reader sees it.

        Any number of concurrent readers may do this.  Only the first tree
        is published: a reader publishes over the placeholder *before*
        unparking the id, and only while the id is still parked, so a reader
        that finds the id unparked always finds a tree, and a reader that
        lost the race returns the winner's tree instead of replacing it.
        Two racing readers at worst build the same tree twice, and no page
        keeps a tree the collection no longer holds.
        """
        regenerator = self._lazy.get(doc_id)
        if regenerator is None:
            return
        document = regenerator()
        document.doc_id = doc_id
        with self._publishing:
            if self._lazy.get(doc_id) is regenerator:
                self._documents[doc_id] = document
                del self._lazy[doc_id]

    def _materialize_all(self) -> None:
        """Build every parked document (bulk readers call this first)."""
        for doc_id in tuple(self._lazy):
            self._materialize(doc_id)

    @property
    def indexed(self) -> bool:
        """Whether an inverted keyword index is maintained."""
        return self._index is not None

    def document_ids(self) -> tuple[str, ...]:
        """Ids of every stored document, in insertion order."""
        return tuple(self._documents)

    # -- mutation ------------------------------------------------------------------

    def add(self, document: XmlDocument, doc_id: str | None = None) -> str:
        """Store a document tree and index it; return its id.

        The id is taken from (in priority order) the *doc_id* argument, the
        document's own ``doc_id``, or a generated serial id.  Annotation
        documents are parked instead (:meth:`add_lazy_many`); this is for
        documents no annotation owns.
        """
        identifier = doc_id or document.doc_id or self._generate_id()
        if identifier in self._documents:
            raise XmlStoreError(f"document id {identifier!r} already present in {self.name!r}")
        document.doc_id = identifier
        self._documents[identifier] = document
        if self._index is not None:
            text = self._searchable_text(document)
            self._index.add_document(identifier, text)
            self._text[identifier] = text.lower()
        return identifier

    def add_lazy_many(
        self, entries: Iterable[tuple[str, str, Callable[[], XmlDocument]]]
    ) -> None:
        """Park documents: register them WITHOUT building their trees.

        Each entry is ``(doc_id, searchable_text, regenerate)``: the
        document's exact searchable text (the same string
        :meth:`_searchable_text` would extract) and a zero-arg regenerator
        producing the tree on demand.  The inverted index is fed from the
        texts as one batch, and each text becomes the document's one cached
        lower-cased text, which keyword verification reads — so a parked
        document that is never handed to a reader never builds a tree.
        Every annotation document is registered this way, whether committed
        live, replayed from the WAL or recovered from a snapshot.  A
        duplicate id refuses the whole batch before any of it registers.
        """
        entries = list(entries)
        for doc_id, _, _ in entries:
            if doc_id in self._documents:
                raise XmlStoreError(f"document id {doc_id!r} already present in {self.name!r}")
        texts: list[tuple[str, str]] = []
        for doc_id, searchable_text, regenerate in entries:
            # Placeholder entry: every reader materializes (via ``_lazy``)
            # before touching the stored value.
            self._documents[doc_id] = None
            self._lazy[doc_id] = regenerate
            self._text[doc_id] = searchable_text.lower()
            texts.append((doc_id, searchable_text))
        if self._index is not None:
            self._index.add_documents(texts)

    @property
    def lazy_document_count(self) -> int:
        """Parked documents whose trees were never built."""
        return len(self._lazy)

    def add_xml(self, text: str, doc_id: str | None = None) -> str:
        """Parse XML text and store the resulting document."""
        return self.add(parse_xml(text), doc_id=doc_id)

    def update(self, doc_id: str, document: XmlDocument) -> None:
        """Replace a stored document with *delta* index maintenance.

        Unlike re-adding it (which re-feeds the whole text through
        ``add_document``), this hands the new text to
        :meth:`InvertedIndex.update_document`, so only the postings whose
        terms actually changed are touched — the inverted-index half of the
        mutation lifecycle's delta maintenance.
        """
        if doc_id not in self._documents:
            raise XmlStoreError(f"no document {doc_id!r} in collection {self.name!r}")
        self._lazy.pop(doc_id, None)  # superseded before it was ever read
        self._text.pop(doc_id, None)
        document.doc_id = doc_id
        self._documents[doc_id] = document
        if self._index is not None:
            text = self._searchable_text(document)
            self._index.update_document(doc_id, text)
            self._text[doc_id] = text.lower()

    def update_delta(
        self,
        doc_id: str,
        regenerate: Callable[[], XmlDocument],
        removed_parts: list[str],
        added_parts: list[str],
    ) -> None:
        """In-place document update paying only the *delta*, at write time.

        The fast half of :meth:`update`, and the document-store leg of the
        mutation lifecycle:

        * the inverted index adjusts immediately and exactly from the text
          parts the edit removed/added (:meth:`InvertedIndex.apply_text_delta`
          — O(edit), not O(document));
        * the document is re-parked with *regenerate*, exactly as
          :meth:`add_lazy_many` parks it: the first reader handed the
          document builds the new tree once, and the first verify renders
          its text once.  A write-heavy churn stream never pays document
          rendering for bodies nobody reads in between.

        The caller is trusted to hand exact parts — the manager's update
        path derives them from the same rendering rules ``to_document``
        uses, and the property tests pin the live index against a
        from-scratch rebuild.
        """
        if doc_id not in self._documents:
            raise XmlStoreError(f"no document {doc_id!r} in collection {self.name!r}")
        self._documents[doc_id] = None
        self._lazy[doc_id] = regenerate
        self._text.pop(doc_id, None)  # text changed; recompute on next verify
        if self._index is not None:
            self._index.apply_text_delta(doc_id, removed_parts, added_parts)

    def remove(self, doc_id: str) -> None:
        """Remove a document (raises when absent)."""
        if doc_id not in self._documents:
            raise XmlStoreError(f"no document {doc_id!r} in collection {self.name!r}")
        self._lazy.pop(doc_id, None)
        self._text.pop(doc_id, None)
        del self._documents[doc_id]
        if self._index is not None:
            self._index.remove_document(doc_id)

    def _generate_id(self) -> str:
        while True:
            identifier = f"{self.name}-{self._next_serial:06d}"
            self._next_serial += 1
            if identifier not in self._documents:
                return identifier

    @staticmethod
    def _searchable_text(document: XmlDocument) -> str:
        """Text + attribute values, so keyword search also sees attributes."""
        parts = [document.text_content()]
        for element in document.iter():
            parts.extend(element.attributes.values())
        return " ".join(parts)

    # -- retrieval ------------------------------------------------------------------

    def get(self, doc_id: str) -> XmlDocument:
        """The stored document with id *doc_id* (raises when absent)."""
        self._materialize(doc_id)
        try:
            return self._documents[doc_id]
        except KeyError:
            raise XmlStoreError(f"no document {doc_id!r} in collection {self.name!r}") from None

    def search_keyword(self, keyword: str, mode: str = "and") -> list[str]:
        """Document ids whose content contains the keyword(s).

        Uses the inverted index for candidate generation when available, then
        verifies each candidate against the raw text (so multi-word phrases
        behave like substring search, matching the paper's "'protease' should
        be a substring" condition).
        """
        phrase = keyword.strip().lower()
        if not phrase:
            return []
        if self._index is not None:
            candidates = self._index.search(keyword, mode=mode)
        else:
            candidates = set(self._documents)
        if mode == "or":
            return sorted(candidates)
        matches = []
        for doc_id in candidates:
            if self._verify_text(doc_id, phrase):
                matches.append(doc_id)
        return sorted(matches)

    def _verify_text(self, doc_id: str, phrase: str) -> bool:
        """Phrase-verify *doc_id* against its latest searchable text.

        Reads the one cached lower-cased text per document version, so a
        parked document never builds its tree here.  A document with no
        cached text (edited in place since) materializes its latest body and
        renders the text once.
        """
        text = self._text.get(doc_id)
        if text is None:
            self._materialize(doc_id)  # verify against the latest body
            text = self._searchable_text(self._documents[doc_id]).lower()
            self._text[doc_id] = text
        return phrase in text or all(token in text for token in phrase.split())

    def document_matches_keyword(self, doc_id: str, keyword: str, mode: str = "and") -> bool:
        """Membership probe: would *doc_id* appear in ``search_keyword``?

        Exactly the candidate-then-verify semantics of :meth:`search_keyword`
        restricted to one document, so the adaptive query executor can verify
        a surviving candidate in O(query tokens) instead of materializing the
        keyword's whole match set.
        """
        phrase = keyword.strip().lower()
        if not phrase or doc_id not in self._documents:
            return False
        if self._index is not None:
            if not self._index.document_contains(doc_id, keyword, mode=mode):
                return False
            if mode == "or":
                return True
        elif mode == "or":
            # Mirrors search_keyword's index-free OR path (every document).
            return True
        return self._verify_text(doc_id, phrase)

    def indexed_terms(self, doc_id: str) -> tuple[str, ...]:
        """The inverted-index terms of *doc_id*: a keyword matches the
        document only if every one of its tokens is among them.  Requires an
        indexed collection."""
        return self._index.document_terms(doc_id)

    def keyword_document_frequency(self, keyword: str, mode: str = "and") -> int:
        """Estimated number of documents matching *keyword* (planner input).

        AND takes the rarest token's document frequency (an upper bound on
        the intersection), OR sums the frequencies (an upper bound on the
        union).  Every stored document is indexed, parked or not.
        """
        if self._index is None:
            return len(self._documents)
        from repro.xmlstore.text_index import tokenize

        tokens = tokenize(keyword)
        if not tokens:
            return 0
        frequencies = [self._index.document_frequency(token) for token in tokens]
        if mode == "or":
            return min(sum(frequencies), len(self._documents))
        return min(frequencies)

    def scan_keyword(self, keyword: str) -> list[str]:
        """Index-free keyword search (full scan); baseline for benchmarks.

        Renders every document's text from its tree and never reads the
        cached ``_text``, so tests can use it as ground truth for the
        index-and-cache path of :meth:`search_keyword`.
        """
        self._materialize_all()
        phrase = keyword.strip().lower()
        matches = []
        for doc_id, document in self._documents.items():
            text = self._searchable_text(document).lower()
            if phrase in text or all(token in text for token in phrase.split()):
                matches.append(doc_id)
        return sorted(matches)

    def select(self, xpath: str) -> list[tuple[str, Any]]:
        """Evaluate an XPath-subset expression against every document.

        Returns ``(doc_id, node_or_value)`` pairs.
        """
        self._materialize_all()
        compiled = XPath(xpath)
        results: list[tuple[str, Any]] = []
        for doc_id, document in self._documents.items():
            for node in compiled.evaluate(document):
                results.append((doc_id, node))
        return results

    def query(self) -> FlworQuery:
        """Start a FLWOR-lite query over the whole collection."""
        self._materialize_all()
        return FlworQuery(self._documents.values())

    def fragments(self, xpath: str) -> list[XmlElement]:
        """All element fragments matching *xpath* across the collection."""
        return [node for _, node in self.select(xpath) if isinstance(node, XmlElement)]

    # -- persistence -------------------------------------------------------------------

    def save(self, path: str | Path) -> Path:
        """Write the collection to a JSON file."""
        self._materialize_all()
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "name": self.name,
            "indexed": self.indexed,
            "documents": {doc_id: document.to_dict() for doc_id, document in self._documents.items()},
        }
        with target.open("w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        return target

    @classmethod
    def load(cls, path: str | Path) -> "DocumentCollection":
        """Read a collection previously written with :meth:`save`."""
        source = Path(path)
        if not source.exists():
            raise XmlStoreError(f"collection snapshot {source} does not exist")
        with source.open("r", encoding="utf-8") as handle:
            payload = json.load(handle)
        collection = cls(name=payload.get("name", "annotations"), indexed=payload.get("indexed", True))
        for doc_id, document_payload in payload.get("documents", {}).items():
            collection.add(XmlDocument.from_dict(document_payload), doc_id=doc_id)
        return collection

    def export_xml(self, doc_id: str) -> str:
        """Serialize one stored document back to XML text."""
        return serialize_xml(self.get(doc_id))

    def to_corpus_xml(self) -> str:
        """Serialize the whole collection as one ``<corpus>`` XML document.

        The paper notes "the collection of all annotations constitutes a
        database of XML documents"; this renders that database as a single
        corpus document that :meth:`from_corpus_xml` can read back.
        """
        self._materialize_all()
        root = XmlElement("corpus", attributes={"name": self.name})
        for doc_id in self._documents:
            document = self._documents[doc_id]
            wrapper = root.add("document", id=doc_id)
            wrapper.append(document.root.copy())
        return serialize_xml(XmlDocument(root, doc_id=self.name))

    @classmethod
    def from_corpus_xml(cls, text: str, indexed: bool = True) -> "DocumentCollection":
        """Reconstruct a collection from :meth:`to_corpus_xml` output."""
        document = parse_xml(text)
        if document.root.tag != "corpus":
            raise XmlStoreError("expected a <corpus> root element")
        collection = cls(name=document.root.get("name", "annotations"), indexed=indexed)
        for wrapper in document.root.find_all("document"):
            doc_id = wrapper.get("id")
            children = wrapper.children
            if not children:
                raise XmlStoreError(f"corpus <document id={doc_id!r}> is empty")
            inner = children[0].copy()
            collection.add(XmlDocument(inner, doc_id=doc_id), doc_id=doc_id)
        return collection

"""The annotation-content document collection.

"The collection of all annotations constitutes a database of XML documents."
The :class:`DocumentCollection` stores those documents, keeps an inverted
keyword index over their text, and exposes the search operations Graphitti's
query processor needs: keyword search (candidate-then-verify for phrases),
XPath selection across the collection, and FLWOR-lite queries.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from repro.errors import XmlStoreError
from repro.analysis.annotations import requires_write_lock
from repro.xmlstore.document import XmlDocument, XmlElement
from repro.xmlstore.flwor import FlworQuery
from repro.xmlstore.parser import parse_xml, serialize_xml
from repro.xmlstore.text_index import InvertedIndex
from repro.xmlstore.xpath import XPath


class DocumentCollection:
    """A keyed collection of XML documents with a keyword index.

    Phrase verification reads one cached lower-cased text per document
    version, so a search never re-renders a document it verified before.
    """

    def __init__(self, name: str = "annotations", indexed: bool = True):
        self.name = name
        self._documents: dict[str, XmlDocument] = {}
        self._index: InvertedIndex | None = InvertedIndex() if indexed else None
        # Documents stored with ``defer_index=True`` whose text has not been
        # fed to the inverted index yet (an ordered set of doc ids).
        self._pending_index: dict[str, None] = {}
        # Documents whose stored body is stale after an in-place update: the
        # index already reflects the edit (exact text delta), but the XML
        # regenerates lazily — doc id -> zero-arg regenerator.  The write
        # path never pays document rendering; the first *reader* of the
        # document does, once.
        self._stale: dict[str, Callable[[], XmlDocument]] = {}
        # Documents registered via :meth:`add_lazy` whose trees were never
        # materialized — doc id -> regenerator.  Unlike a stale body, a
        # parked document is safe for a *reader* to materialize (see
        # :meth:`_materialize`), so nothing drains these ahead of reads.  The
        # entry drops on materialization or when an in-place edit supersedes
        # the registered body.
        self._lazy: dict[str, Callable[[], XmlDocument]] = {}
        # doc id -> the lower-cased searchable text of its *latest* body, the
        # string keyword verification reads.  Filled where the text is
        # computed anyway (indexing, ``add_lazy_many``, ``update``) or by the
        # first verify that misses; dropped only by ``update_delta`` and
        # ``remove``.  A reader may fill it under the shared lock: readers
        # never see a stale body, so the text they store is current.
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
        """Build the tree of one stale or parked document before a reader
        sees it.

        A stale body is regenerated by whoever holds the write lock (the
        serving layer drains ``_stale`` before it lets readers in).  A parked
        document may be built by any number of concurrent readers: each
        publishes its tree over the placeholder *before* unparking the id, so
        a reader that finds the id unparked always finds a tree — two racing
        readers at worst build the same tree twice.
        """
        regenerator = self._stale.pop(doc_id, None)
        if regenerator is None:
            regenerator = self._lazy.get(doc_id)
            if regenerator is None:
                return
        document = regenerator()
        document.doc_id = doc_id
        self._documents[doc_id] = document
        self._lazy.pop(doc_id, None)

    def _materialize_all(self) -> None:
        """Build every stale or parked document (bulk readers call this first)."""
        for doc_id in (*self._stale, *self._lazy):
            self._materialize(doc_id)

    @property
    def stale_document_count(self) -> int:
        """Stored documents whose body an in-place update left stale.

        These must be regenerated under the write lock before readers run;
        documents merely parked by :meth:`add_lazy` are not counted (see
        :attr:`lazy_document_count`).
        """
        return len(self._stale)

    @requires_write_lock
    def materialize_documents(self) -> None:
        """Drain every pending lazy regeneration now (a quiesce point)."""
        self._materialize_all()

    @property
    def indexed(self) -> bool:
        """Whether an inverted keyword index is maintained."""
        return self._index is not None

    def document_ids(self) -> tuple[str, ...]:
        """Ids of every stored document, in insertion order."""
        return tuple(self._documents)

    # -- mutation ------------------------------------------------------------------

    def add(self, document: XmlDocument, doc_id: str | None = None, defer_index: bool = False) -> str:
        """Store a document and return its id.

        The id is taken from (in priority order) the *doc_id* argument, the
        document's own ``doc_id``, or a generated serial id.

        With ``defer_index=True`` the document is stored immediately but its
        keyword indexing (text extraction + tokenization, the dominant cost of
        an add) is queued and performed lazily by :meth:`flush_index` — which
        every index reader calls first, so searches never see a stale index.
        Bulk ingest paths use this to amortize indexing out of the commit loop.
        """
        identifier = doc_id or document.doc_id or self._generate_id()
        if identifier in self._documents:
            raise XmlStoreError(f"document id {identifier!r} already present in {self.name!r}")
        document.doc_id = identifier
        self._documents[identifier] = document
        if self._index is not None:
            if defer_index:
                self._pending_index[identifier] = None
            else:
                text = self._searchable_text(document)
                self._index.add_document(identifier, text)
                self._text[identifier] = text.lower()
        return identifier

    def add_lazy(
        self, doc_id: str, searchable_text: str, regenerate: Callable[[], XmlDocument]
    ) -> str:
        """Register one document WITHOUT materializing its tree (a batch of
        one; see :meth:`add_lazy_many`)."""
        self.add_lazy_many([(doc_id, searchable_text, regenerate)])
        return doc_id

    def add_lazy_many(
        self, entries: Iterable[tuple[str, str, Callable[[], XmlDocument]]]
    ) -> None:
        """Register documents WITHOUT materializing their trees.

        Each entry is ``(doc_id, searchable_text, regenerate)``: the
        document's exact searchable text (the same string
        :meth:`_searchable_text` would extract) and a zero-arg regenerator
        producing the tree on demand.  The inverted index is fed from the
        texts as one batch, and each text becomes the document's one cached
        lower-cased text per document version, which keyword verification
        reads — so a lazily-registered document that is never read never
        builds a tree at all.  Recovery uses this to register every
        annotation content document from the snapshot's records — cold-start
        cost and RSS scale with the index, not with the XML object graph.
        """
        texts: list[tuple[str, str]] = []
        for doc_id, searchable_text, regenerate in entries:
            if doc_id in self._documents:
                raise XmlStoreError(f"document id {doc_id!r} already present in {self.name!r}")
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
        """Documents registered lazily whose trees were never built."""
        return len(self._lazy)

    @property
    def pending_index_count(self) -> int:
        """Number of stored documents whose indexing is still deferred."""
        return len(self._pending_index)

    @requires_write_lock
    def flush_index(self) -> int:
        """Index every deferred document now; returns how many were indexed.

        Reading paths (keyword search, save/export) call this before touching
        the inverted index, so deferral is invisible to queries.
        """
        if self._index is None or not self._pending_index:
            return 0
        pending, self._pending_index = self._pending_index, {}
        for identifier in pending:
            self._materialize(identifier)  # index the *latest* body
            document = self._documents.get(identifier)
            if document is not None:
                text = self._searchable_text(document)
                self._index.add_document(identifier, text)
                self._text[identifier] = text.lower()
        return len(pending)

    def add_xml(self, text: str, doc_id: str | None = None) -> str:
        """Parse XML text and store the resulting document."""
        return self.add(parse_xml(text), doc_id=doc_id)

    def update(self, doc_id: str, document: XmlDocument) -> None:
        """Replace a stored document with *delta* index maintenance.

        Unlike re-adding it (which re-feeds the whole text through
        ``add_document``), this hands the new text to
        :meth:`InvertedIndex.update_document`, so only the postings whose
        terms actually changed are touched — the inverted-index half of the
        mutation lifecycle's delta maintenance.  A document whose indexing is
        still deferred keeps its pending entry: the eventual flush reads the
        *stored* document, which is now the new one, so the deferral stays
        invisible to searches.
        """
        if doc_id not in self._documents:
            raise XmlStoreError(f"no document {doc_id!r} in collection {self.name!r}")
        self._stale.pop(doc_id, None)  # superseded before it was ever read
        self._lazy.pop(doc_id, None)
        self._text.pop(doc_id, None)
        document.doc_id = doc_id
        self._documents[doc_id] = document
        if self._index is not None and doc_id not in self._pending_index:
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
        * the stored XML is merely marked stale with a *regenerator*; the
          first reader of the document (keyword verification, XPath, export)
          materializes it once.  A write-heavy churn stream never
          pays document rendering for bodies nobody reads in between.

        The caller is trusted to hand exact parts — the manager's update
        path derives them from the same rendering rules ``to_document``
        uses, and the property tests pin the live index against a
        from-scratch rebuild.  A document whose *initial* indexing is still
        deferred only swaps its regenerator: the pending flush reads the
        regenerated (latest) body anyway.
        """
        if doc_id not in self._documents:
            raise XmlStoreError(f"no document {doc_id!r} in collection {self.name!r}")
        self._stale[doc_id] = regenerate
        self._lazy.pop(doc_id, None)  # the edit supersedes the registered body
        self._text.pop(doc_id, None)  # text changed; recompute on next verify
        if self._index is None or doc_id in self._pending_index:
            return
        self._index.apply_text_delta(doc_id, removed_parts, added_parts)

    def remove(self, doc_id: str) -> None:
        """Remove a document (raises when absent)."""
        if doc_id not in self._documents:
            raise XmlStoreError(f"no document {doc_id!r} in collection {self.name!r}")
        self._stale.pop(doc_id, None)
        self._lazy.pop(doc_id, None)
        self._text.pop(doc_id, None)
        del self._documents[doc_id]
        if doc_id in self._pending_index:
            del self._pending_index[doc_id]  # never reached the index
        elif self._index is not None:
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
            self.flush_index()
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
        lazily-registered document never builds its tree here.  A document
        with no cached text (edited in place since, or in an unindexed
        collection) materializes its latest body and renders the text once.
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
            self.flush_index()
            if not self._index.document_contains(doc_id, keyword, mode=mode):
                return False
            if mode == "or":
                return True
        elif mode == "or":
            # Mirrors search_keyword's index-free OR path (every document).
            return True
        return self._verify_text(doc_id, phrase)

    def keyword_document_frequency(self, keyword: str, mode: str = "and") -> int:
        """Estimated number of documents matching *keyword* (planner input).

        AND takes the rarest token's document frequency (an upper bound on
        the intersection), OR sums the frequencies (an upper bound on the
        union).  Documents whose indexing is still deferred are not counted —
        the estimate is a planning input, not an answer, and reading the
        index without forcing a flush keeps this callable from any thread.
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

    def filter_documents(self, predicate: Callable[[XmlDocument], bool]) -> list[XmlDocument]:
        """Documents satisfying an arbitrary predicate."""
        self._materialize_all()
        return [document for document in self._documents.values() if predicate(document)]

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

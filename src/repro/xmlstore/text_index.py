"""Inverted keyword index over annotation contents.

Keyword conditions ("the annotation content contains 'protease'") are the
most common predicate in Graphitti queries.  The inverted index maps each
token to the set of document ids containing it, so keyword searches avoid
scanning every XML document.
"""

from __future__ import annotations

import re
from collections import Counter
from typing import Iterable, Iterator

_TOKEN_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]*")

#: Minimal English stop-word list; annotation text is mostly technical terms.
STOP_WORDS = frozenset(
    {
        "a", "an", "and", "are", "as", "at", "be", "by", "for", "from", "has",
        "in", "is", "it", "its", "of", "on", "that", "the", "to", "was",
        "were", "will", "with",
    }
)


def tokenize(text: str, drop_stop_words: bool = True) -> list[str]:
    """Split *text* into lower-cased tokens.

    Tokens keep internal dots, dashes and underscores so identifiers like
    ``protein.TP53`` survive as single searchable terms (and are *also*
    indexed by their dot-separated parts by :class:`InvertedIndex`).
    """
    tokens = [token.lower() for token in _TOKEN_RE.findall(text or "")]
    if drop_stop_words:
        tokens = [token for token in tokens if token not in STOP_WORDS]
    return tokens


def _expand_token(token: str) -> set[str]:
    """A token plus its dot/dash separated sub-terms."""
    expansion = {token}
    for separator in (".", "-", "_"):
        if separator in token:
            expansion.update(part for part in token.split(separator) if part)
    return expansion


class InvertedIndex:
    """Token -> document-id inverted index with term-frequency counts."""

    def __init__(self) -> None:
        self._postings: dict[str, dict[str, int]] = {}
        self._doc_lengths: dict[str, int] = {}
        # doc id -> the terms indexed for that document, so removal walks the
        # document's own postings instead of the whole vocabulary.
        self._doc_terms: dict[str, tuple[str, ...]] = {}

    def __len__(self) -> int:
        return len(self._doc_lengths)

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._doc_lengths

    @property
    def vocabulary_size(self) -> int:
        """Number of distinct indexed tokens."""
        return len(self._postings)

    def add_document(self, doc_id: str, text: str) -> None:
        """Index (or re-index) a document's text."""
        if doc_id in self._doc_lengths:
            self.remove_document(doc_id)
        tokens = tokenize(text)
        counts = Counter()
        for token in tokens:
            for term in _expand_token(token):
                counts[term] += 1
        for term, count in counts.items():
            self._postings.setdefault(term, {})[doc_id] = count
        self._doc_lengths[doc_id] = len(tokens)
        self._doc_terms[doc_id] = tuple(counts)

    def add_documents(self, documents: Iterable[tuple[str, str]]) -> None:
        """Index a batch of ``(doc_id, text)`` pairs.

        Leaves exactly the postings, lengths and per-document term order that
        :meth:`add_document` on each pair would, for less work: a document's
        tokens are counted once and expanded per *distinct* token, and a
        token's expansion is computed once for the whole batch (annotation
        texts share most of their vocabulary).
        """
        postings = self._postings
        expansions: dict[str, tuple[str, ...]] = {}
        for doc_id, text in documents:
            if doc_id in self._doc_lengths:
                self.remove_document(doc_id)
            tokens = tokenize(text)
            counts: dict[str, int] = {}
            for token, occurrences in Counter(tokens).items():
                terms = expansions.get(token)
                if terms is None:
                    terms = expansions[token] = tuple(_expand_token(token))
                for term in terms:
                    counts[term] = counts.get(term, 0) + occurrences
            for term, count in counts.items():
                bucket = postings.get(term)
                if bucket is None:
                    bucket = postings[term] = {}
                bucket[doc_id] = count
            self._doc_lengths[doc_id] = len(tokens)
            self._doc_terms[doc_id] = tuple(counts)

    def update_document(self, doc_id: str, text: str) -> tuple[int, int]:
        """Re-index a document's text by *term diff*; returns ``(touched, dropped)``.

        Where :meth:`add_document` on an already-indexed id removes every old
        posting and re-inserts every new one, this walks the document's own
        reverse map (:attr:`_doc_terms`) against the new term counts and only
        touches postings that actually changed: terms no longer present are
        dropped, terms with a new count are rewritten, and unchanged terms —
        the overwhelming majority under a small edit — are never visited.
        ``touched`` counts postings written, ``dropped`` postings removed; an
        unindexed id falls back to a plain :meth:`add_document`.
        """
        if doc_id not in self._doc_lengths:
            self.add_document(doc_id, text)
            return (len(self._doc_terms.get(doc_id, ())), 0)
        tokens = tokenize(text)
        counts = Counter()
        for token in tokens:
            for term in _expand_token(token):
                counts[term] += 1
        touched = dropped = 0
        for term in self._doc_terms.get(doc_id, ()):
            if term in counts:
                continue
            postings = self._postings.get(term)
            if postings is None:
                continue
            postings.pop(doc_id, None)
            if not postings:
                del self._postings[term]
            dropped += 1
        for term, count in counts.items():
            postings = self._postings.setdefault(term, {})
            if postings.get(doc_id) != count:
                postings[doc_id] = count
                touched += 1
        self._doc_lengths[doc_id] = len(tokens)
        self._doc_terms[doc_id] = tuple(counts)
        return (touched, dropped)

    def apply_text_delta(
        self,
        doc_id: str,
        removed_parts: Iterable[str],
        added_parts: Iterable[str],
    ) -> tuple[int, int]:
        """Adjust a document's postings by an **exact text-part delta**.

        The searchable text of a document is a space-joined sequence of parts
        (text nodes and attribute values), so its token multiset is additive
        over parts.  A caller that knows exactly which parts an edit removed
        and added (the mutation lifecycle's update path does) can hand them
        here, and only the terms whose counts actually change are touched —
        an O(edit) re-index instead of an O(document) one.  The document must
        already be indexed; counts are floored at zero so an inexact caller
        degrades to a slightly-overcounted index rather than a corrupt one.
        Returns ``(touched, dropped)`` posting counts.
        """
        if doc_id not in self._doc_lengths:
            raise KeyError(f"document {doc_id!r} is not indexed")
        removed_tokens = [token for part in removed_parts for token in tokenize(part)]
        added_tokens = [token for part in added_parts for token in tokenize(part)]
        delta: Counter = Counter()
        for token in added_tokens:
            for term in _expand_token(token):
                delta[term] += 1
        for token in removed_tokens:
            for term in _expand_token(token):
                delta[term] -= 1
        touched = dropped = 0
        current_terms = set(self._doc_terms.get(doc_id, ()))
        for term, change in delta.items():
            if change == 0:
                continue
            postings = self._postings.setdefault(term, {})
            count = postings.get(doc_id, 0) + change
            if count > 0:
                postings[doc_id] = count
                current_terms.add(term)
                touched += 1
            else:
                postings.pop(doc_id, None)
                if not postings:
                    del self._postings[term]
                current_terms.discard(term)
                dropped += 1
        self._doc_terms[doc_id] = tuple(current_terms)
        self._doc_lengths[doc_id] = max(
            0, self._doc_lengths[doc_id] + len(added_tokens) - len(removed_tokens)
        )
        return (touched, dropped)

    def remove_document(self, doc_id: str) -> None:
        """Remove a document from the index (no-op when absent).

        O(terms in the document): the reverse map names exactly the postings
        lists holding the document, so the vocabulary is never scanned.
        """
        if doc_id not in self._doc_lengths:
            return
        for term in self._doc_terms.pop(doc_id, ()):
            postings = self._postings.get(term)
            if postings is None:
                continue
            postings.pop(doc_id, None)
            if not postings:
                del self._postings[term]
        del self._doc_lengths[doc_id]

    def search(self, query: str, mode: str = "and") -> set[str]:
        """Document ids matching the query keywords.

        ``mode='and'`` (default) requires every query token; ``mode='or'``
        requires at least one.
        """
        tokens = tokenize(query)
        if not tokens:
            return set()
        postings_per_token = [self._lookup(token) for token in tokens]
        if mode == "and":
            result = postings_per_token[0]
            for postings in postings_per_token[1:]:
                result &= postings
            return result
        if mode == "or":
            result = set()
            for postings in postings_per_token:
                result |= postings
            return result
        raise ValueError(f"unknown search mode {mode!r}")

    def document_contains(self, doc_id: str, query: str, mode: str = "and") -> bool:
        """Membership probe: would *doc_id* appear in ``search(query, mode)``?

        One postings-dict lookup per query token — the semi-join building
        block the adaptive query executor uses to verify a surviving
        candidate against the index instead of materializing the full match
        set.
        """
        tokens = tokenize(query)
        if not tokens:
            return False
        if mode == "and":
            return all(doc_id in self._postings.get(token, ()) for token in tokens)
        if mode == "or":
            return any(doc_id in self._postings.get(token, ()) for token in tokens)
        raise ValueError(f"unknown search mode {mode!r}")

    def document_terms(self, doc_id: str) -> tuple[str, ...]:
        """The terms indexed for *doc_id* (empty when it is not indexed)."""
        return self._doc_terms.get(doc_id, ())

    def term_frequency(self, term: str, doc_id: str) -> int:
        """Occurrences of *term* in *doc_id* (0 when absent)."""
        return self._postings.get(term.lower(), {}).get(doc_id, 0)

    def document_frequency(self, term: str) -> int:
        """Number of documents containing *term*."""
        return len(self._postings.get(term.lower(), ()))

    def terms(self) -> Iterator[str]:
        """Iterate over the indexed vocabulary."""
        return iter(self._postings)

    def document_ids(self) -> Iterable[str]:
        """Ids of every indexed document."""
        return self._doc_lengths.keys()

    def _lookup(self, token: str) -> set[str]:
        return set(self._postings.get(token, ()))

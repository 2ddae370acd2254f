"""Inverted keyword index over annotation contents.

Keyword conditions ("the annotation content contains 'protease'") are the
most common predicate in Graphitti queries.  The inverted index maps each
token to the set of document ids containing it, so keyword searches avoid
scanning every XML document.
"""

from __future__ import annotations

import re
import string
from collections import Counter
from typing import Iterable, Iterator

_TOKEN_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]*")
#: Every character a token can hold; any other character ends a token.
_TOKEN_CHARS = frozenset(string.ascii_letters + string.digits + "_.-")

#: Minimal English stop-word list; annotation text is mostly technical terms.
STOP_WORDS = frozenset(
    {
        "a", "an", "and", "are", "as", "at", "be", "by", "for", "from", "has",
        "in", "is", "it", "its", "of", "on", "that", "the", "to", "was",
        "were", "will", "with",
    }
)


def tokenize(text: str, drop_stop_words: bool = True) -> list[str]:
    """Split the lower-cased *text* into tokens.

    Lower-casing comes first, so a character that lower-cases to ASCII (the
    Kelvin sign to ``k``) tokenizes as the text keyword verification reads.
    Tokens keep internal dots, dashes and underscores so identifiers like
    ``protein.TP53`` survive as single searchable terms (and are *also*
    indexed by their dot-separated parts by :class:`InvertedIndex`).
    """
    tokens = _TOKEN_RE.findall((text or "").lower())
    if drop_stop_words:
        tokens = [token for token in tokens if token not in STOP_WORDS]
    return tokens


def _shared_prefix(old: str, new: str, limit: int) -> int:
    """Length of the longest common prefix of *old* and *new*, at most
    *limit*, found by halving slice comparisons."""
    low, high = 0, limit
    while low < high:
        middle = (low + high + 1) // 2
        if old[low:middle] == new[low:middle]:
            low = middle
        else:
            high = middle - 1
    return low


def changed_span(old: str, new: str) -> tuple[int, int, int]:
    """``(start, old_end, new_end)``: the span where *old* and *new* differ,
    their common prefix and suffix cut away, then widened out to the
    nearest character no token can hold.

    Every token outside the span is then a token of both texts, so
    replacing ``old[start:old_end]`` by ``new[start:new_end]`` is an exact
    index delta of one text into the other.
    """
    start = _shared_prefix(old, new, min(len(old), len(new)))
    suffix = _shared_prefix(old[::-1], new[::-1], min(len(old), len(new)) - start)
    old_end, new_end = len(old) - suffix, len(new) - suffix
    while start and old[start - 1] in _TOKEN_CHARS:
        start -= 1
    while old_end < len(old) and old[old_end] in _TOKEN_CHARS:
        old_end += 1
        new_end += 1
    return start, old_end, new_end


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

    def apply_text_delta(
        self,
        doc_id: str,
        removed: Iterable[str],
        added: Iterable[str],
    ) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """Adjust a document's postings by an **exact text delta**: the
        tokens of the *removed* texts go and those of the *added* texts come.

        A document's token multiset is additive over texts that no token
        crosses (see :func:`changed_span`), so only the terms whose counts
        actually change are touched — an O(edit) re-index instead of an
        O(document) one.  The document must already be indexed; counts are
        floored at zero so an inexact caller degrades to a slightly
        overcounted index rather than a corrupt one.  Returns the
        document's terms before and after.
        """
        if doc_id not in self._doc_lengths:
            raise KeyError(f"document {doc_id!r} is not indexed")
        removed_tokens = [token for text in removed for token in tokenize(text)]
        added_tokens = [token for text in added for token in tokenize(text)]
        delta: Counter = Counter()
        for token in added_tokens:
            for term in _expand_token(token):
                delta[term] += 1
        for token in removed_tokens:
            for term in _expand_token(token):
                delta[term] -= 1
        old_terms = self._doc_terms.get(doc_id, ())
        current_terms = set(old_terms)
        for term, change in delta.items():
            if change == 0:
                continue
            postings = self._postings.setdefault(term, {})
            count = postings.get(doc_id, 0) + change
            if count > 0:
                postings[doc_id] = count
                current_terms.add(term)
            else:
                postings.pop(doc_id, None)
                if not postings:
                    del self._postings[term]
                current_terms.discard(term)
        new_terms = self._doc_terms[doc_id] = tuple(current_terms)
        self._doc_lengths[doc_id] = max(
            0, self._doc_lengths[doc_id] + len(added_tokens) - len(removed_tokens)
        )
        return old_terms, new_terms

    def remove_document(self, doc_id: str) -> tuple[str, ...]:
        """Remove a document from the index (no-op when absent); returns the
        terms it held.

        O(terms in the document): the reverse map names exactly the postings
        lists holding the document, so the vocabulary is never scanned.
        """
        if doc_id not in self._doc_lengths:
            return ()
        terms = self._doc_terms.pop(doc_id, ())
        for term in terms:
            postings = self._postings.get(term)
            if postings is None:
                continue
            postings.pop(doc_id, None)
            if not postings:
                del self._postings[term]
        del self._doc_lengths[doc_id]
        return terms

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

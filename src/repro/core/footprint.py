"""One write's before and after, and what it touches for the result cache.

Each commit, update and delete captures the written annotation's
:class:`WriteState` once before it applies (a commit has none) and once after
(a delete has none), and every consumer applies that pair: the text index
re-posts the text part groups that differ, the statistics catalogue adjusts by the type
and term differences, and the a-graph links the edges in ``after - before``
and unlinks those in ``before - after``.

A :class:`Footprint` is the part of the indexes one write can change a query
answer through: the index terms of the annotation documents it affects, the
``(domain, start, end)`` extents and ``(space, lo, hi)`` boxes of their
referents, the ontology terms on their content nodes and referents, and their
referents' data types.  :func:`write_footprint` builds it from the written
annotation's two states, the index terms of its document before and after,
and each *sharer* -- an annotation that marks one of the referents of either
state -- read once, after the write.  That covers each sharer's state before
the write too: a write changes a sharer only through the shared referents'
extents and ontology terms (and, under a move, their coordinate tokens), and
the written annotation's own two states render those same referents.

The manager appends one entry per mutation epoch to a :class:`FootprintLog`
once the serving layer attaches one (:meth:`Graphitti.attach_footprints
<repro.core.manager.Graphitti.attach_footprints>`).  ``None`` is the entry of
a write no footprint describes (registrations, ontologies, object retirement,
compaction): a cache reading it drops everything.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable


class WriteState:
    """What one annotation contributes to the derived indexes at one moment:
    its searchable text part groups, referent data types, content and
    referent ontology terms, a-graph edges and referent extents.

    ``parts`` (see :func:`searchable_groups`) is taken only when
    *searchable* is set: an update diffs it, a commit indexes the whole text
    and a delete drops the whole document.  ``extents`` maps each referent id
    to ``(object id, interval, rect)``; a move replaces a referent's interval
    or rect object rather than changing it, so a state taken before the move
    keeps the old extent.
    """

    __slots__ = ("parts", "types", "terms", "edges", "extents")

    def __init__(self, annotation, searchable: bool = False):
        referents = annotation.referents
        self.types = {referent.ref.data_type.value for referent in referents}
        self.extents = {
            referent.referent_id: (referent.ref.object_id, referent.ref.interval, referent.ref.rect)
            for referent in referents
        }
        self.terms: set[str] = annotation.ontology_terms()
        self.edges: list[tuple[str, str, str]] = annotation.agraph_edges()
        self.parts = searchable_groups(annotation) if searchable else None


def searchable_groups(annotation) -> dict:
    """The parts of :meth:`Annotation.searchable_text
    <repro.core.annotation.Annotation.searchable_text>` grouped by where they
    come from: each Dublin Core element, the body, the tags, the content's
    id and ontology terms, and each referent (keyed by its id; every key is
    unique, so an id marked twice keeps two groups)."""
    content = annotation.content
    groups: dict = {1: (content.body,), 2: tuple(content.user_tags.values())}
    groups[3] = (annotation.annotation_id, *content.ontology_terms)
    for name, text in content.dublin_core.populated():
        groups[name] = groups.get(name, ()) + (text,)
    for referent in annotation.referents:
        texts, attributes = referent.searchable_parts()
        key = referent.referent_id
        while key in groups:
            key = (key,)
        groups[key] = (*texts, *attributes)
    return groups


def text_delta(before: WriteState, after: WriteState) -> tuple[list[str], list[str]]:
    """The parts *before* holds and *after* does not, and the reverse.

    A document's token multiset is additive over its parts, so these two
    lists are its exact index delta.  Two versions of a group of one length
    differ only where their parts do (a retitle, a moved extent's
    coordinates); a group that changed length, appeared or went away
    differs whole.
    """
    old, new = before.parts, after.parts
    removed: list[str] = []
    added: list[str] = []
    for key, group in old.items():
        other = new.get(key)
        if other == group:
            continue
        if other is not None and len(other) == len(group):
            for was, now in zip(group, other):
                if was != now:
                    removed.append(was)
                    added.append(now)
        else:
            removed.extend(group)
            added.extend(other or ())
    for key, group in new.items():
        if key not in old:
            added.extend(group)
    return removed, added


class Footprint:
    """The index keys one write touches, old and new states together."""

    __slots__ = ("terms", "intervals", "regions", "ontology", "types")

    def __init__(self) -> None:
        self.terms: set[str] = set()
        #: domain -> ``(start, end)`` extents.
        self.intervals: dict[str, list[tuple[float, float]]] = {}
        #: space -> ``(lo, hi)`` boxes.
        self.regions: dict[str, list[tuple[tuple, tuple]]] = {}
        self.ontology: set[str] = set()
        self.types: set[str] = set()

    def _add_extent(self, object_id: str, interval, rect) -> None:
        if interval is not None:
            domain = interval.domain or object_id
            self.intervals.setdefault(domain, []).append((interval.start, interval.end))
        elif rect is not None:
            space = rect.space or object_id
            self.regions.setdefault(space, []).append((rect.lo, rect.hi))


def write_footprint(
    manager,
    annotation_id: str,
    before: WriteState | None,
    after: WriteState | None,
    terms: Iterable[str],
) -> Footprint | None:
    """The footprint of a write to *annotation_id* that has applied, or None
    while *manager* keeps no footprint log.

    *before* / *after* are the written annotation's states and *terms* the
    index terms of its document before and after; each sharer of a referent
    of either state is read now, once.
    """
    if manager.footprints is None:
        return None
    footprint = Footprint()
    footprint.terms.update(terms)
    referent_ids: set[str] = set()
    for state in (before, after):
        if state is not None:
            footprint.ontology |= state.terms
            footprint.types |= state.types
            for referent_id, extent in state.extents.items():
                footprint._add_extent(*extent)
                referent_ids.add(referent_id)
    agraph = manager.agraph
    sharers = {
        sharer
        for referent_id in referent_ids
        if referent_id in agraph.graph
        for sharer in agraph.contents_annotating(referent_id)
    }
    sharers.discard(annotation_id)
    index_terms = manager.contents.indexed_terms
    referents = manager.substructures.columns
    for sharer in sharers:
        footprint.terms.update(index_terms(sharer))
        footprint.ontology.update(agraph.ontology_terms_of(sharer))
        for referent_id in agraph.referents_of(sharer):
            footprint.ontology.update(agraph.ontology_terms_of(referent_id))
            referent = referents.view(referent_id)
            if referent is not None:
                ref = referent.ref
                footprint.types.add(ref.data_type.value)
                footprint._add_extent(ref.object_id, ref.interval, ref.rect)
    return footprint


class FootprintLog:
    """The footprints of the last :attr:`LENGTH` mutation epochs."""

    #: Epochs remembered; a reader further behind drops everything.
    LENGTH = 64

    def __init__(self) -> None:
        self._entries: deque[tuple[int, Footprint | None]] = deque(maxlen=self.LENGTH)

    def record(self, epoch: int, footprint: Footprint | None) -> None:
        """Note *footprint* (None: unknown reach) as epoch *epoch*'s."""
        self._entries.append((epoch, footprint))

    def since(self, epoch: int, newest: int) -> list[Footprint] | None:
        """The footprints of epochs ``epoch + 1 .. newest``, or None when one
        of them is unknown or no longer held."""
        entries = self._entries
        count = newest - epoch
        if count <= 0 or count > len(entries):
            return [] if count <= 0 else None
        footprints = []
        for position in range(len(entries) - count, len(entries)):
            held, footprint = entries[position]
            if footprint is None or held != newest - (len(entries) - 1 - position):
                return None
            footprints.append(footprint)
        return footprints

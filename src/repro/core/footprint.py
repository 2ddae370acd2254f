"""One write's before and after, and what it touches for the result cache.

Each commit, update and delete captures the written annotation's
:class:`WriteState` once before it applies (a commit has none) and once after
(a delete has none), and every consumer applies that pair: the statistics
catalogue adjusts by the type and term differences, and the a-graph links
the edges in ``after - before`` and unlinks those in ``before - after``.
The text index needs no state: an edit hands the document collection the
annotation's new searchable text, and the collection diffs it against the
text it keeps.

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

The manager hands each write's footprint to its sinks as the write applies
(:meth:`Graphitti.attach_footprints
<repro.core.manager.Graphitti.attach_footprints>`) and builds none while no
sink is attached.  ``None`` is the footprint of a write no footprint
describes (registrations, ontologies, object retirement, compaction, each
member of a batch of several annotations): a cache handed it drops
everything.
"""

from __future__ import annotations

from typing import Iterable


class WriteState:
    """What one annotation contributes to the derived indexes at one moment:
    its referent data types, content and referent ontology terms, a-graph
    edges and referent extents.

    ``extents`` maps each referent id to ``(object id, interval, rect)``; a
    move replaces a referent's interval or rect object rather than changing
    it, so a state taken before the move keeps the old extent.
    """

    __slots__ = ("types", "terms", "edges", "extents")

    def __init__(self, annotation):
        referents = annotation.referents
        self.types = {referent.ref.data_type.value for referent in referents}
        self.extents = {
            referent.referent_id: (referent.ref.object_id, referent.ref.interval, referent.ref.rect)
            for referent in referents
        }
        self.terms: set[str] = annotation.ontology_terms()
        self.edges: list[tuple[str, str, str]] = annotation.agraph_edges()


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
    while no sink of *manager* takes one.

    *before* / *after* are the written annotation's states and *terms* the
    index terms of its document before and after; each sharer of a referent
    of either state is read now, once.
    """
    if not manager.footprint_sinks:
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

"""What a write touches, recorded for the serving layer's result cache.

A :class:`Footprint` is the part of the indexes one write can change a query
answer through: the index terms of the annotation documents it affects, the
``(domain, start, end)`` extents and ``(space, lo, hi)`` boxes of their
referents, the ontology terms on their content nodes and referents, and their
referents' data types.  It is taken for the written annotation and for every
annotation that annotates one of its referents (a moved shared referent
re-renders the other annotations' documents, and a term on a shared referent
changes what they match), before and after the write.

The manager appends one entry per mutation epoch to a :class:`FootprintLog`
once the serving layer attaches one (:meth:`Graphitti.attach_footprints
<repro.core.manager.Graphitti.attach_footprints>`).  ``None`` is the entry of
a write no footprint describes (registrations, ontologies, object retirement,
compaction): a cache reading it drops everything.
"""

from __future__ import annotations

from collections import deque


class Footprint:
    """The index keys one write touches, old and new states together.

    ``terms`` is None when the content collection keeps no inverted index:
    every keyword is then reached.
    """

    __slots__ = ("terms", "intervals", "regions", "ontology", "types")

    def __init__(self, indexed: bool = True):
        self.terms: set[str] | None = set() if indexed else None
        #: domain -> ``(start, end)`` extents.
        self.intervals: dict[str, list[tuple[float, float]]] = {}
        #: space -> ``(lo, hi)`` boxes.
        self.regions: dict[str, list[tuple[tuple, tuple]]] = {}
        self.ontology: set[str] = set()
        self.types: set[str] = set()

    def add_annotations(self, manager, annotation_ids) -> None:
        """Add what each of *annotation_ids* touches in *manager* now (an id
        no longer committed adds nothing)."""
        agraph = manager.agraph
        graph = agraph.graph
        index_terms = manager.contents.indexed_terms
        referents = manager.substructures.columns
        terms, ontology = self.terms, self.ontology
        for annotation_id in annotation_ids:
            if annotation_id not in graph:
                continue
            if terms is not None:
                terms.update(index_terms(annotation_id))
            ontology.update(agraph.ontology_terms_of(annotation_id))
            for referent_id in agraph.referents_of(annotation_id):
                ontology.update(agraph.ontology_terms_of(referent_id))
                referent = referents.view(referent_id)
                if referent is not None:
                    self._add_extent(referent.ref)

    def _add_extent(self, ref) -> None:
        self.types.add(ref.data_type.value)
        if ref.interval is not None:
            domain = ref.interval.domain or ref.object_id
            self.intervals.setdefault(domain, []).append((ref.interval.start, ref.interval.end))
        elif ref.rect is not None:
            space = ref.rect.space or ref.object_id
            self.regions.setdefault(space, []).append((ref.rect.lo, ref.rect.hi))


def sharing(manager, annotation_id: str) -> set[str]:
    """*annotation_id* and every annotation that annotates one of its
    referents (just the id when it is not committed)."""
    agraph = manager.agraph
    found = {annotation_id}
    if annotation_id in agraph.graph:
        for referent_id in agraph.referents_of(annotation_id):
            found.update(agraph.contents_annotating(referent_id))
    return found


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

"""The Graphitti manager facade.

:class:`Graphitti` is the single object a user interacts with.  It owns every
substrate and wires them together on commit:

* the :class:`~repro.datatypes.registry.DataTypeRegistry` of annotable objects,
* one metadata row per registered object (type, domain, description,
  metadata and raw bytes), built by :func:`repro.core.persistence.metadata_row`,
* the :class:`~repro.xmlstore.collection.DocumentCollection` of annotation
  contents,
* the :class:`~repro.core.substructure_store.SubstructureStore` (interval
  trees + R-trees) indexing referents,
* the ontologies and their :class:`~repro.ontology.operations.OntologyOperations`,
* the :class:`~repro.agraph.agraph.AGraph` join index.

It exposes the paper's three workflows: **annotate** (``new_annotation`` +
``commit``), **query** (keyword / ontology / spatial / path search), and
**explore** (related annotations, correlated data).
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from typing import Any, Callable, Iterable

from repro.agraph.agraph import ANNOTATES, REFERS_TO, AGraph, NodeKind
from repro.analysis.annotations import requires_write_lock
from repro.agraph.connection import ConnectionSubgraph
from repro.core.annotation import Annotation, Referent, rect_corners
from repro.core.builder import AnnotationBuilder
from repro.core.columns import AnnotationColumns
from repro.core.footprint import Footprint, WriteState, text_delta, write_footprint
from repro.core.persistence import (
    decode_referent,
    encode_register,
    link_edges,
    metadata_row,
    wire_annotations,
)
from repro.core.substructure_store import SubstructureStore
from repro.datatypes.base import DataObject
from repro.datatypes.registry import DataTypeRegistry
from repro.errors import AnnotationError, GraphittiError, UnknownObjectError
from repro.ontology.model import Ontology
from repro.ontology.operations import OntologyOperations
from repro.query.idspace import AnnotationIdSpace
from repro.query.stats import StatisticsCatalogue
from repro.spatial.coordinate import CoordinateSystemRegistry
from repro.xmlstore.collection import DocumentCollection


def _extent_text_parts(ref) -> list[str]:
    """The rendered coordinate strings of a spatial extent (its document
    text contribution that changes under a move)."""
    if ref.interval is not None:
        return [str(ref.interval.start), str(ref.interval.end)]
    if ref.rect is not None:
        return list(rect_corners(ref.rect))
    return []


class Graphitti:
    """The annotation management system facade.

    Parameters
    ----------
    name:
        Instance name (used to name the content collection and snapshots).
    id_namespace:
        Optional namespace woven into generated annotation ids
        (``anno-<namespace>-000001``).  The sharded serving layer sets one
        per shard so every generated id *encodes the shard that owns it* and
        point lookups route without a scatter.
    """

    def __init__(self, name: str = "graphitti", id_namespace: str | None = None):
        self.name = name
        self.id_namespace = id_namespace
        self.registry = DataTypeRegistry()
        #: ``object_id -> metadata row`` in registration order.
        self.metadata_rows: dict[str, dict[str, Any]] = {}
        self.contents = DocumentCollection(f"{name}-annotations")
        self.substructures = SubstructureStore()
        self.agraph = AGraph()
        self.coordinate_systems = CoordinateSystemRegistry()
        self._ontologies: dict[str, Ontology] = {}
        self._ontology_ops: dict[str, OntologyOperations] = {}
        #: Committed annotations live in columnar storage (see
        #: :mod:`repro.core.columns`) keyed by the dense id-space slots.
        #: Commit order and membership come from `_annotation_order`; a small
        #: LRU of materialized row views serves repeated point reads (commit
        #: seeds it with the committed object itself).
        self.columns = AnnotationColumns(pool=self.substructures.columns.pool)
        self._annotation_order: dict[str, None] = {}
        self._row_cache: OrderedDict[str, Annotation] = OrderedDict()
        self._next_annotation_serial = 1
        #: True for instances rebuilt from a snapshot (data objects not
        #: reconstructed; see :mod:`repro.core.persistence`).
        self.catalogue_only = False
        #: Monotonic counter bumped by every mutation (register / commit /
        #: update / delete / ...); :meth:`statistics` reports it.
        self.mutation_epoch = 0
        #: Called with each mutation's :class:`~repro.core.footprint.Footprint`
        #: (None: it may touch anything) as the mutation applies; empty
        #: unless a serving layer attached its result cache
        #: (:meth:`attach_footprints`), so a bare instance, a snapshot load,
        #: WAL replay and a manager whose services have closed build none.
        self.footprint_sinks: tuple[Callable[[Footprint | None], None], ...] = ()
        #: Extra statistics sources merged into :meth:`statistics` (the
        #: serving layer registers its cache/WAL counters here).
        self.stats_providers: list[Callable[[], dict[str, Any]]] = []
        #: Dense annotation-id interner the column store keys its rows by
        #: (see :mod:`repro.query.idspace`).
        self.idspace = AnnotationIdSpace()
        #: Live statistics catalogue the planner counts from; updated
        #: on every commit/delete and rebuilt by snapshot load / WAL replay.
        self.stats_catalogue = StatisticsCatalogue()

    def _bump_epoch(self, footprint: Footprint | None = None) -> None:
        """Advance the mutation epoch (called after every state mutation)
        and hand each footprint sink *footprint*, what the mutation touched
        (None: anything)."""
        self.mutation_epoch += 1
        for sink in self.footprint_sinks:
            sink(footprint)

    def attach_footprints(self, sink: Callable[[Footprint | None], None]) -> None:
        """Hand *sink* the footprint of every mutation from now on."""
        self.footprint_sinks += (sink,)

    def detach_footprints(self, sink: Callable[[Footprint | None], None]) -> None:
        """Stop handing *sink* footprints."""
        sinks = list(self.footprint_sinks)
        sinks.remove(sink)
        self.footprint_sinks = tuple(sinks)

    def _rewire(
        self, annotation: Annotation, before: WriteState | None, after: WriteState | None
    ) -> None:
        """Link the a-graph edges in ``after - before`` and unlink those in
        ``before - after`` (a commit links every edge of *after*, nodes
        first, in wiring order)."""
        if before is None:
            link_edges(self.agraph, annotation, after.edges)
        elif after is None:
            self._unlink_edges(before.edges)
        elif after.edges != before.edges:
            old, new = Counter(before.edges), Counter(after.edges)
            link_edges(self.agraph, annotation, (new - old).elements())
            self._unlink_edges(list((old - new).elements()))

    # -- ontology management --------------------------------------------------

    def approve_register_ontology(self, ontology: Ontology) -> None:
        """Refuse registering *ontology* when its name is taken."""
        if ontology.name in self._ontologies:
            raise GraphittiError(f"ontology {ontology.name!r} already registered")

    @requires_write_lock
    def register_ontology(self, ontology: Ontology, cache: bool = True) -> OntologyOperations:
        """Register an ontology and return its operation interface."""
        self.approve_register_ontology(ontology)
        self._ontologies[ontology.name] = ontology
        ops = OntologyOperations(ontology, cache=cache)
        self._ontology_ops[ontology.name] = ops
        self._bump_epoch()
        return ops

    def ontology(self, name: str) -> Ontology:
        """The registered ontology named *name*."""
        try:
            return self._ontologies[name]
        except KeyError:
            raise GraphittiError(f"no ontology named {name!r}") from None

    def ontology_ops(self, name: str) -> OntologyOperations:
        """The :class:`OntologyOperations` for ontology *name*."""
        try:
            return self._ontology_ops[name]
        except KeyError:
            raise GraphittiError(f"no ontology named {name!r}") from None

    def ontologies(self) -> list[str]:
        """Names of every registered ontology."""
        return list(self._ontologies)

    def resolve_ontology_term(self, text: str) -> str:
        """Resolve a term id or name against every registered ontology.

        Returns the term id unchanged when it already exists; otherwise the
        first matching ontology term id.  Raises when nothing matches and the
        text is not already a bare id (so unknown raw ids pass through, which
        lets callers reference terms before loading an ontology in tests).
        """
        for ontology in self._ontologies.values():
            if text in ontology:
                return text
            matches = ontology.find_by_name(text)
            if matches:
                return matches[0].term_id
        # Not found by name anywhere; treat as an opaque id.
        return text

    # -- data object registration ---------------------------------------------

    def approve_register(
        self, obj: DataObject, raw: bytes | None = None, **metadata: Any
    ) -> dict[str, Any]:
        """Refuse registering *obj* (an id already taken, metadata that is
        not JSON-compatible, *raw* that is not bytes); returns its row."""
        if obj.object_id in self.metadata_rows:
            raise UnknownObjectError(f"data object {obj.object_id!r} already registered")
        return metadata_row(encode_register(obj, {**obj.metadata, **metadata}), raw)

    @requires_write_lock
    def register(self, obj: DataObject, raw: bytes | None = None, **metadata: Any) -> DataObject:
        """Register an annotable data object and record its metadata row."""
        row = self.approve_register(obj, raw, **metadata)
        self.registry.register(obj)
        self.metadata_rows[obj.object_id] = row
        self._register_coordinate_system(obj)
        self._bump_epoch()
        return obj

    def _register_coordinate_system(self, obj: DataObject) -> None:
        from repro.datatypes.image import Image
        from repro.datatypes.sequence import Sequence
        from repro.datatypes.alignment import MultipleSequenceAlignment

        if isinstance(obj, Image):
            if obj.dimension == 2:
                self.coordinate_systems.planar(obj.coordinate_space)
            else:
                self.coordinate_systems.volumetric(obj.coordinate_space)
        elif isinstance(obj, (Sequence, MultipleSequenceAlignment)):
            domain = obj.coordinate_domain
            if domain is not None and domain not in self.coordinate_systems:
                self.coordinate_systems.linear(domain)

    def data_object(self, object_id: str) -> DataObject:
        """The registered data object with id *object_id*."""
        return self.registry.get(object_id)

    def object_metadata(self, object_id: str) -> dict[str, Any]:
        """A copy of the metadata row for *object_id*."""
        row = self.metadata_rows.get(object_id)
        if row is None:
            raise UnknownObjectError(f"no metadata for object {object_id!r}")
        return dict(row)

    # -- annotation workflow ---------------------------------------------------

    @requires_write_lock
    def new_annotation(
        self,
        annotation_id: str | None = None,
        title: str = "",
        creator: str = "",
        keywords: Iterable[str] = (),
        body: str = "",
        description: str = "",
    ) -> AnnotationBuilder:
        """Start building a new annotation (the annotation-tab workflow)."""
        identifier = annotation_id or self._generate_annotation_id()
        if identifier in self._annotation_order:
            raise AnnotationError(f"annotation id {identifier!r} already exists")
        return AnnotationBuilder(self, identifier, title, creator, keywords, body, description)

    @requires_write_lock
    def _generate_annotation_id(self) -> str:
        prefix = f"anno-{self.id_namespace}-" if self.id_namespace else "anno-"
        while True:
            identifier = f"{prefix}{self._next_annotation_serial:06d}"
            self._next_annotation_serial += 1
            if identifier not in self._annotation_order:
                return identifier

    def _approve_node_kinds(
        self, nodes: Iterable[tuple[str, str]], kinds: dict[str, str] | None = None
    ) -> None:
        """Refuse a write that would give one a-graph node id two kinds.

        *nodes* are ``(id, kind)`` pairs the write adds; an id already in
        the a-graph must keep its kind, and so must an id the same write
        (*kinds*, shared across a batch) already gave one.
        """
        graph = self.agraph.graph
        kinds = {} if kinds is None else kinds
        for node_id, kind in nodes:
            held = kinds.setdefault(node_id, graph.kind(node_id) if node_id in graph else kind)
            if held != kind:
                raise AnnotationError(
                    f"id {node_id!r} names an a-graph {held} node, not a {kind} node"
                )

    def approve_commit(self, annotations: Iterable[Annotation]) -> None:
        """Refuse committing *annotations* (one, or a batch) when an id is
        committed here or repeats inside the batch, a referent marks an
        unregistered object, or an a-graph node id would take a second kind."""
        seen: set[str] = set()
        kinds: dict[str, str] = {}
        for annotation in annotations:
            identifier = annotation.annotation_id
            if identifier in self._annotation_order or identifier in seen:
                raise AnnotationError(f"annotation {identifier!r} already committed")
            seen.add(identifier)
            for referent in annotation.referents:
                if referent.ref.object_id not in self.registry:
                    raise UnknownObjectError(
                        f"annotation references unregistered object {referent.ref.object_id!r}"
                    )
            self._approve_node_kinds(annotation.agraph_nodes(), kinds)

    @requires_write_lock
    def commit(self, annotation: Annotation) -> Annotation:
        """Commit one annotation: :meth:`commit_many` on a batch of one."""
        return self.commit_many([annotation])[0]

    @requires_write_lock
    def commit_many(self, annotations: Iterable[Annotation]) -> list[Annotation]:
        """Commit a batch of annotations: store content, index referents,
        wire the a-graph.

        The batch is approved once, whole, so a bad batch fails before any
        member applies.  It is then registered exactly as a snapshot load
        registers its records (:func:`~repro.core.persistence.wire_annotations`):
        each content document is parked — its searchable text indexed now,
        its tree built for the first reader handed it — and each spatial
        index takes the batch's extents in one ``insert_many`` call.
        """
        batch = list(annotations)
        self.approve_commit(batch)
        wire_annotations(self, batch)
        return batch

    #: Materialized row views kept hot (commit seeds entries; reads refresh).
    _ROW_CACHE_SIZE = 2048

    def _cache_row(self, annotation_id: str, annotation: Annotation) -> None:
        # Concurrent readers share the cache without a lock, so another
        # reader may evict this id at any moment: pop then set moves it to
        # the end without a ``move_to_end`` that could miss it.
        cache = self._row_cache
        cache.pop(annotation_id, None)
        cache[annotation_id] = annotation
        while len(cache) > self._ROW_CACHE_SIZE:
            cache.popitem(last=False)

    def annotation(self, annotation_id: str) -> Annotation:
        """The committed annotation with id *annotation_id*.

        Served from the columnar store: a small LRU keeps recently used row
        views; misses materialize a fresh view from the columns (wrapping the
        canonical shared referent extents, so a view never goes stale under
        extent moves).
        """
        cached = self._row_cache.get(annotation_id)
        if cached is not None:
            try:
                self._row_cache.move_to_end(annotation_id)
            except KeyError:  # another reader evicted it meanwhile
                pass
            return cached
        slot = self.idspace.slot(annotation_id)
        if slot is None or not self.columns.is_live(slot):
            raise AnnotationError(f"no annotation {annotation_id!r}")
        annotation = self.columns.materialize(annotation_id, slot, self.substructures.columns)
        self._cache_row(annotation_id, annotation)
        return annotation

    def has_annotation(self, annotation_id: str) -> bool:
        """Whether *annotation_id* is a committed annotation."""
        return annotation_id in self._annotation_order

    def annotation_ids(self) -> list[str]:
        """Ids of every committed annotation, in commit order."""
        return list(self._annotation_order)

    def approve_delete_annotation(self, annotation_id: str) -> Annotation:
        """Refuse deleting an annotation not committed here; returns its row."""
        return self.annotation(annotation_id)

    @requires_write_lock
    def delete_annotation(self, annotation_id: str) -> None:
        """Remove a committed annotation and tidy the wired substrates.

        The content document and content node are removed, and one copy of
        each edge the annotation derives (:meth:`Annotation.agraph_edges`) is
        unlinked.  Referent nodes and their indexed extents are removed only
        when no *other* annotation still shares them (a referent shared by
        several annotations survives), which keeps the indirect-relatedness
        structure correct.
        """
        annotation = self.approve_delete_annotation(annotation_id)
        before = WriteState(annotation)
        terms = self.contents.remove(annotation_id)
        self._rewire(annotation, before, None)
        if annotation_id in self.agraph:
            self.agraph.graph.remove_node(annotation_id)
        slot = self.idspace.slot(annotation_id)
        if slot is not None:
            self.columns.clear(slot)
        del self._annotation_order[annotation_id]
        self._row_cache.pop(annotation_id, None)
        self.idspace.release(annotation_id)
        self.stats_catalogue.apply(annotation_id, before, None)
        self._bump_epoch(write_footprint(self, annotation_id, before, None, terms))

    def _unlink_edges(self, edges: list[tuple[str, str, str]]) -> None:
        """Unlink one copy of each derived edge in *edges*.

        A referent left with no ``annotates`` in-edge — no annotation marks
        it any more — loses its node and its indexed extent.
        """
        agraph = self.agraph
        for label, source, target in edges:
            agraph.unlink(label, source, target)
        for label, _, referent_id in edges:
            if (
                label == ANNOTATES
                and referent_id in agraph
                and not agraph.contents_annotating(referent_id)
            ):
                agraph.graph.remove_node(referent_id)
                self.substructures.discard(referent_id)

    #: Keys :meth:`update_annotation` understands.
    _UPDATE_KEYS = frozenset(
        {
            "title", "creator", "description", "keywords", "body", "user_tags",
            "ontology_terms", "add_referents", "remove_referents", "move_referents",
        }
    )

    def approve_update(
        self, annotation_id: str, changes: dict[str, Any]
    ) -> tuple[Annotation, dict[str, Any]]:
        """Refuse an :meth:`update_annotation` that could not apply whole.

        Returns the annotation's row view and the normalized change set
        (``add_referents`` decoded, ``remove_referents`` a list,
        ``move_referents`` plain dicts, ``ontology_terms`` deduplicated and
        resolved), so the apply decodes nothing twice.
        """
        annotation = self.annotation(annotation_id)
        unknown = set(changes) - self._UPDATE_KEYS
        if unknown:
            raise AnnotationError(
                f"unknown update key(s) {sorted(unknown)!r} for annotation {annotation_id!r}"
            )
        normalized = dict(changes)
        additions = normalized["add_referents"] = [
            item if isinstance(item, Referent) else decode_referent(item)
            for item in changes.get("add_referents", ())
        ]
        removals = normalized["remove_referents"] = list(changes.get("remove_referents", ()))
        moves = normalized["move_referents"] = {
            referent_id: dict(extent)
            for referent_id, extent in dict(changes.get("move_referents", {})).items()
        }
        if "ontology_terms" in changes:
            normalized["ontology_terms"] = [
                self.resolve_ontology_term(term)
                for term in dict.fromkeys(changes["ontology_terms"])
            ]
        for referent in additions:
            if referent.ref.object_id not in self.registry:
                raise UnknownObjectError(
                    f"annotation references unregistered object {referent.ref.object_id!r}"
                )
        nodes = []
        for referent in additions:
            nodes.append((referent.referent_id, NodeKind.REFERENT.value))
            nodes.extend((term, NodeKind.ONTOLOGY.value) for term in referent.ontology_terms)
        content_terms = normalized.get("ontology_terms", ())
        nodes.extend((term, NodeKind.ONTOLOGY.value) for term in content_terms)
        self._approve_node_kinds(nodes)
        existing_ids = [ref.referent_id for ref in annotation.referents]
        for referent_id in removals:
            if referent_id not in existing_ids:
                raise AnnotationError(
                    f"annotation {annotation_id!r} has no referent {referent_id!r}"
                )
        for referent_id, extent in moves.items():
            if referent_id not in existing_ids or referent_id in removals:
                raise AnnotationError(
                    f"annotation {annotation_id!r} cannot move referent {referent_id!r}"
                )
            # Fully vet the move here: the apply mutates state before the
            # move applies, so a bad extent spec must never get past approval
            # (the whole change set applies or none of it does).
            target = next(
                referent for referent in annotation.referents
                if referent.referent_id == referent_id
            )
            if target.ref.interval is not None:
                if not set(extent) <= {"start", "end"} or not extent:
                    raise AnnotationError(
                        f"referent {referent_id!r} is 1D; move it with start/end"
                    )
            elif target.ref.rect is not None:
                if not set(extent) <= {"lo", "hi"} or not extent:
                    raise AnnotationError(
                        f"referent {referent_id!r} is 2D/3D; move it with lo/hi"
                    )
                dimension = len(target.ref.rect.lo)
                for corner in ("lo", "hi"):
                    if corner in extent and len(tuple(extent[corner])) != dimension:
                        raise AnnotationError(
                            f"move for referent {referent_id!r} needs {dimension} "
                            f"coordinate(s) per corner"
                        )
            else:
                raise AnnotationError(
                    f"referent {referent_id!r} has no spatial extent to move"
                )
        surviving = len(existing_ids) - len(set(removals)) + len(additions)
        terms = normalized.get("ontology_terms", annotation.content.ontology_terms)
        if surviving <= 0 and not terms:
            raise AnnotationError(
                "an annotation must keep at least one referent or ontology reference"
            )
        return annotation, normalized

    @requires_write_lock
    def update_annotation(self, annotation_id: str, changes: dict[str, Any]) -> Annotation:
        """Apply *changes* to a committed annotation with **delta** index
        maintenance — the edit stays in place instead of delete+recommit.

        Supported keys:

        * ``title`` / ``creator`` / ``description`` / ``keywords`` / ``body``
          / ``user_tags`` — replace the corresponding content field;
        * ``ontology_terms`` — replace the *content-level* ontology pointers
          (``refers_to`` edges are diffed, not rebuilt);
        * ``add_referents`` — :class:`Referent` objects (or their codec
          dicts) to attach, wired exactly like a commit wires them;
        * ``remove_referents`` — referent ids to detach; a referent still
          annotated by another annotation survives (the shared-referent
          survival rule deletes obey);
        * ``move_referents`` — ``{referent_id: {"start": .., "end": ..}}``
          (or ``{"lo": .., "hi": ..}``) extent moves applied in place inside
          the interval tree / R-tree.

        The whole change set is approved (:meth:`approve_update`) before
        anything applies.  The annotation's :class:`WriteState` is taken
        once before the edit and once after, and every index applies that
        pair: the inverted index re-posts only the searchable part groups
        that differ, the a-graph links and unlinks only the edges that
        differ, the statistics catalogue adjusts by the type and term
        differences, and the footprint (while a sink takes one) is
        the two states plus each annotation sharing a referent with them,
        read once after the edit.  Moves are one remove+insert inside the owning
        spatial tree, and the annotation keeps its dense id-space slot.
        """
        annotation, changes = self.approve_update(annotation_id, changes)
        before = WriteState(annotation, searchable=True)

        # -- 1. content field edits (in place) ------------------------------
        content = annotation.content
        dublin_core = content.dublin_core
        for field in ("title", "creator", "description"):
            if field in changes:
                setattr(dublin_core, field, changes[field])
        if "keywords" in changes:
            dublin_core.subject = list(changes["keywords"])
        if "body" in changes:
            content.body = changes["body"]
        if "user_tags" in changes:
            content.user_tags = dict(changes["user_tags"])
        if "ontology_terms" in changes:
            content.ontology_terms = list(changes["ontology_terms"])

        # -- 2. referent removals and additions -----------------------------
        removals = set(changes["remove_referents"])
        if removals:
            annotation._referents = [  # noqa: SLF001 - owning mutation path
                referent for referent in annotation._referents  # noqa: SLF001
                if referent.referent_id not in removals
            ]
        for referent in changes["add_referents"]:
            annotation._referents.append(referent)  # noqa: SLF001 - owning mutation path
            self.substructures.add(referent)

        # -- 3. extent moves (one remove+insert inside the owning tree) ------
        for referent_id, extent in changes["move_referents"].items():
            moved = self.substructures.get(referent_id)
            move_removed = _extent_text_parts(moved.ref)
            self.substructures.move(referent_id, **extent)
            move_added = _extent_text_parts(moved.ref)
            # A shared substructure moves for EVERY annotation marking it.
            # The store's referent is canonical (its ref just mutated), and
            # column-materialized row views wrap that same ref object, so
            # they see the move automatically.  Only cached rows seeded at
            # commit hold their own Referent copies and need the explicit
            # adoption.  Each sharer's stored document gets the coordinate
            # delta so every index stays exact (the edited annotation's own
            # delta comes from its two states below).
            for sharer_id in self.agraph.contents_annotating(referent_id):
                cached = self._row_cache.get(sharer_id)
                if cached is not None:
                    for shared_referent in cached._referents:  # noqa: SLF001 - sync path
                        if shared_referent.referent_id == referent_id:
                            shared_referent.ref = moved.ref
                if sharer_id != annotation_id:
                    self.contents.update_delta(
                        sharer_id,
                        self._document_regenerator(sharer_id),
                        move_removed,
                        move_added,
                    )

        # -- 4. every index applies the before/after pair --------------------
        # The document is re-parked: churn never renders documents nobody
        # reads between edits.
        after = WriteState(annotation, searchable=True)
        old_terms, new_terms = self.contents.update_delta(
            annotation_id, self._document_regenerator(annotation_id), *text_delta(before, after)
        )
        self._rewire(annotation, before, after)
        # Re-store the edited row at its (unchanged) slot: the old blob/span
        # becomes tombstone garbage reclaimed by compaction.
        slot = self.idspace.slot(annotation_id)
        if slot is not None:
            self.columns.store(slot, annotation, self.substructures.columns)
        self._cache_row(annotation_id, annotation)
        self.stats_catalogue.apply(annotation_id, before, after)
        terms = (*old_terms, *new_terms)
        self._bump_epoch(write_footprint(self, annotation_id, before, after, terms))
        return annotation

    def _document_regenerator(self, annotation_id: str) -> Callable[[], Any]:
        """A lazy ``to_document`` for *annotation_id* (materializes the row
        view only if the collection actually needs to regenerate the XML)."""
        def regenerate():
            return self.annotation(annotation_id).to_document()

        return regenerate

    def annotations_on_object(self, object_id: str) -> list[str]:
        """Ids of every committed annotation with a referent on *object_id*.

        Answered from the substructure store's per-object index plus the
        a-graph's ``annotates`` in-edges — O(answer), no annotation scan.
        """
        referents = self.substructures.referents_on_object(object_id)
        return sorted(
            self.agraph.annotation_counts(
                referent.referent_id for referent in referents
            )
        )

    def approve_delete_object(self, object_id: str, cascade: bool = True) -> list[str]:
        """Refuse retiring an unknown object, or (without *cascade*) one an
        annotation still references; returns the annotations on it."""
        if object_id not in self.registry:
            raise UnknownObjectError(f"no data object {object_id!r} registered")
        annotation_ids = self.annotations_on_object(object_id)
        if annotation_ids and not cascade:
            raise AnnotationError(
                f"data object {object_id!r} is referenced by "
                f"{len(annotation_ids)} annotation(s); pass cascade=True to delete them"
            )
        return annotation_ids

    @requires_write_lock
    def delete_object(self, object_id: str, cascade: bool = True) -> list[str]:
        """Retire a data object; returns the ids of cascade-deleted annotations.

        With ``cascade=True`` (default) every annotation with a referent on
        the object is deleted first — including annotations that also mark
        *other* objects (their referents elsewhere follow the shared-referent
        survival rule).  With ``cascade=False`` the call refuses while any
        annotation still references the object.  The object's registry entry
        and metadata row are then removed, along with any referent of the
        object left in the store.
        """
        annotation_ids = self.approve_delete_object(object_id, cascade)
        for annotation_id in annotation_ids:
            self.delete_annotation(annotation_id)
        # Defensive sweep: a referent of the object that somehow survived the
        # cascade (e.g. wired without an annotation) must not outlive it.
        for referent in self.substructures.referents_on_object(object_id):
            referent_id = referent.referent_id
            self.substructures.discard(referent_id)
            if referent_id in self.agraph:
                self.agraph.graph.remove_node(referent_id)
        self.registry.unregister(object_id)
        self.metadata_rows.pop(object_id, None)
        self._bump_epoch()
        return annotation_ids

    def annotations(self) -> list[Annotation]:
        """Every committed annotation, materialized in commit order.

        This walks the columns and builds a full row view per annotation —
        prefer :meth:`annotation_ids` plus targeted reads (or the column
        accessors) on large instances.
        """
        return [self.annotation(annotation_id) for annotation_id in self._annotation_order]

    @property
    def annotation_count(self) -> int:
        """Number of committed annotations."""
        return len(self._annotation_order)

    # -- columnar storage management ------------------------------------------

    def storage_stats(self) -> dict[str, Any]:
        """Live/tombstone slot counts and heap sizes of the columnar store."""
        return {
            "annotations": self.columns.storage_stats(),
            "referents": self.substructures.columns.storage_stats(),
            "row_cache_entries": len(self._row_cache),
        }

    @requires_write_lock
    def compact_storage(self) -> dict[str, Any]:
        """Rewrite the column heaps dropping tombstoned rows.

        Safe against an in-flight frozen snapshot view: compaction swaps in
        new heap objects, leaving the frozen references intact.
        """
        reclaimed = self.columns.compact()
        self.substructures.columns.compact()
        self._bump_epoch()
        return reclaimed

    # -- query workflow --------------------------------------------------------

    def search_by_keyword(self, keyword: str, mode: str = "and") -> list[str]:
        """Annotation ids whose content contains the keyword(s)."""
        return self.contents.search_keyword(keyword, mode=mode)

    def search_by_ontology(self, term: str, ontology: str | None = None, include_descendants: bool = True) -> list[str]:
        """Annotation ids that point (directly or via a referent) at an
        ontology term or any of its descendants."""
        target_terms = self._expand_ontology_term(term, ontology, include_descendants)
        matches: set[str] = set()
        agraph = self.agraph
        for term_id in target_terms:
            if term_id not in agraph:
                continue
            for source in agraph.graph.predecessors(term_id, label=REFERS_TO):
                if agraph.graph.kind(source) == NodeKind.CONTENT.value:
                    matches.add(source)
                else:
                    matches.update(agraph.contents_annotating(source))
        return sorted(matches)

    def _expand_ontology_term(self, term: str, ontology: str | None, include_descendants: bool) -> set[str]:
        names = [ontology] if ontology is not None else list(self._ontologies)
        for name in names:
            ops = self._ontology_ops.get(name)
            if ops is None:
                continue
            try:
                if include_descendants:
                    return ops.concept_and_descendants(term)
                return {ops.resolve_term(term)}
            except GraphittiError:
                continue
        return {term}

    def search_by_overlap_interval(self, domain: str, start: float, end: float) -> list[str]:
        """Annotation ids whose referents overlap ``[start, end]`` in *domain*."""
        referent_ids = self.substructures.interval_ids(domain, start, end)
        return sorted(self.agraph.annotation_counts(referent_ids))

    def search_by_overlap_region(self, space: str, lo, hi) -> list[str]:
        """Annotation ids whose referents overlap the query box in *space*."""
        referent_ids = self.substructures.region_ids(space, lo, hi)
        return sorted(self.agraph.annotation_counts(referent_ids))

    def path_between_annotations(self, annotation1: str, annotation2: str) -> list | None:
        """A path in the a-graph between two annotation contents."""
        return self.agraph.path(annotation1, annotation2)

    def query(self, text_or_query, tracer=None):
        """Run a GQL query (text or :class:`~repro.query.ast.Query`) and return
        its :class:`~repro.query.result.QueryResult`.

        The planner orders constraints by the counts the indexes hold (see
        :mod:`repro.query.planner`) and the executor adapts as the candidate
        set shrinks.  *tracer* (a :class:`repro.obs.Tracer`) makes the
        executor emit per-constraint and collation spans under whatever span
        is open on this thread.
        """
        from repro.query.ast import Query as _Query
        from repro.query.executor import QueryExecutor
        from repro.query.parser import parse_query

        query = text_or_query if isinstance(text_or_query, _Query) else parse_query(text_or_query)
        return QueryExecutor(self, tracer=tracer).execute(query)

    def explain(self, text_or_query) -> dict:
        """Return the query plan without executing it.

        The returned dict holds the parsed query description, the ordered plan
        explanation, the per-type subquery count, the targets touched, and
        ``estimated_rows``: each step's count, or None where the planner
        counted none (a one-constraint query, a PATH, a tree walk that
        stopped early) — the information an ``EXPLAIN`` surfaces.  It is the
        plan :meth:`query` would execute.
        """
        from repro.query.ast import Query as _Query
        from repro.query.parser import parse_query
        from repro.query.planner import QueryPlanner

        query = text_or_query if isinstance(text_or_query, _Query) else parse_query(text_or_query)
        plan = QueryPlanner(self).plan(query)
        return {
            "query": query.describe(),
            "plan": plan.explain(),
            "subqueries": plan.subquery_count(),
            "targets": [target.value for target in query.targets_present()],
            "estimated_rows": [
                (constraint.describe(), rows)
                for constraint, rows in zip(plan.ordered_constraints, plan.estimated_rows)
            ],
        }

    def connect_annotations(self, *annotation_ids: str) -> ConnectionSubgraph:
        """A connection subgraph intervening several annotations."""
        return self.agraph.connect(*annotation_ids)

    # -- explore workflow ------------------------------------------------------

    def related_annotations(self, annotation_id: str) -> list[str]:
        """Annotations indirectly related through a shared referent."""
        return sorted(self.agraph.related_annotations(annotation_id))

    def graph_metrics(self):
        """Return an :class:`~repro.agraph.metrics.AGraphMetrics` over the a-graph."""
        from repro.agraph.metrics import AGraphMetrics

        return AGraphMetrics(self.agraph)

    def similar_annotations(self, annotation_id: str, top: int = 3) -> list[tuple[str, float]]:
        """Annotations most similar to *annotation_id* by shared referents.

        Similarity is the Jaccard overlap of the two annotations' referent
        sets — the "browse through further related results" step of the query
        tab, ranked.
        """
        return self.graph_metrics().most_similar(annotation_id, top=top)

    def correlated_data(self, annotation_id: str) -> dict[str, list[str]]:
        """Correlated-data view: for each referent, the *other* annotations on
        the same referent, plus the objects those annotations touch."""
        annotation = self.annotation(annotation_id)
        correlated: dict[str, list[str]] = {}
        for referent in annotation.referents:
            referent_id = referent.referent_id
            others = [
                other
                for other in self.agraph.contents_annotating(referent_id)
                if other != annotation_id
            ]
            correlated[referent_id] = sorted(others)
        return correlated

    def witness_structure(self, annotation_id: str) -> dict[str, Any]:
        """The full witness structure of an annotation: content + the
        substructures it annotates (the paper's "correlated data viewing")."""
        annotation = self.annotation(annotation_id)
        return {
            "annotation": annotation_id,
            "keywords": annotation.content.keywords(),
            "referents": [
                {
                    "referent_id": referent.referent_id,
                    "object": referent.ref.object_id,
                    "type": referent.ref.data_type.value,
                    "descriptor": referent.ref.descriptor,
                    "ontology_terms": referent.ontology_terms,
                }
                for referent in annotation.referents
            ],
            "ontology_terms": sorted(annotation.ontology_terms()),
        }

    # -- administration --------------------------------------------------------

    def administrator(self):
        """Return an :class:`~repro.core.admin.Administrator` (admin tab)."""
        from repro.core.admin import Administrator

        return Administrator(self)

    def check_integrity(self):
        """Convenience: run a full integrity check and return the report."""
        return self.administrator().check_integrity()

    # -- stats -----------------------------------------------------------------

    def statistics(self) -> dict[str, Any]:
        """Summary statistics about the instance (sizes of every substrate).

        Extra sources registered in :attr:`stats_providers` (the serving
        layer's cache / WAL counters) are merged into the returned dict.
        """
        interval_trees, rtrees = self.substructures.index_count()
        stats = {
            "data_objects": len(self.registry),
            "objects_by_type": {dt.value: n for dt, n in self.registry.count_by_type().items()},
            "annotations": self.annotation_count,
            "referents": len(self.substructures),
            "interval_trees": interval_trees,
            "rtrees": rtrees,
            "indexed_intervals": self.substructures.total_indexed_intervals(),
            "indexed_regions": self.substructures.total_indexed_regions(),
            "agraph_nodes": self.agraph.node_count,
            "agraph_nodes_by_kind": self.agraph.graph.kind_counts(),
            "agraph_edges": self.agraph.edge_count,
            "agraph": {"rederived_nodes": self.agraph.graph.rederived_nodes},
            "ontologies": len(self._ontologies),
            "mutation_epoch": self.mutation_epoch,
            "catalogue": self.stats_catalogue.summary(),
        }
        for provider in self.stats_providers:
            stats.update(provider())
        return stats

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

from collections import OrderedDict
from typing import Any, Callable, Iterable

from repro.agraph.agraph import AGraph
from repro.analysis.annotations import requires_write_lock
from repro.agraph.connection import ConnectionSubgraph
from repro.core.annotation import Annotation, Referent, rect_corners
from repro.core.builder import AnnotationBuilder
from repro.core.columns import AnnotationColumns
from repro.core.dublin_core import DublinCore
from repro.core.annotation import AnnotationContent
from repro.core.persistence import decode_referent, encode_register, metadata_row
from repro.core.substructure_store import SubstructureStore
from repro.datatypes.base import DataObject, DataType
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
    indexed_contents:
        Whether the annotation-content collection maintains a keyword index
        (default True; set False to benchmark the index-free path).
    id_namespace:
        Optional namespace woven into generated annotation ids
        (``anno-<namespace>-000001``).  The sharded serving layer sets one
        per shard so every generated id *encodes the shard that owns it* and
        point lookups route without a scatter.
    """

    def __init__(
        self,
        name: str = "graphitti",
        indexed_contents: bool = True,
        id_namespace: str | None = None,
    ):
        self.name = name
        self.id_namespace = id_namespace
        self.registry = DataTypeRegistry()
        #: ``object_id -> metadata row`` in registration order.
        self.metadata_rows: dict[str, dict[str, Any]] = {}
        self.contents = DocumentCollection(f"{name}-annotations", indexed=indexed_contents)
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
        #: delete).  The serving layer's query-result cache tags entries with
        #: the epoch they were computed at and treats any entry from an older
        #: epoch as invalid, which makes cache invalidation a single compare.
        self.mutation_epoch = 0
        #: Extra statistics sources merged into :meth:`statistics` (the
        #: serving layer registers its cache/WAL counters here).
        self.stats_providers: list[Callable[[], dict[str, Any]]] = []
        #: Dense annotation-id interner backing the executor's bitset
        #: candidate sets (see :mod:`repro.query.idspace`).
        self.idspace = AnnotationIdSpace()
        #: Live statistics catalogue feeding the cost-based planner; updated
        #: on every commit/delete and rebuilt by snapshot load / WAL replay.
        self.stats_catalogue = StatisticsCatalogue()

    def _bump_epoch(self) -> int:
        """Advance the mutation epoch (called after every state mutation)."""
        self.mutation_epoch += 1
        return self.mutation_epoch

    # -- ontology management --------------------------------------------------

    @requires_write_lock
    def register_ontology(self, ontology: Ontology, cache: bool = True) -> OntologyOperations:
        """Register an ontology and return its operation interface."""
        if ontology.name in self._ontologies:
            raise GraphittiError(f"ontology {ontology.name!r} already registered")
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

    @requires_write_lock
    def register(self, obj: DataObject, raw: bytes | None = None, **metadata: Any) -> DataObject:
        """Register an annotable data object and record its metadata row.

        The row is built and checked first, so a refused registration
        (metadata that is not JSON-compatible, *raw* that is not bytes, an id
        already taken) changes nothing.
        """
        if obj.object_id in self.metadata_rows:
            raise UnknownObjectError(f"data object {obj.object_id!r} already registered")
        row = metadata_row(encode_register(obj, {**obj.metadata, **metadata}), raw)
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
        dublin_core = DublinCore(
            title=title,
            creator=creator,
            subject=list(keywords),
            description=description,
            identifier=identifier,
        )
        content = AnnotationContent(dublin_core=dublin_core, body=body)
        return AnnotationBuilder(self, identifier, content)

    @requires_write_lock
    def _generate_annotation_id(self) -> str:
        prefix = f"anno-{self.id_namespace}-" if self.id_namespace else "anno-"
        while True:
            identifier = f"{prefix}{self._next_annotation_serial:06d}"
            self._next_annotation_serial += 1
            if identifier not in self._annotation_order:
                return identifier

    @requires_write_lock
    def commit(self, annotation: Annotation, defer_index: bool = False) -> Annotation:
        """Commit an annotation: store content, index referents, wire a-graph.

        With ``defer_index=True`` the content document's keyword indexing is
        deferred (see :meth:`DocumentCollection.add
        <repro.xmlstore.collection.DocumentCollection.add>`); keyword searches
        flush the deferred work before reading, so results are unaffected.
        :meth:`commit_many` uses this to amortize indexing out of bulk ingest.
        """
        if annotation.annotation_id in self._annotation_order:
            raise AnnotationError(f"annotation {annotation.annotation_id!r} already committed")
        # Validate referents reference registered objects.
        for referent in annotation.referents:
            if referent.ref.object_id not in self.registry:
                raise UnknownObjectError(
                    f"annotation references unregistered object {referent.ref.object_id!r}"
                )
        # 1. Store the annotation content as an XML document.
        document = annotation.to_document()
        self.contents.add(document, doc_id=annotation.annotation_id, defer_index=defer_index)
        # 2. Create the content node in the a-graph.
        self.agraph.add_content(
            annotation.annotation_id,
            title=annotation.content.dublin_core.title,
            keywords=tuple(annotation.content.keywords()),
        )
        # 3. Index referents and wire content->referent edges.
        for referent in annotation.referents:
            referent_id = self.substructures.add(referent)
            self.agraph.add_referent(
                referent_id,
                object=referent.ref.object_id,
                data_type=referent.ref.data_type.value,
            )
            self.agraph.link_annotation(annotation.annotation_id, referent_id)
            # 4. Wire referent->ontology edges.
            for term in referent.ontology_terms:
                self.agraph.add_ontology_node(term)
                self.agraph.link_ontology(referent_id, term)
            # 5. Link referents that share a data object (same_object edges).
            self._link_same_object(referent_id, referent.ref.object_id, annotation)
        # 6. Wire content->ontology edges.
        for term in annotation.content.ontology_terms:
            self.agraph.add_ontology_node(term)
            self.agraph.link_ontology(annotation.annotation_id, term)
        # Columnar store: the annotation's content blob + packed term/referent
        # spans land at its dense id-space slot; the committed object itself
        # seeds the row cache for the commit-then-read pattern.
        slot = self.idspace.intern(annotation.annotation_id)
        self.columns.store(slot, annotation, self.substructures.columns)
        self._annotation_order[annotation.annotation_id] = None
        self._cache_row(annotation.annotation_id, annotation)
        self.stats_catalogue.on_commit(annotation)
        self._bump_epoch()
        return annotation

    @requires_write_lock
    def commit_many(self, annotations: Iterable[Annotation]) -> list[Annotation]:
        """Commit a batch of annotations with deferred content indexing.

        The whole batch is validated up front (no annotation already
        committed, every referent's object registered, no duplicate ids
        inside the batch), so a bad batch fails before any member is applied.
        Each member then commits with ``defer_index=True``: the per-commit
        keyword-index bookkeeping — the dominant cost of a small commit — is
        queued and performed once, lazily, on the first subsequent keyword
        search.  This is the manager half of the serving layer's bulk-commit
        fast path.
        """
        batch = list(annotations)
        seen: set[str] = set()
        for annotation in batch:
            if annotation.annotation_id in self._annotation_order or annotation.annotation_id in seen:
                raise AnnotationError(
                    f"annotation {annotation.annotation_id!r} already committed"
                )
            seen.add(annotation.annotation_id)
            for referent in annotation.referents:
                if referent.ref.object_id not in self.registry:
                    raise UnknownObjectError(
                        f"annotation references unregistered object {referent.ref.object_id!r}"
                    )
        for annotation in batch:
            self.commit(annotation, defer_index=True)
        return batch

    def _link_same_object(self, referent_id: str, object_id: str, annotation: Annotation) -> None:
        """Within one annotation, link referents marking the same object."""
        for other in annotation.referents:
            other_id = other.referent_id
            if other_id == referent_id or other_id is None:
                continue
            if other.ref.object_id == object_id and other_id in self.agraph:
                from repro.agraph.agraph import SAME_OBJECT

                self.agraph.link_referents(referent_id, other_id, label=SAME_OBJECT)

    #: Materialized row views kept hot (commit seeds entries; reads refresh).
    _ROW_CACHE_SIZE = 2048

    def _cache_row(self, annotation_id: str, annotation: Annotation) -> None:
        cache = self._row_cache
        cache[annotation_id] = annotation
        cache.move_to_end(annotation_id)
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
            self._row_cache.move_to_end(annotation_id)
            return cached
        slot = self.idspace.slot(annotation_id)
        if slot is None or not self.columns.is_live(slot):
            raise AnnotationError(f"no annotation {annotation_id!r}")
        annotation = self.columns.materialize(annotation_id, slot, self.substructures.columns)
        self._cache_row(annotation_id, annotation)
        return annotation

    def committed_referents(self, annotation_id: str) -> list[Referent]:
        """Referents of *annotation_id*, or ``[]`` once it is deleted.

        Materialized straight from the columns — GIL-atomic reads that touch
        neither a lock nor the row cache — for the result-merge paths that
        run after the query's own read view has closed.
        """
        slot = self.idspace.slot(annotation_id)
        if slot is None or not self.columns.is_live(slot):
            return []
        return self.columns.materialize(annotation_id, slot, self.substructures.columns).referents

    def has_annotation(self, annotation_id: str) -> bool:
        """Whether *annotation_id* is a committed annotation."""
        return annotation_id in self._annotation_order

    def annotation_ids(self) -> list[str]:
        """Ids of every committed annotation, in commit order."""
        return list(self._annotation_order)

    @requires_write_lock
    def delete_annotation(self, annotation_id: str) -> None:
        """Remove a committed annotation and tidy the wired substrates.

        The content document and content node are removed.  Referent nodes and
        their indexed extents are removed only when no *other* annotation still
        shares them (a referent shared by several annotations survives), which
        keeps the indirect-relatedness structure correct.
        """
        annotation = self.annotation(annotation_id)
        self.contents.remove(annotation_id)
        for referent in annotation.referents:
            referent_id = referent.referent_id
            others = [
                other
                for other in self.agraph.contents_annotating(referent_id)
                if other != annotation_id
            ]
            if not others:
                # No other annotation needs this referent; drop its node and index.
                if referent_id in self.agraph:
                    self.agraph.graph.remove_node(referent_id)
                self.substructures.discard(referent_id)
            else:
                self._retract_shared_edges(annotation, referent, others)
        if annotation_id in self.agraph:
            self.agraph.graph.remove_node(annotation_id)
        slot = self.idspace.slot(annotation_id)
        if slot is not None:
            self.columns.clear(slot)
        del self._annotation_order[annotation_id]
        self._row_cache.pop(annotation_id, None)
        self.idspace.release(annotation_id)
        self.stats_catalogue.on_delete(annotation)
        self._bump_epoch()

    def _retract_shared_edges(
        self, annotation: Annotation, referent: Referent, survivors: list[str]
    ) -> None:
        """*annotation* stops marking *referent*, which *survivors* still mark.

        The referent node stays, but the edges only *annotation* wired on it
        must go: its referent→ontology pointers and its same-object links to
        *annotation*'s other referents.  The live a-graph is then again the
        union of what the remaining annotations wire — exactly what snapshot
        rebuild and WAL replay construct — so PATH / REFERS pages agree live
        and recovered.
        """
        from repro.agraph.agraph import SAME_OBJECT

        referent_id = referent.referent_id
        terms = set(referent.ontology_terms)
        siblings = {
            sibling.referent_id
            for sibling in annotation.referents
            if sibling.referent_id != referent_id
            and sibling.ref.object_id == referent.ref.object_id
        }
        # Whatever a survivor also wires stays; stop reading survivors as soon
        # as nothing is left to retract (the common case: nothing ever was).
        for other_id in survivors:
            if not terms and not siblings:
                return
            for theirs in self.annotation(other_id).referents:
                if theirs.referent_id == referent_id:
                    terms.difference_update(theirs.ontology_terms)
                else:
                    siblings.discard(theirs.referent_id)
        for term in terms:
            self.agraph.unlink_ontology(referent_id, term)
        for sibling_id in siblings:
            if sibling_id in self.agraph:
                self.agraph.graph.remove_edges(referent_id, sibling_id, label=SAME_OBJECT)
                self.agraph.graph.remove_edges(sibling_id, referent_id, label=SAME_OBJECT)

    #: Keys :meth:`update_annotation` understands.
    _UPDATE_KEYS = frozenset(
        {
            "title", "creator", "description", "keywords", "body", "user_tags",
            "ontology_terms", "add_referents", "remove_referents", "move_referents",
        }
    )

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

        Index maintenance is proportional to the *diff*: the inverted index
        re-posts only changed terms (via the doc→terms reverse map), spatial
        trees see one remove+insert per moved extent, the statistics
        catalogue adjusts by set differences, and the annotation keeps its
        dense id-space slot (no release/re-intern, so no slot churn).  The
        whole change set is validated before anything applies.
        """
        annotation = self.annotation(annotation_id)
        changes = dict(changes)
        unknown = set(changes) - self._UPDATE_KEYS
        if unknown:
            raise AnnotationError(
                f"unknown update key(s) {sorted(unknown)!r} for annotation {annotation_id!r}"
            )
        additions = [
            item if isinstance(item, Referent) else decode_referent(item)
            for item in changes.get("add_referents", ())
        ]
        removals = list(changes.get("remove_referents", ()))
        moves = {
            referent_id: dict(extent)
            for referent_id, extent in dict(changes.get("move_referents", {})).items()
        }
        # -- validate the whole change set before anything applies ---------
        for referent in additions:
            if referent.ref.object_id not in self.registry:
                raise UnknownObjectError(
                    f"annotation references unregistered object {referent.ref.object_id!r}"
                )
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
            # Fully vet the move here: steps 1-3 below mutate state before the
            # move applies, so a bad extent spec must never get past
            # validation (the whole change set applies or none of it does).
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
        final_content_terms = (
            list(dict.fromkeys(changes["ontology_terms"]))
            if "ontology_terms" in changes
            else list(annotation.content.ontology_terms)
        )
        if surviving <= 0 and not final_content_terms:
            raise AnnotationError(
                "an annotation must keep at least one referent or ontology reference"
            )

        # -- capture pre-update statistics inputs --------------------------
        old_types = {referent.ref.data_type.value for referent in annotation.referents}
        old_terms = set(annotation.ontology_terms())
        # Exact searchable-text delta of the edit: every part (field text,
        # attribute value) the edit removes/adds, accumulated as the change
        # applies.  Token counts are additive over parts (the document codec
        # joins them with whitespace), so the inverted index can re-post
        # O(edit) terms instead of re-tokenizing the whole document.
        removed_parts: list[str] = []
        added_parts: list[str] = []

        # -- 1. content field edits (in place) ------------------------------
        content = annotation.content
        dublin_core = content.dublin_core
        if "title" in changes:
            removed_parts.append(dublin_core.title)
            dublin_core.title = changes["title"]
            added_parts.append(dublin_core.title)
        if "creator" in changes:
            removed_parts.append(dublin_core.creator)
            dublin_core.creator = changes["creator"]
            added_parts.append(dublin_core.creator)
        if "description" in changes:
            removed_parts.append(dublin_core.description)
            dublin_core.description = changes["description"]
            added_parts.append(dublin_core.description)
        if "keywords" in changes:
            removed_parts.extend(str(item) for item in dublin_core.subject if item)
            dublin_core.subject = list(changes["keywords"])
            added_parts.extend(str(item) for item in dublin_core.subject if item)
        if "body" in changes:
            removed_parts.append(content.body)
            content.body = changes["body"]
            added_parts.append(content.body)
        if "user_tags" in changes:
            removed_parts.extend(str(value) for value in content.user_tags.values())
            content.user_tags = dict(changes["user_tags"])
            added_parts.extend(str(value) for value in content.user_tags.values())
        if "ontology_terms" in changes:
            removed_parts.extend(str(term) for term in content.ontology_terms)
            content.ontology_terms = [
                self.resolve_ontology_term(term) for term in final_content_terms
            ]
            added_parts.extend(str(term) for term in content.ontology_terms)

        # -- 2. referent removals (shared-referent survival rule) -----------
        for referent_id in dict.fromkeys(removals):
            dropped = [
                referent for referent in annotation._referents  # noqa: SLF001 - owning mutation path
                if referent.referent_id == referent_id
            ]
            for referent in dropped:
                for parts in referent.searchable_parts():
                    removed_parts.extend(parts)
            annotation._referents = [  # noqa: SLF001 - owning mutation path
                referent for referent in annotation._referents
                if referent.referent_id != referent_id
            ]
            if referent_id in self.agraph:
                self.agraph.unlink_annotation(annotation_id, referent_id)
                survivors = self.agraph.contents_annotating(referent_id)
                if not survivors:
                    # No other annotation needs this referent; drop node + index.
                    self.agraph.graph.remove_node(referent_id)
                    self.substructures.discard(referent_id)
                else:
                    for referent in dropped:
                        self._retract_shared_edges(annotation, referent, survivors)

        # -- 3. referent additions (same wiring as a commit) -----------------
        for referent in additions:
            annotation._referents.append(referent)  # noqa: SLF001 - owning mutation path
            referent_id = self.substructures.add(referent)
            self.agraph.add_referent(
                referent_id,
                object=referent.ref.object_id,
                data_type=referent.ref.data_type.value,
            )
            self.agraph.link_annotation(annotation_id, referent_id)
            for term in referent.ontology_terms:
                self.agraph.add_ontology_node(term)
                self.agraph.link_ontology(referent_id, term)
            self._link_same_object(referent_id, referent.ref.object_id, annotation)
            for parts in referent.searchable_parts():
                added_parts.extend(parts)

        # -- 4. extent moves (one remove+insert inside the owning tree) ------
        for referent_id, extent in moves.items():
            moved = self.substructures.get(referent_id)
            move_removed = _extent_text_parts(moved.ref)
            self.substructures.move(referent_id, **extent)
            move_added = _extent_text_parts(moved.ref)
            removed_parts.extend(move_removed)
            added_parts.extend(move_added)
            # A shared substructure moves for EVERY annotation marking it.
            # The store's referent is canonical (its ref just mutated), and
            # column-materialized row views wrap that same ref object, so
            # they see the move automatically.  Only cached rows seeded at
            # commit hold their own Referent copies and need the explicit
            # adoption; each sharer's stored document gets the same
            # coordinate delta so every index stays exact.  The updating
            # annotation syncs too, but its delta is already accumulated
            # above and its document lands in step 6.
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

        # -- 5. content->ontology edge rewiring (diff, not rebuild) ----------
        linked = set(self.agraph.ontology_terms_of(annotation_id))
        wanted = set(content.ontology_terms)
        for term in linked - wanted:
            self.agraph.unlink_ontology(annotation_id, term)
        for term in wanted - linked:
            self.agraph.add_ontology_node(term)
            self.agraph.link_ontology(annotation_id, term)

        # -- 6. content node attributes + delta document re-index ------------
        self.agraph.add_content(
            annotation_id,
            title=dublin_core.title,
            keywords=tuple(content.keywords()),
        )
        # The index adjusts now (exactly, from the parts); the stored XML
        # regenerates lazily on first read — churn never renders documents
        # nobody reads between edits.
        self.contents.update_delta(
            annotation_id, annotation.to_document, removed_parts, added_parts
        )

        # -- 7. catalogue delta; the id-space slot stays put by design -------
        # Re-store the edited row at its (unchanged) slot: the old blob/span
        # becomes tombstone garbage reclaimed by compaction.
        slot = self.idspace.slot(annotation_id)
        if slot is not None:
            self.columns.store(slot, annotation, self.substructures.columns)
        self._cache_row(annotation_id, annotation)
        self.stats_catalogue.on_update(annotation, old_types, old_terms)
        self._bump_epoch()
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
        if object_id not in self.registry:
            raise UnknownObjectError(f"no data object {object_id!r} registered")
        annotation_ids = self.annotations_on_object(object_id)
        if annotation_ids and not cascade:
            raise AnnotationError(
                f"data object {object_id!r} is referenced by "
                f"{len(annotation_ids)} annotation(s); pass cascade=True to delete them"
            )
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
        graph = self.agraph.graph
        for term_id in target_terms:
            if term_id not in self.agraph:
                continue
            for edge in graph.iter_in_edges(term_id):
                node = graph.node(edge.source)
                if node.kind == "content":
                    matches.add(edge.source)
                elif node.kind == "referent":
                    matches.update(self.agraph.contents_annotating(edge.source))
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
        referents = self.substructures.overlapping_intervals(domain, start, end)
        return self._annotations_for_referents(referents)

    def search_by_overlap_region(self, space: str, lo, hi) -> list[str]:
        """Annotation ids whose referents overlap the query box in *space*."""
        referents = self.substructures.overlapping_regions(space, lo, hi)
        return self._annotations_for_referents(referents)

    def _annotations_for_referents(self, referents: list) -> list[str]:
        counts = self.agraph.annotation_counts(
            referent.referent_id for referent in referents
        )
        return sorted(counts)

    def path_between_annotations(self, annotation1: str, annotation2: str) -> list | None:
        """A path in the a-graph between two annotation contents."""
        return self.agraph.path(annotation1, annotation2)

    def query(self, text_or_query, enable_ordering: bool = True, mode: str | None = None,
              tracer=None):
        """Run a GQL query (text or :class:`~repro.query.ast.Query`) and return
        its :class:`~repro.query.result.QueryResult`.

        With ordering enabled the planner is **cost-based**: constraint order
        comes from live cardinality estimates (see
        :mod:`repro.query.stats`) and the executor adapts as the candidate
        set shrinks.  *mode* overrides the planning mode explicitly
        (``"off"``, ``"static"``, ``"cost"``) — the benchmarks use
        ``"static"`` to measure the old constant-table planner.  *tracer*
        (a :class:`repro.obs.Tracer`) makes the executor emit per-constraint
        and collation spans under whatever span is open on this thread.
        """
        from repro.query.ast import Query as _Query
        from repro.query.executor import QueryExecutor
        from repro.query.parser import parse_query
        from repro.query.planner import QueryPlanner

        query = text_or_query if isinstance(text_or_query, _Query) else parse_query(text_or_query)
        planner = QueryPlanner(enable_ordering=enable_ordering, manager=self, mode=mode)
        executor = QueryExecutor(self, planner=planner, tracer=tracer)
        return executor.execute(query)

    def explain(self, text_or_query, enable_ordering: bool = True, mode: str | None = None) -> dict:
        """Return the query plan and its estimated cost without executing it.

        The returned dict holds the parsed query description, the ordered plan
        explanation (with per-constraint row estimates in cost mode), the
        per-type subquery count, the planner's static cost estimate, and the
        catalogue's estimated rows — the information an ``EXPLAIN`` surfaces.
        """
        from repro.query.ast import Query as _Query
        from repro.query.parser import parse_query
        from repro.query.planner import QueryPlanner

        query = text_or_query if isinstance(text_or_query, _Query) else parse_query(text_or_query)
        planner = QueryPlanner(enable_ordering=enable_ordering, manager=self, mode=mode)
        plan = planner.plan(query)
        explanation = {
            "query": query.describe(),
            "plan": plan.explain(),
            "subqueries": plan.subquery_count(),
            "estimated_cost": QueryPlanner.estimated_cost(query),
            "targets": [target.value for target in query.targets_present()],
            "mode": plan.mode,
        }
        if plan.estimated_rows is not None:
            explanation["estimated_rows"] = [
                (constraint.describe(), rows)
                for constraint, rows in zip(plan.ordered_constraints, plan.estimated_rows)
            ]
        return explanation

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
            "extent_summaries": self.substructures.extent_summaries(),
        }
        for provider in self.stats_providers:
            stats.update(provider())
        return stats

"""Whole-instance persistence for a Graphitti instance.

Snapshots the state of a :class:`~repro.core.manager.Graphitti` that cannot
be derived -- the registered ontologies, the object-metadata rows, every
committed annotation's record (content, referents, ontology pointers) and
any content document no annotation owns -- to a single JSON document, and
rebuilds a **query- and explore-capable** instance from it.  An annotation's
content document is a rendering of its record, so it is not written: a
rebuild indexes the record's :meth:`~repro.core.annotation.Annotation.searchable_text`
and renders the tree only when something reads it.  Snapshots written before
that rule (v1, every document dumped) load through the same reader, which
ignores a dumped document whose annotation record is present.

The reconstructed instance can be queried, explored, and administered exactly
like the original.  It cannot mark *new* annotations against the old data
objects, because the native data objects (sequence residues, image pixels,
...) are not part of the snapshot; a metadata row records an object's
descriptors, and its ``raw`` bytes are always written as ``null``.  This
mirrors how the paper keeps each object's metadata in a relation while the
raw data lives alongside it -- a reloaded catalogue is enough to answer
queries over existing annotations.

This module is the only one that knows the snapshot's ``object_metadata``
layout: :func:`metadata_row` builds (and checks) every row the manager
keeps, :func:`encode_object_metadata` / :func:`decode_object_metadata`
write and read the section.  The section keeps the shape of a one-table
database dump, schema included, byte for byte, so snapshots written by
earlier versions load and re-checkpoint unchanged.

The module also exposes the **record codec** the serving layer's write-ahead
log shares with the snapshot format: :func:`encode_annotation` /
:func:`decode_annotation` round-trip one annotation (including its full
Dublin Core metadata, body and user tags), :func:`wire_annotations` wires
annotations into an instance (live commits, snapshot load and replay), and
:func:`encode_register` / :func:`apply_register_record` do the same for data
object registrations (as catalogue entries).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable

from repro.core.annotation import Annotation, AnnotationContent, Referent
from repro.core.dublin_core import DublinCore, normalized_dict
from repro.core.footprint import WriteState, write_footprint
from repro.datatypes.base import DataObject, DataType, SubstructureRef
from repro.errors import AnnotationError, GraphittiError
from repro.ontology.model import Ontology


# -- annotation record codec ---------------------------------------------------


def encode_referent(referent: Referent) -> dict[str, Any]:
    """Encode one referent as a JSON-compatible record (shared by the
    annotation codec and the update-changes codec)."""
    return {
        "referent_id": referent.referent_id,
        "ref": referent.ref.to_dict(),
        "ontology_terms": list(referent.ontology_terms),
    }


def decode_referent(payload: dict[str, Any]) -> Referent:
    """Rebuild a :class:`Referent` from :func:`encode_referent` output."""
    return Referent(
        ref=SubstructureRef.from_dict(payload["ref"]),
        ontology_terms=list(payload.get("ontology_terms", [])),
        referent_id=payload.get("referent_id"),
    )


def encode_update_changes(changes: dict[str, Any]) -> dict[str, Any]:
    """Encode an ``update_annotation`` changes dict as a JSON-compatible record.

    Only ``add_referents`` needs translation (live :class:`Referent` objects
    become their codec dicts; dicts pass through unchanged); every other key
    is already JSON-shaped.  The WAL logs exactly this form, and
    :meth:`Graphitti.update_annotation` accepts it directly, so live apply
    and recovery replay run the same code path.
    """
    encoded = dict(changes)
    if "add_referents" in encoded:
        encoded["add_referents"] = [
            encode_referent(item) if isinstance(item, Referent) else dict(item)
            for item in encoded["add_referents"]
        ]
    if "remove_referents" in encoded:
        encoded["remove_referents"] = list(encoded["remove_referents"])
    if "move_referents" in encoded:
        encoded["move_referents"] = {
            referent_id: dict(extent)
            for referent_id, extent in encoded["move_referents"].items()
        }
    return encoded


def encode_annotation(annotation: Annotation) -> dict[str, Any]:
    """Encode one annotation as a JSON-compatible record.

    Carries the *complete* content — Dublin Core metadata, free-text body,
    user tags and ontology pointers — so a decoded annotation is
    indistinguishable from the committed original (``keywords`` is kept as a
    derived field for readers of older snapshots).
    """
    content = annotation.content
    return {
        "annotation_id": annotation.annotation_id,
        "dublin_core": content.dublin_core.to_dict(),
        "body": content.body,
        "user_tags": dict(content.user_tags),
        "content_ontology_terms": list(content.ontology_terms),
        "keywords": content.keywords(),
        "referents": [encode_referent(referent) for referent in annotation.referents],
    }


def decode_annotation(payload: dict[str, Any]) -> Annotation:
    """Rebuild an :class:`Annotation` from :func:`encode_annotation` output.

    Tolerates records written before the full-content codec (no
    ``dublin_core`` key): those fall back to the legacy keywords-only
    reconstruction.
    """
    annotation_id = payload["annotation_id"]
    if "dublin_core" in payload:
        dublin_core = DublinCore.from_dict(payload["dublin_core"])
        if not dublin_core.identifier:
            dublin_core.identifier = annotation_id
    else:
        dublin_core = DublinCore(identifier=annotation_id, subject=list(payload.get("keywords", [])))
    content = AnnotationContent(
        dublin_core=dublin_core,
        body=payload.get("body", ""),
        ontology_terms=list(payload.get("content_ontology_terms", [])),
        user_tags=dict(payload.get("user_tags", {})),
    )
    annotation = Annotation(annotation_id, content)
    for ref_payload in payload.get("referents", []):
        annotation._referents.append(decode_referent(ref_payload))  # noqa: SLF001 - codec rebuild path
    return annotation


def link_edges(agraph, annotation: Annotation, edges: Iterable[tuple[str, str, str]]) -> None:
    """Link *edges*, drawn from ``annotation.agraph_edges()``, into *agraph*.

    First every node of :meth:`~repro.core.annotation.Annotation.agraph_nodes`
    the a-graph does not hold yet is added, in wiring order, so the kind of
    each node is decided in one place (and approved from the same list).
    """
    add_node = agraph.graph.add_node
    for node_id, kind in annotation.agraph_nodes():
        add_node(node_id, kind)
    for label, source, target in edges:
        agraph.link(label, source, target)


def wire_annotations(manager, annotations: list[Annotation]) -> None:
    """Register and wire annotations into *manager*'s substrates, in order.

    The one registration routine: :meth:`~repro.core.manager.Graphitti.commit_many`
    (and so ``commit``) hands it its approved batch, a snapshot load every
    record at once, WAL replay one record at a time.  It does no registry
    validation, so it works on catalogue-only instances whose native data
    objects were not reconstructed.  Each annotation's content document is
    parked (:meth:`~repro.xmlstore.collection.DocumentCollection.add_lazy_many`):
    the batch's searchable texts feed the inverted index in one batch and the
    tree is built for the first reader handed it.  The batch's referents
    reach the substructure store as one batch, so each index takes its share
    in one ``insert_many`` call -- a bulk build when the index is empty, one
    rebuild when the batch is large against it, inserts otherwise.  Each
    annotation then applies its :class:`~repro.core.footprint.WriteState`
    as a write with no before-state: the a-graph links exactly its
    :meth:`~repro.core.annotation.Annotation.agraph_edges` and the
    statistics catalogue counts its types and terms.
    """
    # Referents first: the store settles the id each one is filed under,
    # which the searchable text and the a-graph edges carry.
    manager.substructures.add_many(
        referent for annotation in annotations for referent in annotation.referents
    )
    contents = manager.contents
    contents.add_lazy_many(
        (
            annotation.annotation_id,
            annotation.searchable_text(),
            manager._document_regenerator(annotation.annotation_id),  # noqa: SLF001 - wiring path
        )
        for annotation in annotations
    )
    # Only a lone commit is worth a footprint: each member of a longer batch
    # (an ingest, a bulk commit, a snapshot load) drops every cached page.
    traced = len(annotations) == 1 and bool(manager.footprint_sinks)
    for annotation in annotations:
        annotation_id = annotation.annotation_id
        after = WriteState(annotation)
        manager._rewire(annotation, None, after)  # noqa: SLF001 - wiring path
        # The columnar store, the statistics catalogue and the id interner
        # fill record by record, so a recovered instance matches the
        # pre-crash state; the committed object seeds the row cache.
        slot = manager.idspace.intern(annotation_id)
        manager.columns.store(slot, annotation, manager.substructures.columns)
        manager._annotation_order[annotation_id] = None  # noqa: SLF001 - wiring path
        manager._cache_row(annotation_id, annotation)  # noqa: SLF001 - wiring path
        manager.stats_catalogue.apply(annotation_id, None, after)
        footprint = None
        if traced:
            terms = contents.indexed_terms(annotation_id)
            footprint = write_footprint(manager, annotation_id, None, after, terms)
        manager._bump_epoch(footprint)  # noqa: SLF001 - wiring path


# -- data-object (catalogue) record codec --------------------------------------


class CatalogueObject(DataObject):
    """A placeholder for a data object whose native payload is unavailable.

    Recovery registers one per logged ``register`` record so the rebuilt
    instance has the same registry counts, passes commit validation and runs
    integrity checks cleanly.  It cannot be marked (no native substructures),
    matching the catalogue-only contract of :func:`rebuild`.
    """

    def __init__(
        self,
        object_id: str,
        data_type: DataType,
        domain: str | None = None,
        description: str = "",
        metadata: dict[str, Any] | None = None,
    ):
        super().__init__(object_id, metadata)
        self.data_type = data_type
        self._domain = domain
        self._description = description or f"{data_type.value} {object_id} (catalogue entry)"

    @property
    def coordinate_domain(self) -> str | None:
        return self._domain

    def describe(self) -> str:
        return self._description


def encode_register(obj: DataObject, metadata: dict[str, Any]) -> dict[str, Any]:
    """Encode a data-object registration as a catalogue record.

    *metadata* is the combined metadata row the manager stores (the object's
    own metadata plus the register-call keywords).  Raw bytes are not logged
    -- the WAL, like the snapshot, persists the catalogue, not native data.
    """
    return {
        "object_id": obj.object_id,
        "data_type": obj.data_type.value,
        "domain": obj.coordinate_domain,
        "description": obj.describe(),
        "metadata": dict(metadata),
    }


def decode_register(record: dict[str, Any]) -> CatalogueObject:
    """The catalogue placeholder for a :func:`encode_register` record (or a
    metadata row, which has the same keys)."""
    return CatalogueObject(
        record["object_id"],
        DataType(record["data_type"]),
        domain=record.get("domain"),
        description=record.get("description") or "",
        metadata=record.get("metadata"),
    )


def _is_json(value: Any) -> bool:
    """Whether *value* is built only from JSON-compatible types."""
    if value is None or isinstance(value, (str, int, float, bool)):
        return True
    if isinstance(value, (list, tuple)):
        return all(_is_json(item) for item in value)
    if isinstance(value, dict):
        return all(isinstance(key, str) and _is_json(item) for key, item in value.items())
    return False


def metadata_row(record: dict[str, Any], raw: bytes | None = None) -> dict[str, Any]:
    """The object-metadata row for an :func:`encode_register` record.

    The one row constructor: live registration, WAL replay and snapshot
    load all build rows here.  Raises :class:`~repro.errors.AnnotationError`
    when the metadata is not JSON-compatible or *raw* is not bytes.
    """
    object_id = record["object_id"]
    metadata = record.get("metadata", {})
    if not _is_json(metadata):
        raise AnnotationError(f"metadata of object {object_id!r} is not JSON-compatible")
    if raw is not None and not isinstance(raw, (bytes, bytearray)):
        raise AnnotationError(
            f"raw data of object {object_id!r} must be bytes, not {type(raw).__name__}"
        )
    return {
        "object_id": object_id,
        "data_type": record["data_type"],
        "domain": record.get("domain"),
        "description": record.get("description"),
        "metadata": metadata,
        "raw": None if raw is None else bytes(raw),
    }


#: ``(name, type, nullable)`` of the section's columns, in row-key order.
_METADATA_COLUMNS = (
    ("object_id", "text", False),
    ("data_type", "text", False),
    ("domain", "text", True),
    ("description", "text", True),
    ("metadata", "json", True),
    ("raw", "blob", True),
)


def encode_object_metadata(name: str, rows: Iterable[dict[str, Any]]) -> dict[str, Any]:
    """The snapshot's ``object_metadata`` section for *rows*.

    Native bytes are never persisted, so every row writes ``"raw": null``.
    """
    return {
        "name": name,
        "tables": {
            "data_objects": {
                "schema": {
                    "name": "data_objects",
                    "columns": [
                        {"name": column, "type": kind, "nullable": nullable, "default": None}
                        for column, kind, nullable in _METADATA_COLUMNS
                    ],
                    "primary_key": "object_id",
                    "unique": [],
                },
                "rows": [{**row, "raw": None} for row in rows],
            }
        },
    }


def decode_object_metadata(section: dict[str, Any]) -> dict[str, dict[str, Any]]:
    """``object_id -> row`` from an :func:`encode_object_metadata` section.

    A row's ``raw`` field is ignored: it is ``null``, or the hex blob older
    snapshots wrote, which recovery never restores.
    """
    rows = {}
    for item in section["tables"]["data_objects"]["rows"]:
        row = metadata_row(item)
        rows[row["object_id"]] = row
    return rows


def apply_register_record(manager, payload: dict[str, Any]) -> None:
    """Replay a :func:`encode_register` record onto *manager*.

    Registers a :class:`CatalogueObject` and records the metadata row, so the
    recovered instance's registry and metadata rows match the original's.
    Records for objects already present (e.g. replayed over a snapshot that
    carried the metadata row) only fill the registry gap.
    """
    object_id = payload["object_id"]
    if object_id not in manager.metadata_rows:
        manager.metadata_rows[object_id] = metadata_row(payload)
    if object_id not in manager.registry:
        manager.registry.register(decode_register(payload))
    manager._bump_epoch()  # noqa: SLF001 - replay path


def hydrate_catalogue(manager) -> int:
    """Register a :class:`CatalogueObject` for every metadata row missing from
    the registry.  Returns how many placeholders were created.

    The serving layer's recovery path calls this after a snapshot rebuild so
    registry-based statistics and commit validation match the pre-crash
    instance even though native data objects are gone.
    """
    created = 0
    for row in manager.metadata_rows.values():
        if row["object_id"] in manager.registry:
            continue
        manager.registry.register(decode_register(row))
        created += 1
    return created


# -- whole-instance snapshot ---------------------------------------------------


def snapshot(manager) -> dict[str, Any]:
    """Produce a JSON-compatible snapshot of *manager* (a checkpoint's
    payload, built in the caller's thread)."""
    return snapshot_from_frozen(freeze_manager(manager))


def save_instance(manager, path: str | Path) -> Path:
    """Write a Graphitti snapshot to *path* as JSON."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("w", encoding="utf-8") as handle:
        json.dump(snapshot(manager), handle, indent=2)
    return target


def load_instance(path: str | Path):
    """Rebuild a query/explore-capable Graphitti instance from a snapshot."""
    source = Path(path)
    if not source.exists():
        raise GraphittiError(f"instance snapshot {source} does not exist")
    with source.open("r", encoding="utf-8") as handle:
        payload = json.load(handle)
    return rebuild(payload)


def rebuild(payload: dict[str, Any]):
    """Rebuild a Graphitti instance from a :func:`snapshot` payload.

    Every annotation's content document is parked by
    :func:`wire_annotations`, as a commit parks it: the inverted index is
    fed the record's searchable text and the XML tree regenerates from the
    columnar store only if something actually reads it, so cold recovery
    neither builds nor retains the document object graph.  A dumped
    document an annotation record owns (all of them, in a v1 snapshot) is
    derivable and is not read; the others — documents no annotation owns —
    are stored first, in dump order.
    """
    from repro.core.manager import Graphitti
    from repro.xmlstore.document import XmlDocument

    manager = Graphitti(payload.get("name", "graphitti"), id_namespace=payload.get("id_namespace"))
    manager.catalogue_only = True
    for ontology_payload in payload.get("ontologies", []):
        manager.register_ontology(Ontology.from_dict(ontology_payload))
    manager.metadata_rows = decode_object_metadata(payload["object_metadata"])
    # Documents no record owns first, in dump order, then every annotation
    # document, parked by the wiring.
    annotations = [decode_annotation(item) for item in payload.get("annotations", [])]
    owned = {annotation.annotation_id for annotation in annotations}
    for doc_id, document in payload.get("contents", {}).items():
        if doc_id not in owned:
            manager.contents.add(XmlDocument.from_dict(document), doc_id=doc_id)

    # Re-wire the a-graph and indexes from the same records, in one batch.
    wire_annotations(manager, annotations)
    return manager


# -- copy-on-write checkpoint support ------------------------------------------


class FrozenManager:
    """Point-in-time image of a manager for a background checkpoint.

    Captured under the service write lock by :func:`freeze_manager` in
    O(slots) pointer/array copies; :func:`snapshot_from_frozen` then builds
    the full snapshot payload off-lock while writers keep mutating the live
    store (whose heaps are append-only and whose copy-on-write payload dicts
    are replaced, never mutated — see :mod:`repro.core.columns`).  ``stores``
    holds the two live column objects the views were frozen from.
    """

    __slots__ = (
        "name", "id_namespace", "ontologies",
        "object_metadata", "order", "slots", "acols", "rcols", "stores", "extra_documents",
    )

    def __init__(self, name, id_namespace, ontologies,
                 object_metadata, order, slots, acols, rcols, stores, extra_documents):
        self.name = name
        self.id_namespace = id_namespace
        self.ontologies = ontologies
        self.object_metadata = object_metadata
        self.order = order
        self.slots = slots
        self.acols = acols
        self.rcols = rcols
        self.stores = stores
        self.extra_documents = extra_documents


def freeze_manager(manager) -> FrozenManager:
    """Freeze *manager*'s snapshot-relevant state (call under the write lock).

    Annotation state freezes via the columns' copy-on-write views; ontologies
    and the metadata rows (both small next to the annotation store) are
    encoded inline.  Documents not backed by an annotation row — there are
    normally none — are captured eagerly so the frozen image is complete.
    """
    order = list(manager._annotation_order)  # noqa: SLF001 - freeze path
    slots = [manager.idspace.slot(annotation_id) for annotation_id in order]
    known = manager._annotation_order  # noqa: SLF001 - freeze path
    extra_documents = {
        doc_id: manager.contents.get(doc_id).to_dict()
        for doc_id in manager.contents.document_ids()
        if doc_id not in known
    }
    referents = manager.substructures.columns
    return FrozenManager(
        name=manager.name,
        id_namespace=manager.id_namespace,
        ontologies=[manager.ontology(name).to_dict() for name in manager.ontologies()],
        object_metadata=encode_object_metadata(manager.name, manager.metadata_rows.values()),
        order=order,
        slots=slots,
        acols=manager.columns.freeze(),
        rcols=referents.freeze(),
        stores=(manager.columns, referents),
        extra_documents=extra_documents,
    )


class CheckpointBase:
    """What a landed checkpoint leaves the next one.

    The live column objects and their clocks at the freeze, the frozen
    order, the ``[start, end)`` byte offsets of each record in the snapshot
    file (``spans[2 * i]``, ``spans[2 * i + 1]`` for ``order[i]``) and that
    file's CRC32.  No record text is kept.
    """

    __slots__ = ("stores", "clocks", "order", "spans", "crc32")

    def __init__(self, frozen: FrozenManager, spans, crc32: int):
        self.stores = frozen.stores
        self.clocks = (frozen.acols.clock, frozen.rcols.clock)
        self.order = frozen.order
        self.spans = spans
        self.crc32 = crc32


def encode_frozen_row(annotation_id: str, slot: int, acols, rcols) -> dict[str, Any]:
    """The :func:`encode_annotation` record of a frozen row, built from the
    columns directly: the content blob, the heap span and the referent
    columns' payload dicts (shared, not copied: the columns replace a
    payload, never mutate it)."""
    data = json.loads(acols.blob(slot))
    dublin_core = normalized_dict(data.get("dc", {}))
    id_at, payload = rcols.id_at, rcols.payload
    return {
        "annotation_id": annotation_id,
        "dublin_core": dublin_core,
        "body": data.get("b", ""),
        "user_tags": dict(data.get("t", {})),
        "content_ontology_terms": acols.content_terms(slot),
        "keywords": list(dublin_core["subject"]),
        "referents": [
            {"referent_id": id_at[rslot], "ref": payload[rslot], "ontology_terms": terms}
            for rslot, terms in acols.referent_entries(slot)
            if payload[rslot] is not None  # swept by delete_object's defensive pass
        ],
    }


def snapshot_from_frozen(frozen: FrozenManager, base: CheckpointBase | None = None) -> dict[str, Any]:
    """The snapshot payload of a frozen image (the one payload builder).

    Runs on the background checkpoint thread and touches no live manager
    state.  Each record is a dict from :func:`encode_frozen_row`, or — given
    the *base* the previous checkpoint left, whose file the caller has
    verified — a ``slice`` of that file's bytes to copy.  A row is copied
    only when the base was frozen from these same column objects, the row's
    stamp and the stamp of every referent slot in its span are no newer than
    the base's clocks, and its id is in the base's order; every other row is
    encoded.  Content documents are renderings of the records, so only the
    ones no annotation owns are carried.  Every 256 *encoded* rows the loop
    naps for a moment — on a single-core host the scheduler otherwise lets
    this CPU-bound loop keep the core for a full timeslice after a
    committer's fsync completes, which shows up as multi-millisecond commit
    p99 even though no lock is shared.
    """
    import time as _time

    acols, rcols = frozen.acols, frozen.rcols
    previous: dict[str, int] = {}
    annotation_clock = referent_clock = 0
    spans: Any = ()
    if base is not None and all(a is b for a, b in zip(base.stores, frozen.stores)):
        previous = {annotation_id: index for index, annotation_id in enumerate(base.order)}
        annotation_clock, referent_clock = base.clocks
        spans = base.spans
    row_stamp, referent_stamp = acols.stamp, rcols.stamp
    annotations: list[dict[str, Any] | slice] = []
    encoded = 0
    for annotation_id, slot in zip(frozen.order, frozen.slots):
        index = previous.get(annotation_id)
        if (
            index is not None
            and row_stamp[slot] <= annotation_clock
            and all(referent_stamp[rslot] <= referent_clock for rslot in acols.referent_slots(slot))
        ):
            annotations.append(slice(spans[2 * index], spans[2 * index + 1]))
            continue
        if encoded and encoded % 256 == 0:
            _time.sleep(0.0005)
        encoded += 1
        annotations.append(encode_frozen_row(annotation_id, slot, acols, rcols))
    return {
        "name": frozen.name,
        "id_namespace": frozen.id_namespace,
        "ontologies": frozen.ontologies,
        "object_metadata": frozen.object_metadata,
        "contents": dict(frozen.extra_documents),
        "annotations": annotations,
    }

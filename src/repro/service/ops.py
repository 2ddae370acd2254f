"""The service surface, declared once.

One row per verb says what every layer needs to know about it:

``kind``
    ``read`` (served from any caught-up copy), ``write`` (serialized on the
    primary, idempotency-keyed and admission-controlled on the wire) or
    ``admin`` (a maintenance write each facade coordinates itself).
``routing``
    How the sharded facades place it: ``owner`` (the shard holding the
    annotation id), ``referent`` (the shard the annotated object hashes to),
    ``broadcast`` (every shard applies it), ``scatter`` (every shard answers
    and the facade merges — a sorted union unless it defines its own merge)
    or ``any`` (replicated state; one shard answers).
``wal_op`` / ``apply`` / ``live``
    For durable verbs: the WAL record's op name, the replay function
    ``apply(manager, payload)``, and (optionally) the live half
    ``live(manager, *args) -> (result, payload)``.  Without ``live`` the
    payload is the verb's wire arguments and the live apply *is* the replay.
``codec``
    How arguments and result cross the wire, built from the record codec in
    :mod:`repro.core.persistence` and :mod:`repro.net.codec`.

The prototype function under each row carries the verb's signature and
docstring.  Classes decorated with :func:`surface` receive every verb they do
not define themselves as a real method generated from the row, so
``GraphittiService`` (WAL emit), ``ShardedGraphittiService`` (routing),
``ReplicatedGraphittiService`` (primary/follower delegation) and
``ShardClient`` (RPC stubs) cannot drift apart; WAL replay
(:func:`repro.service.durability.apply_record`), the worker's wire dispatch
and ``repro lint``'s ``wal-lifecycle`` rule read the same rows.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.admin import IntegrityReport
from repro.core.builder import AnnotationBuilder
from repro.core.persistence import (
    apply_register_record,
    decode_annotation,
    decode_register,
    encode_annotation,
    encode_register,
    encode_update_changes,
    wire_annotation,
)
from repro.errors import ServiceError
from repro.ontology.model import Ontology

READ, WRITE, ADMIN = "read", "write", "admin"
OWNER, REFERENT, BROADCAST, SCATTER, ANY = "owner", "referent", "broadcast", "scatter", "any"


@dataclass(frozen=True)
class Codec:
    """How one verb crosses the wire; ``None`` passes values through as JSON."""

    #: Client: call arguments -> wire args (default: the bound arguments).
    to_wire: Callable[..., dict[str, Any]] | None = None
    #: Server: wire args -> call keywords (default: the wire args).
    from_wire: Callable[[dict[str, Any]], dict[str, Any]] | None = None
    #: Server: result -> wire value.
    encode: Callable[[Any], Any] | None = None
    #: Client: wire value -> result.
    decode: Callable[[Any], Any] | None = None


PLAIN = Codec()


@dataclass
class Op:
    """One row of the table."""

    name: str
    kind: str
    routing: str
    codec: Codec
    #: Prototype carrying the verb's signature (after ``self``) and docstring.
    proto: Callable
    wal_op: str | None = None
    apply: Callable[[Any, dict[str, Any]], Any] | None = None
    live: Callable[..., tuple[Any, dict[str, Any]]] | None = None
    #: Mutations one call counts as toward the checkpoint interval.
    weight: Callable[[Any], int] = lambda result: 1
    is_property: bool = False
    _signature: inspect.Signature = field(init=False, repr=False)

    def __post_init__(self) -> None:
        parameters = list(inspect.signature(self.proto).parameters.values())
        self._signature = inspect.Signature(parameters[1:])  # without ``self``

    def call(self, target: Any, *args: Any, **kwargs: Any) -> Any:
        """Invoke this verb on *target* (any object carrying the surface)."""
        attribute = getattr(target, self.name)
        return attribute if self.is_property else attribute(*args, **kwargs)

    def wire_args(self, *args: Any, **kwargs: Any) -> dict[str, Any]:
        """The client half of the args codec."""
        if self.codec.to_wire is not None:
            return self.codec.to_wire(*args, **kwargs)
        bound = self._signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return dict(bound.arguments)

    def serve(self, service: Any, wire: dict[str, Any]) -> Any:
        """The server half: decode the args, call *service*, encode the result."""
        keywords = self.codec.from_wire(wire) if self.codec.from_wire else wire
        result = self.call(service, **keywords)
        return self.codec.encode(result) if self.codec.encode else result

    def apply_live(self, manager: Any, *args: Any, **kwargs: Any) -> tuple[Any, dict[str, Any]]:
        """Apply a durable verb to the live *manager*; ``(result, WAL payload)``."""
        if self.live is not None:
            return self.live(manager, *args, **kwargs)
        payload = self.wire_args(*args, **kwargs)
        result = self.apply(manager, payload)
        # Never let a reader race the lazy component rebuild (no-op unless
        # the apply removed a-graph nodes or edges).
        manager.agraph.graph.rebuild_components()
        return result, payload


#: verb name -> row, in declaration order.
OPS: dict[str, Op] = {}
#: WAL op name -> the durable row that replays it, in declaration order.
WAL_OPS: dict[str, Op] = {}
_SURFACES: list[tuple[type, Callable[[Op], Callable | None]]] = []


def wal_row(op: str) -> Op:
    """The durable row for WAL op *op*; unknown ops are refused."""
    row = WAL_OPS.get(op)
    if row is None:
        raise ServiceError(f"unknown WAL op {op!r}")
    return row


def _install(cls: type, make: Callable[[Op], Callable | None], op: Op) -> None:
    if op.name in cls.__dict__:
        return  # the class's own implementation wins
    method = make(op)
    if method is not None:
        method = functools.wraps(op.proto)(method)
        method.__qualname__ = f"{cls.__name__}.{op.name}"
        setattr(cls, op.name, property(method) if op.is_property else method)


def surface(make: Callable[[Op], Callable | None]) -> Callable[[type], type]:
    """Class decorator: add every table verb the class does not define.

    *make* turns a row into the method body for this class (or ``None`` when
    the class must define that verb itself).  Generated methods are real
    attributes with the prototype's name, signature and docstring.
    """

    def decorate(cls: type) -> type:
        _SURFACES.append((cls, make))
        for op in OPS.values():
            _install(cls, make, op)
        return cls

    return decorate


def add_op(op: Op) -> Op:
    """Add a row: the table, WAL replay and every surface pick it up."""
    OPS[op.name] = op
    if op.apply is not None:
        WAL_OPS[op.wal_op] = op
    for cls, make in _SURFACES:
        _install(cls, make, op)
    return op


def remove_op(name: str) -> None:
    """Remove a row added by :func:`add_op` and the methods generated for it."""
    op = OPS.pop(name)
    if WAL_OPS.get(op.wal_op) is op:
        del WAL_OPS[op.wal_op]
    for cls, _ in _SURFACES:
        if name in cls.__dict__:
            delattr(cls, name)


def verb(kind: str, routing: str, codec: Codec, **columns: Any) -> Callable[[Callable], Op]:
    """Declare the decorated prototype as a table row (the name binds the row)."""

    def decorate(proto: Callable) -> Op:
        return add_op(Op(proto.__name__, kind, routing, codec, proto, **columns))

    return decorate


# -- codec and apply helpers ---------------------------------------------------
#
# The record codec functions are called through this module's globals (never
# captured in a row) so a tracer that patches them by name sees every call.


def _no_value(result: Any) -> None:
    return None


def _encode_annotation(annotation: Any) -> dict[str, Any]:
    return encode_annotation(annotation)


def _gql(text_or_query: Any) -> dict[str, Any]:
    if not isinstance(text_or_query, str):
        raise ServiceError(
            "a shard worker takes GQL text; pre-built Query objects cannot cross the wire"
        )
    return {"gql": text_or_query}


def _decode_query_result(payload: dict[str, Any]) -> Any:
    from repro.net import codec  # lazily: repro.net imports this package

    return codec.decode_query_result(payload)


def _live_register_ontology(manager: Any, ontology: Any, cache: bool = True):
    return manager.register_ontology(ontology, cache=cache), ontology.to_dict()


def _live_register(manager: Any, obj: Any, raw: bytes | None = None, **metadata: Any):
    registered = manager.register(obj, raw=raw, **metadata)
    # Log exactly the metadata the manager's row holds, so the WAL can never
    # drift from the rows a snapshot writes.
    stored = manager.object_metadata(obj.object_id)["metadata"]
    return registered, encode_register(obj, stored)


def _live_commit(manager: Any, annotation: Any):
    if isinstance(annotation, AnnotationBuilder):
        annotation = annotation.build()
    committed = manager.commit(annotation)
    return committed, encode_annotation(committed)


def _live_update_annotation(manager: Any, annotation_id: str, changes: dict[str, Any]):
    # Encoded before the apply (which assigns ids to added referents) and
    # applied from the caller's own objects, exactly as a commit is.
    encoded = encode_update_changes(changes)
    updated = manager.update_annotation(annotation_id, changes)
    manager.agraph.graph.rebuild_components()  # only stale after an edge removal
    return updated, {"annotation_id": annotation_id, "changes": encoded}


_ANNOTATION_RESULT = {"encode": _encode_annotation, "decode": decode_annotation}


# -- the table ------------------------------------------------------------------


@verb(WRITE, BROADCAST,
      Codec(to_wire=lambda ontology, cache=True: {"ontology": ontology.to_dict()},
            from_wire=lambda wire: {"ontology": Ontology.from_dict(wire["ontology"])},
            encode=_no_value),
      wal_op="register_ontology", live=_live_register_ontology,
      apply=lambda manager, payload: manager.register_ontology(Ontology.from_dict(payload)))
def register_ontology(self, ontology, cache: bool = True):
    """Register an ontology (replicated to every shard)."""


@verb(WRITE, BROADCAST,
      Codec(to_wire=lambda obj, raw=None, **metadata: {
                "record": encode_register(obj, {**obj.metadata, **metadata})},
            from_wire=lambda wire: {"obj": decode_register(wire["record"])},
            encode=_no_value),
      wal_op="register", live=_live_register, apply=apply_register_record)
def register(self, obj, raw: bytes | None = None, **metadata: Any):
    """Register a data object (replicated to every shard).

    The WAL record and the wire carry the catalogue entry (type, domain,
    metadata row), never the native bytes — recovery and workers restore the
    catalogue exactly as snapshots do.
    """


@verb(WRITE, ANY, PLAIN)
def reserve_annotation_id(self) -> str:
    """Generate (and reserve) a fresh annotation id.

    The id carries the namespace of the instance that issued it; the serial
    only advances, so two reservations never collide even if the first id is
    never committed.
    """


@verb(WRITE, REFERENT,
      Codec(to_wire=lambda annotation: {"annotation": encode_annotation(annotation)},
            from_wire=lambda wire: {"annotation": decode_annotation(wire["annotation"])},
            **_ANNOTATION_RESULT),
      wal_op="commit", live=_live_commit,
      apply=lambda manager, payload: wire_annotation(
          manager, decode_annotation(payload), add_content_document=True))
def commit(self, annotation):
    """Commit one annotation (or builder); returns the committed annotation."""


@verb(WRITE, REFERENT,
      Codec(to_wire=lambda annotations: {
                "annotations": [encode_annotation(annotation) for annotation in annotations]},
            from_wire=lambda wire: {
                "annotations": [decode_annotation(item) for item in wire["annotations"]]},
            encode=lambda committed: [encode_annotation(annotation) for annotation in committed],
            decode=lambda payload: [decode_annotation(item) for item in payload]),
      wal_op="commit")
def bulk_commit(self, annotations):
    """Commit a batch under one lock hold and one WAL group commit per shard."""


@verb(WRITE, OWNER, PLAIN, wal_op="delete_annotation",
      apply=lambda manager, payload: manager.delete_annotation(payload["annotation_id"]))
def delete_annotation(self, annotation_id: str) -> None:
    """Delete an annotation."""


# The logged changes are codec-shaped; update_annotation accepts that form
# directly, so replay runs the delta-maintenance path the live apply ran.
@verb(WRITE, OWNER,
      Codec(to_wire=lambda annotation_id, changes: {
                "annotation_id": annotation_id, "changes": encode_update_changes(changes)},
            **_ANNOTATION_RESULT),
      wal_op="update_annotation", live=_live_update_annotation,
      apply=lambda manager, payload: manager.update_annotation(
          payload["annotation_id"], payload["changes"]))
def update_annotation(self, annotation_id: str, changes: dict[str, Any]):
    """Update an annotation in place: one lock hold, one WAL record, one
    epoch bump, index maintenance proportional to the diff.  The annotation
    never changes shard, even when the update rewires its referents."""


@verb(WRITE, BROADCAST, PLAIN, wal_op="delete_object",
      apply=lambda manager, payload: manager.delete_object(
          payload["object_id"], cascade=payload.get("cascade", True)),
      weight=lambda cascaded: 1 + len(cascaded))
def delete_object(self, object_id: str, cascade: bool = True) -> list[str]:
    """Retire a data object, cascading through its annotations; returns the
    cascaded annotation ids."""


@verb(READ, SCATTER, PLAIN)
def annotations_on_object(self, object_id: str) -> list[str]:
    """Ids of annotations referencing *object_id*."""


@verb(READ, SCATTER, Codec(to_wire=_gql, decode=_decode_query_result))
def query(self, text_or_query):
    """Run a GQL query."""


@verb(READ, SCATTER,
      Codec(to_wire=_gql, from_wire=lambda wire: {"text_or_query": wire["gql"]}))
def explain(self, text_or_query) -> dict:
    """Plan explanation without execution."""


@verb(READ, OWNER, Codec(**_ANNOTATION_RESULT))
def annotation(self, annotation_id: str):
    """The committed annotation with id *annotation_id*."""


@verb(READ, OWNER, PLAIN)
def holds(self, annotation_id: str) -> bool:
    """Whether *annotation_id* is committed here (a lock-free membership probe)."""


@verb(READ, SCATTER, PLAIN)
def search_by_keyword(self, keyword: str, mode: str = "and") -> list[str]:
    """Keyword search over annotation contents."""


@verb(READ, SCATTER,
      Codec(from_wire=lambda wire: {"term": wire["term"], **wire.get("kwargs", {})}))
def search_by_ontology(self, term: str, **kwargs: Any) -> list[str]:
    """Ontology-term search."""


@verb(READ, OWNER, PLAIN)
def related_annotations(self, annotation_id: str) -> list[str]:
    """Indirectly related annotations.  Referent sharing is shard-local by
    construction (annotations of one object co-locate), so the owner answers."""


@verb(READ, SCATTER,
      Codec(encode=dataclasses.asdict, decode=lambda payload: IntegrityReport(**payload)))
def check_integrity(self):
    """Full integrity report under a consistent read view."""


@verb(READ, SCATTER, PLAIN)
def statistics(self) -> dict[str, Any]:
    """Instance statistics, including the serving layer's own counters."""


@verb(READ, SCATTER, PLAIN)
def metrics(self) -> dict[str, Any]:
    """Observability snapshot (JSON-compatible; ``{"enabled": False}`` when off)."""


@verb(READ, SCATTER, PLAIN)
def slow_ops(self) -> list[dict[str, Any]]:
    """Retained slow-op log entries, oldest first."""


@verb(READ, SCATTER, PLAIN, is_property=True)
def annotation_count(self) -> int:
    """Number of committed annotations."""


@verb(READ, ANY, PLAIN)
def resolve_ontology_term(self, text: str) -> str:
    """Term resolution for builders (ontologies are replicated)."""


@verb(READ, ANY, Codec(decode=decode_register))
def data_object(self, object_id: str):
    """Data-object lookup for builders (objects are replicated)."""


@verb(ADMIN, BROADCAST, Codec(encode=lambda path: str(path) if path is not None else None))
def checkpoint(self):
    """Durable checkpoint at a quiesce point; waits for completion."""


@verb(ADMIN, BROADCAST, PLAIN)
def compact(self) -> dict[str, Any]:
    """Compact column storage and prune superseded WAL segments."""

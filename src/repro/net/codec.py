"""Value codec between service objects and wire-frame JSON.

The wire carries plain JSON, so everything richer — query results, committed
annotations, connection subgraphs, content documents — goes through this
module.  It deliberately reuses the WAL/snapshot record codec from
:mod:`repro.core.persistence` (``encode_annotation``/``decode_annotation``,
``encode_referent``/``decode_referent``, ``encode_register``): the annotation
and referent shapes a worker ships to a client are the shapes it logs to
disk, so one codec bug cannot hide behind the other.

Content documents are the exception.  A CONTENTS page's fragment crosses as
one JSON *text* of :meth:`~repro.xmlstore.document.XmlDocument.to_rows`
(``[doc_id, [tag, attributes, text, [child rows...]]]``), not in the disk
shape ``to_dict``: fragment trees are most of what a read ships, positions
instead of keys make the text shorter, and the client builds elements
straight from the decoded rows (:meth:`XmlDocument.from_rows`) instead of
through ``__init__`` and ``append``.  The disk form does not change.

The text is the same for every read of one stored document *version*, so a
worker passes :func:`encode_query_result` a memo mapping each stored
:class:`XmlDocument` object to its text and encodes a version once.  The memo
is keyed by the object, never by its id: the document collection stores a
new object on every change (an edit, a moved shared referent, a delete and
recommit), so an entry cannot go stale, and a weak-keyed memo drops it with
the version it encodes.  Without a memo every fragment is encoded afresh.

Any page :func:`decode_query_result` cannot decode — a missing key, a row of
the wrong shape, fragment text that is not JSON — raises
:class:`~repro.errors.WireError`.
"""

from __future__ import annotations

import json
from typing import Any, MutableMapping

from repro.agraph.connection import ConnectionSubgraph
from repro.agraph.multigraph import Edge
from repro.core.persistence import decode_referent, encode_referent
from repro.errors import GraphittiError, WireError
from repro.query.ast import ReturnKind
from repro.query.result import QueryResult
from repro.xmlstore.document import XmlDocument


def encode_subgraph(subgraph: ConnectionSubgraph) -> dict[str, Any]:
    """Encode one connection subgraph (``to_dict`` plus type extensions)."""
    payload = subgraph.to_dict()
    if subgraph.type_extensions:
        payload["type_extensions"] = {
            name: {
                "referents": list(extension.get("referents", [])),
                "intersections": [list(item) for item in extension.get("intersections", [])],
            }
            for name, extension in subgraph.type_extensions.items()
        }
    return payload


def decode_subgraph(payload: dict[str, Any]) -> ConnectionSubgraph:
    """Rebuild a :class:`ConnectionSubgraph` from :func:`encode_subgraph`."""
    subgraph = ConnectionSubgraph(
        terminals=tuple(payload.get("terminals", [])),
        nodes=set(payload.get("nodes", [])),
        edges=[
            Edge(edge["source"], edge["target"], edge.get("label", ""))
            for edge in payload.get("edges", [])
        ],
        paths=[list(path) for path in payload.get("paths", [])],
    )
    for name, extension in payload.get("type_extensions", {}).items():
        subgraph.attach_type_extension(
            name, extension.get("referents", []), extension.get("intersections", [])
        )
    return subgraph


def _document_text(
    document: XmlDocument, documents: MutableMapping[XmlDocument, str] | None
) -> str:
    """The wire text of *document*: its memo entry, else encoded (and memoised)."""
    text = None if documents is None else documents.get(document)
    if text is None:
        text = json.dumps(document.to_rows(), separators=(",", ":"))
        if documents is not None:
            documents[document] = text
    return text


def encode_query_result(
    result: QueryResult,
    referents_by_annotation: dict[str, list[dict[str, Any]]] | None = None,
    documents: MutableMapping[XmlDocument, str] | None = None,
) -> dict[str, Any]:
    """Encode a per-shard :class:`QueryResult` for the wire.

    *referents_by_annotation* rides along for REFERENTS-kind queries: the
    merge on the client side needs each annotation's full referent list to
    rebuild pages in global order, and over the network it cannot reach into
    the worker's manager the way the threaded merge does.  The flat page is
    that map deduplicated in annotation order, so it is not shipped twice.

    Each fragment is shipped as the JSON text of its rows; *documents* is
    the worker's memo of those texts, keyed by stored document object (see
    the module docstring).  It is only read and assigned, never iterated, so
    connection threads can share it.
    """
    flat = result.referents if referents_by_annotation is None else ()
    payload: dict[str, Any] = {
        "return_kind": result.return_kind.value,
        "annotation_ids": list(result.annotation_ids),
        "referents": [encode_referent(referent) for referent in flat],
        "subgraphs": [encode_subgraph(subgraph) for subgraph in result.subgraphs],
        "step_details": [dict(detail) for detail in result.step_details],
        "fragments": [
            None if fragment is None else _document_text(fragment, documents)
            for fragment in result.fragments
        ],
        "plan_fingerprint": result.plan_fingerprint,
        "degraded": result.degraded,
        "missing_shards": list(result.missing_shards),
    }
    if referents_by_annotation is not None:
        payload["referents_by_annotation"] = referents_by_annotation
    return payload


def decode_query_result(payload: dict[str, Any]) -> QueryResult:
    """Rebuild a :class:`QueryResult` from :func:`encode_query_result`.

    The optional per-annotation referent map is attached as
    ``_net_referents_by_annotation`` (decoded) for the network merge hook,
    and the flat page it replaced on the wire is rebuilt from it.  A page
    that does not decode raises :class:`WireError`.
    """
    try:
        result = QueryResult(
            return_kind=ReturnKind(payload["return_kind"]),
            annotation_ids=list(payload.get("annotation_ids", [])),
            referents=[decode_referent(item) for item in payload.get("referents", [])],
            subgraphs=[decode_subgraph(item) for item in payload.get("subgraphs", [])],
            step_details=[dict(detail) for detail in payload.get("step_details", [])],
            fragments=[
                None if text is None else XmlDocument.from_rows(json.loads(text))
                for text in payload.get("fragments", [])
            ],
            plan_fingerprint=payload.get("plan_fingerprint", ""),
            degraded=bool(payload.get("degraded", False)),
            missing_shards=list(payload.get("missing_shards", [])),
        )
        if "referents_by_annotation" in payload:
            shipped = result._net_referents_by_annotation = {
                annotation_id: [decode_referent(item) for item in items]
                for annotation_id, items in payload["referents_by_annotation"].items()
            }
            seen: set[str] = set()
            for annotation_id in result.annotation_ids:
                for referent in shipped.get(annotation_id, ()):
                    if referent.referent_id not in seen:
                        seen.add(referent.referent_id)
                        result.referents.append(referent)
        return result
    except (GraphittiError, KeyError, TypeError, ValueError, AttributeError, RecursionError) as exc:
        raise WireError(f"malformed query page: {exc!r:.200}") from exc

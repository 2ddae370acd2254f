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

A worker's reply also carries the page's *shape*: the query's ``limit`` and
``referent_sources``, the position of the annotation that introduced each
referent.  The facade merges shard pages from those alone, so it neither
parses the text nor reads a worker's state after the page was made.  The
canonical page form (no ``shape``) is what the pinned fixtures and the e2e
oracle compare, and it does not carry them.

Any page :func:`decode_query_result` cannot decode — a missing key, a row of
the wrong shape, fragment text that is not JSON, a ``limit`` or
``referent_sources`` no executor makes — raises
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
    documents: MutableMapping[XmlDocument, str] | None = None,
    *,
    shape: bool = False,
) -> dict[str, Any]:
    """Encode a per-shard :class:`QueryResult` for the wire.

    Each fragment is shipped as the JSON text of its rows; *documents* is
    the worker's memo of those texts, keyed by stored document object (see
    the module docstring).  It is only read and assigned, never iterated, so
    connection threads can share it.

    With *shape* the page also carries the query's ``limit`` and the
    ``referent_sources`` positions, which is all a sharded merge needs
    besides the page itself; a worker's reply sets it.  Without it the
    encoding is the canonical page form that pinned fixtures compare.
    """
    payload: dict[str, Any] = {
        "return_kind": result.return_kind.value,
        "annotation_ids": list(result.annotation_ids),
        "referents": [encode_referent(referent) for referent in result.referents],
        "subgraphs": [encode_subgraph(subgraph) for subgraph in result.subgraphs],
        "step_details": [dict(detail) for detail in result.step_details],
        "fragments": [
            None if fragment is None else _document_text(fragment, documents)
            for fragment in result.fragments
        ],
        "degraded": result.degraded,
        "missing_shards": list(result.missing_shards),
    }
    if shape:
        payload["limit"] = result.limit
        payload["referent_sources"] = list(result.referent_sources)
    return payload


def decode_query_result(payload: dict[str, Any]) -> QueryResult:
    """Rebuild a :class:`QueryResult` from :func:`encode_query_result`.

    A page that does not decode raises :class:`WireError`, and so does one
    that decodes to a page no executor makes: a ``limit`` that is not a
    non-negative int, ``referent_sources`` that are not one non-decreasing
    position in ``annotation_ids`` per referent (absent counts as empty), or
    a CONTENTS page whose fragments do not pair with its ids.
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
            degraded=bool(payload.get("degraded", False)),
            missing_shards=list(payload.get("missing_shards", [])),
            limit=payload.get("limit"),
            referent_sources=payload.get("referent_sources", []),
        )
    except (GraphittiError, KeyError, TypeError, ValueError, AttributeError, RecursionError) as exc:
        raise WireError(f"malformed query page: {exc!r:.200}") from exc
    limit, sources = result.limit, result.referent_sources
    if limit is not None and (type(limit) is not int or limit < 0):
        raise WireError(f"malformed query page: limit {limit!r:.50}")
    if (
        type(sources) is not list
        or len(sources) != len(result.referents)
        or any(type(source) is not int for source in sources)
        or any(later < earlier for earlier, later in zip(sources, sources[1:]))
        or (sources and not 0 <= sources[0] <= sources[-1] < len(result.annotation_ids))
    ):
        raise WireError(f"malformed query page: referent_sources {sources!r:.100}")
    if result.return_kind is ReturnKind.CONTENTS and len(result.fragments) != len(
        result.annotation_ids
    ):
        raise WireError("malformed query page: fragments do not pair with annotation_ids")
    return result

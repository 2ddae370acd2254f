"""Value codec between service objects and wire-frame JSON.

The wire carries plain JSON, so everything richer — query results, committed
annotations, connection subgraphs, content documents — goes through this
module.  It deliberately reuses the WAL/snapshot record codec from
:mod:`repro.core.persistence` (``encode_annotation``/``decode_annotation``,
``encode_referent``/``decode_referent``, ``encode_register``): the bytes a
worker ships to a client are the same shapes it logs to disk, so one codec
bug cannot hide behind the other.

One fidelity note: :class:`~repro.agraph.multigraph.Edge` attributes are not
part of ``ConnectionSubgraph.to_dict`` and therefore not part of the wire
shape either — merged GRAPH pages compare via ``to_dict`` on both the
threaded and network paths, so the oracle-equivalence contract is unaffected.
"""

from __future__ import annotations

from typing import Any

from repro.agraph.connection import ConnectionSubgraph
from repro.agraph.multigraph import Edge
from repro.core.persistence import decode_referent, encode_referent
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


def encode_query_result(
    result: QueryResult, referents_by_annotation: dict[str, list[dict[str, Any]]] | None = None
) -> dict[str, Any]:
    """Encode a per-shard :class:`QueryResult` for the wire.

    *referents_by_annotation* rides along for REFERENTS-kind queries: the
    merge on the client side needs each annotation's full referent list to
    rebuild pages in global order, and over the network it cannot reach into
    the worker's manager the way the threaded merge does.  The flat page is
    that map deduplicated in annotation order, so it is not shipped twice.
    """
    flat = result.referents if referents_by_annotation is None else ()
    payload: dict[str, Any] = {
        "return_kind": result.return_kind.value,
        "annotation_ids": list(result.annotation_ids),
        "referents": [encode_referent(referent) for referent in flat],
        "subgraphs": [encode_subgraph(subgraph) for subgraph in result.subgraphs],
        "step_details": [dict(detail) for detail in result.step_details],
        "fragments": [
            fragment.to_dict() if fragment is not None else None for fragment in result.fragments
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
    and the flat page it replaced on the wire is rebuilt from it.
    """
    result = QueryResult(
        return_kind=ReturnKind(payload["return_kind"]),
        annotation_ids=list(payload.get("annotation_ids", [])),
        referents=[decode_referent(item) for item in payload.get("referents", [])],
        subgraphs=[decode_subgraph(item) for item in payload.get("subgraphs", [])],
        step_details=[dict(detail) for detail in payload.get("step_details", [])],
        fragments=[
            XmlDocument.from_dict(item) if item is not None else None
            for item in payload.get("fragments", [])
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

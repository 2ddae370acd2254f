"""Hash routing and on-disk topology for the sharded serving layer.

The router decides which shard owns what, with three deterministic rules:

* **data objects are broadcast** — every shard registers every object (and
  ontology), so any shard can validate and index any annotation;
* **annotations route by their annotated object's id** — the first
  referent's ``object_id`` is CRC32-hashed onto a shard, so every annotation
  of the same data object (and therefore the referent-sharing a-graph edges
  between them) lands on one shard;
* **generated annotation ids encode their shard** — each shard's manager
  carries an ``id_namespace`` (``anno-s02-000317``), so point lookups and
  deletes resolve their owner by parsing the id instead of scattering.

CRC32 is used instead of :func:`hash` because routing must be stable across
processes and restarts (``PYTHONHASHSEED`` randomizes ``str.__hash__``).

The shard topology of a durable deployment is recorded in a ``shards.json``
manifest next to the per-shard directories, landed by
:func:`~repro.service.wal.write_json_atomic` (write-temp + fsync +
atomic-rename), so a crash mid-checkpoint can never leave a half-written
topology.
"""

from __future__ import annotations

import json
import re
import zlib
from pathlib import Path
from typing import Any

from repro.errors import ServiceError

#: Topology manifest written next to the per-shard directories.
MANIFEST_FILE = "shards.json"

#: The routing rule identifier recorded in the manifest (a deployment whose
#: manifest names a different scheme must not be opened with this router).
ROUTING_SCHEME = "crc32:object-id"

_SHARD_ID_PATTERN = re.compile(r"^anno-s(\d+)-")


def shard_namespace(index: int) -> str:
    """The id namespace of shard *index* (``s00``, ``s01``, ...)."""
    return f"s{index:02d}"


def shard_dir_name(index: int) -> str:
    """The on-disk directory name of shard *index*."""
    return f"shard-{index:02d}"


def shard_for_key(key: str, shard_count: int) -> int:
    """Deterministic shard index for a routing key (CRC32 mod shard count)."""
    return zlib.crc32(key.encode("utf-8")) % shard_count


def shard_for_annotation(annotation, shard_count: int) -> int:
    """The shard an annotation routes to.

    Routing keys on the **first referent's object id**, so annotations of
    the same data object co-locate.  An annotation with no referents (pure
    ontology-pointing content) hashes its own id instead.
    """
    for referent in annotation.referents:
        return shard_for_key(referent.ref.object_id, shard_count)
    return shard_for_key(annotation.annotation_id, shard_count)


def shard_from_annotation_id(annotation_id: str) -> int | None:
    """The shard index a generated annotation id encodes (None for foreign ids)."""
    match = _SHARD_ID_PATTERN.match(annotation_id)
    return int(match.group(1)) if match else None


def read_manifest(root: str | Path) -> dict[str, Any] | None:
    """The shard manifest at *root*, or None when the root has none."""
    path = Path(root) / MANIFEST_FILE
    if not path.exists():
        return None
    with path.open("r", encoding="utf-8") as handle:
        manifest = json.load(handle)
    if manifest.get("routing") not in (None, ROUTING_SCHEME):
        raise ServiceError(
            f"manifest at {path} uses routing {manifest.get('routing')!r}; "
            f"this router implements {ROUTING_SCHEME!r}"
        )
    return manifest


def is_sharded_root(root: str | Path) -> bool:
    """Whether *root* holds a sharded deployment: a manifest, or ``shard-*``
    directories whose manifest never landed (they ARE the topology)."""
    return read_manifest(root) is not None or any(Path(root).glob("shard-*"))

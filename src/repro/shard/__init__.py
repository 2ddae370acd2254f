"""Horizontal sharding for the Graphitti serving layer.

* :mod:`repro.shard.router` -- deterministic hash routing, shard-encoding
  annotation ids, and the ``shards.json`` topology manifest;
* :mod:`repro.shard.service` -- :class:`ShardedGraphittiService`, the
  scatter-gather facade over N independent
  :class:`~repro.service.service.GraphittiService` shards.
"""

from repro.shard.router import (
    MANIFEST_FILE,
    ROUTING_SCHEME,
    is_sharded_root,
    read_manifest,
    shard_for_annotation,
    shard_for_key,
    shard_from_annotation_id,
    shard_namespace,
)
from repro.shard.service import ShardedGraphittiService, ShardedIntegrityReport

__all__ = [
    "ShardedGraphittiService",
    "ShardedIntegrityReport",
    "MANIFEST_FILE",
    "ROUTING_SCHEME",
    "is_sharded_root",
    "read_manifest",
    "shard_for_key",
    "shard_for_annotation",
    "shard_from_annotation_id",
    "shard_namespace",
]

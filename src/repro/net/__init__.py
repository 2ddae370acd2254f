"""Process-per-shard network serving.

``repro.net`` promotes the shards of :class:`repro.shard.ShardedGraphittiService`
from threads in one process to independent OS worker processes behind a
length-framed JSON protocol over TCP:

- :mod:`repro.net.wire` — the framing codec (4-byte length prefix + JSON
  body) and a streaming decoder that tolerates arbitrary chunk boundaries.
- :mod:`repro.net.codec` — query pages to and from wire JSON; a CONTENTS
  fragment crosses as the JSON text of its rows, encoded once per stored
  document version.
- :mod:`repro.net.server` — ``ShardWorkerServer``, one per worker process,
  wrapping a per-shard :class:`repro.service.GraphittiService` with
  idempotency-keyed mutation dedup, a bounded write-admission window and
  the memo of fragment texts.
- :mod:`repro.net.client` — ``ShardClient``, a connection-pooled RPC proxy
  with per-op timeouts, capped exponential backoff with jitter, and
  idempotency keys so a retried commit never double-applies.
- :mod:`repro.net.supervisor` — worker process spawning, announce-file
  discovery, heartbeat-driven dead-shard detection, and automatic restart
  with WAL recovery.
- :mod:`repro.net.facade` — :class:`NetworkShardedGraphittiService`, the
  drop-in, API-compatible replacement for the threaded sharded service.
"""

from repro.errors import (
    BackpressureError,
    ShardTimeoutError,
    ShardUnavailableError,
    WireError,
)
from repro.net.client import RetryPolicy, ShardClient
from repro.net.facade import NetworkShardedGraphittiService
from repro.net.server import ShardWorkerServer, run_worker
from repro.net.supervisor import HeartbeatMonitor, WorkerHandle
from repro.net.wire import FrameDecoder, decode_frames, encode_frame, read_frame, send_frame

__all__ = [
    "BackpressureError",
    "FrameDecoder",
    "HeartbeatMonitor",
    "NetworkShardedGraphittiService",
    "RetryPolicy",
    "ShardClient",
    "ShardTimeoutError",
    "ShardUnavailableError",
    "ShardWorkerServer",
    "WireError",
    "WorkerHandle",
    "decode_frames",
    "encode_frame",
    "read_frame",
    "run_worker",
    "send_frame",
]

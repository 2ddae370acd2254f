"""The Graphitti serving layer.

Wraps a :class:`~repro.core.manager.Graphitti` instance in the machinery a
multi-user deployment needs — single-writer/multi-reader locking, a
write-ahead log with snapshot checkpoints and crash recovery, a
write-invalidated query-result cache, and a group-committed bulk ingest path:

* :mod:`repro.service.locks` -- the writer-preference readers-writer lock,
* :mod:`repro.service.cache` -- the LRU result cache each write trims,
* :mod:`repro.service.wal` -- the append-only JSONL write-ahead log,
* :mod:`repro.service.durability` -- snapshot+WAL lifecycle and recovery,
* :mod:`repro.service.service` -- the :class:`GraphittiService` facade.
"""

from repro.service.cache import QueryResultCache
from repro.service.durability import DurableStore, apply_record, recover_manager
from repro.service.locks import ReadWriteLock
from repro.service.service import GraphittiService, ServiceConfig
from repro.service.wal import (
    WriteAheadLog,
    encode_record,
    fsync_dir,
    read_segmented_records,
    scan_records,
)

__all__ = [
    "GraphittiService",
    "ServiceConfig",
    "ReadWriteLock",
    "QueryResultCache",
    "WriteAheadLog",
    "read_segmented_records",
    "scan_records",
    "encode_record",
    "fsync_dir",
    "DurableStore",
    "apply_record",
    "recover_manager",
]

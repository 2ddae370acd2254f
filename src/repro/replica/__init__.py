"""WAL-shipping replication for the Graphitti serving layer.

* :mod:`repro.replica.tailer` -- the incremental WAL cursor + shipment codec,
* :mod:`repro.replica.follower` -- one read replica and its apply path,
* :mod:`repro.replica.replicated` -- primary + followers behind one facade
  (bounded-staleness reads, heartbeat lease, fenced failover),
* :mod:`repro.replica.faults` -- the deterministic fault-injection harness.
"""

from repro.replica.faults import (
    FAULT_POINTS,
    FaultRule,
    FaultSchedule,
    InjectedFsyncError,
    PrimaryCrashed,
    tear_payload,
)
from repro.replica.follower import ReplicaFollower, StaleTermError
from repro.replica.replicated import (
    PRIMARY_DIR,
    REPLICATION_MANIFEST,
    ReplicatedGraphittiService,
    ReplicationConfig,
    read_replication_manifest,
    replica_dir_name,
)
from repro.replica.tailer import (
    ReplicationGapError,
    WalCursor,
    decode_shipment,
    encode_shipment,
)

__all__ = [
    "WalCursor",
    "ReplicationGapError",
    "encode_shipment",
    "decode_shipment",
    "ReplicaFollower",
    "StaleTermError",
    "ReplicatedGraphittiService",
    "ReplicationConfig",
    "read_replication_manifest",
    "replica_dir_name",
    "REPLICATION_MANIFEST",
    "PRIMARY_DIR",
    "FaultSchedule",
    "FaultRule",
    "FAULT_POINTS",
    "PrimaryCrashed",
    "InjectedFsyncError",
    "tear_payload",
]

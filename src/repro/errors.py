"""Exception hierarchy shared by every Graphitti subsystem.

All errors raised by the library derive from :class:`GraphittiError`, so a
caller can catch one base class to handle any library failure.  Each
subsystem gets its own subclass so that callers who care about the origin of
a failure (the XML store vs. the query parser, say) can discriminate
without string matching.
"""

from __future__ import annotations


class GraphittiError(Exception):
    """Base class for every error raised by the Graphitti library."""


class XmlStoreError(GraphittiError):
    """Error raised by the XML annotation-content store."""


class XmlParseError(XmlStoreError):
    """The XML text could not be parsed."""


class XPathError(XmlStoreError):
    """An XPath-subset expression is malformed or cannot be evaluated."""


class SpatialError(GraphittiError):
    """Error raised by the spatial (interval tree / R-tree) substrate."""


class CoordinateSystemError(SpatialError):
    """A substructure was registered against an incompatible coordinate system."""


class OntologyError(GraphittiError):
    """Error raised by the ontology subsystem."""


class UnknownTermError(OntologyError):
    """An ontology operation referenced a term that does not exist."""


class UnknownRelationError(OntologyError):
    """An ontology operation referenced a relation type that does not exist."""


class AGraphError(GraphittiError):
    """Error raised by the a-graph (annotation graph) subsystem."""


class UnknownNodeError(AGraphError):
    """An a-graph operation referenced a node that does not exist."""


class AnnotationError(GraphittiError):
    """Error raised by the core annotation model."""


class UnknownDataTypeError(AnnotationError):
    """A data type was used before being registered with the manager."""


class UnknownObjectError(AnnotationError):
    """A data object identifier does not resolve to a registered object."""


class MarkError(AnnotationError):
    """A substructure mark is invalid for the data object it targets."""


class QueryError(GraphittiError):
    """Error raised by the Graphitti query language subsystem."""


class QuerySyntaxError(QueryError):
    """The GQL text could not be tokenized or parsed."""


class QueryPlanError(QueryError):
    """The planner could not produce a feasible subquery ordering."""


class QueryExecutionError(QueryError):
    """A runtime failure occurred while executing a query plan."""


class WorkloadError(GraphittiError):
    """Error raised by the synthetic workload generators."""


class ServiceError(GraphittiError):
    """Error raised by the serving layer (:mod:`repro.service`)."""


class ConfigError(GraphittiError, ValueError):
    """An invalid configuration value (capacity, interval, policy name).

    Also a :class:`ValueError` so idiomatic callers (and existing tests)
    that guard constructor arguments with ``except ValueError`` keep
    working while the typed taxonomy stays closed."""


class WalCorruptionError(ServiceError):
    """The write-ahead log contains an unreadable record before its tail.

    A truncated *final* record is expected after a crash and is tolerated by
    replay; corruption anywhere earlier means the log cannot be trusted and
    recovery refuses to guess."""


class SnapshotCorruptionError(ServiceError):
    """A snapshot's bytes do not match the checksum written with them.

    Raised for damage that would still parse (a flipped digit) as well as
    for a truncated file: a snapshot is only loaded when it is exactly what
    the writer wrote."""


class WireError(ServiceError):
    """A network frame could not be encoded, decoded, or fully delivered.

    Raised for torn/truncated frames, oversized frames, and bodies that are
    not valid JSON.  A client treats it like a connection loss: the request
    outcome is unknown and the connection must be discarded."""


class ShardTimeoutError(ServiceError):
    """A shard did not answer within the configured deadline.

    Shared by the threaded scatter path (a hung shard callable) and the
    network path (a slow or black-holed worker), so callers handle both
    topologies with one except clause."""


class ShardUnavailableError(ServiceError):
    """A shard is unreachable (dead, restarting, or past its retry budget).

    Carries the shard indices that were unavailable so degraded-read callers
    can report exactly which part of the keyspace is missing."""

    def __init__(self, message: str, shards: tuple[int, ...] = ()):  # pragma: no cover - trivial
        super().__init__(message)
        self.shards = tuple(shards)


class BackpressureError(ServiceError):
    """A shard refused a write because its in-flight window is full.

    ``retry_after`` is the server's hint (seconds) for when to try again —
    the wire-level equivalent of an HTTP ``Retry-After`` header."""

    def __init__(self, message: str, retry_after: float = 0.05):
        super().__init__(message)
        self.retry_after = float(retry_after)

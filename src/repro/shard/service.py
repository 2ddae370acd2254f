"""Scatter-gather serving over hash-routed :class:`GraphittiService` shards.

:class:`ShardedGraphittiService` presents the single-service API over N
independent :class:`~repro.service.service.GraphittiService` shards:

* **writes route** — an annotation lands on the shard its annotated object
  hashes to (see :mod:`repro.shard.router`), so annotations of one data
  object — and the a-graph edges between them — stay co-located; data
  objects and ontologies are broadcast to every shard so any shard can
  validate and index any annotation.
* **queries scatter-gather** — the query text runs on every shard in
  parallel on a thread pool (each shard plans against its own statistics
  catalogue and serves from its own epoch-tagged result cache), and the
  per-shard :class:`~repro.query.result.QueryResult` pages merge with a
  stable global ordering: annotation ids merge-sort lexicographically (the
  executor's own collation order), ``LIMIT`` is re-applied globally, and
  fragments/referents/subgraphs follow the merged order.
* **durability is per shard, coordination is a manifest** — every shard
  keeps its own WAL + snapshot directory; :meth:`checkpoint` checkpoints all
  shards in parallel and then atomically lands a ``shards.json`` manifest
  recording the topology and per-shard WAL high-water marks;
  :meth:`recover` replays every shard (same torn-tail rules as a single
  service) before the router accepts traffic.
* **bulk ingest stays grouped** — :meth:`bulk_commit` groups the batch by
  shard and group-commits the per-shard batches concurrently.

Because each shard caches and invalidates independently, a mutation only
evicts cached results on the shard it touched: a hot scatter-gather query
re-executes 1/N of its work after a typical write instead of all of it —
the effect ``benchmarks/bench_sharding.py`` measures and floors.

Known divergences from a single service (both inherent to shard-local
a-graphs): ``GRAPH`` results group connection subgraphs per shard, so two
annotations connected *only* through a replicated ontology term node appear
as separate pages; ``PATH`` constraints likewise only see shard-local paths.
Annotation-level constraints (keyword / ontology / overlap / region / type /
NOT / OR) are per-annotation predicates and merge exactly.
"""

from __future__ import annotations

import hashlib
import threading
import time
import uuid
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

from repro.core.annotation import Annotation, AnnotationContent
from repro.core.builder import AnnotationBuilder
from repro.core.dublin_core import DublinCore
from repro.core.manager import Graphitti
from repro.errors import (
    AnnotationError,
    GraphittiError,
    ServiceError,
    ShardTimeoutError,
    ShardUnavailableError,
    UnknownObjectError,
)
from repro.obs import Observability, merge_stats
from repro.obs.tracing import current_span
from repro.query.ast import Query, ReturnKind
from repro.query.parser import parse_query
from repro.query.result import QueryResult
from repro.replica.replicated import (
    REPLICATION_MANIFEST,
    ReplicatedGraphittiService,
    ReplicationConfig,
)
from repro.service import ops
from repro.service.cache import normalize_gql
from repro.service.durability import SNAPSHOT_FILE, WAL_FILE, has_durable_state
from repro.service.service import GraphittiService, ServiceConfig
from repro.shard.router import (
    MANIFEST_FILE,
    ROUTING_SCHEME,
    read_manifest,
    shard_dir_name,
    shard_for_annotation,
    shard_from_annotation_id,
    shard_namespace,
    write_manifest,
)

_PENDING_PREFIX = "anno-pending-"

#: Top-level statistics keys describing broadcast (replicated) substrates:
#: every shard holds the same value, so aggregation reports it once instead
#: of summing N copies.
_REPLICATED_STATS_KEYS = ("data_objects", "objects_by_type", "ontologies")


def resolve_topology(root: Path, shards: int | None) -> tuple[int, dict[str, Any] | None]:
    """Resolve the shard count for *root*; returns ``(count, manifest)``.

    The manifest's shard count wins; without one, existing ``shard-*``
    directories ARE the topology; a root holding unsharded single-service
    state is refused; a fresh root takes *shards* (default 4).  Passing a
    *shards* value that contradicts existing state raises — resharding is a
    data migration, not an open-time flag.  Shared by the threaded facade
    and :class:`repro.net.facade.NetworkShardedGraphittiService` so the two
    topologies resolve identically.
    """
    root = Path(root)
    manifest = read_manifest(root)
    existing_dirs = len(list(root.glob("shard-*"))) if root.exists() else 0
    if manifest is not None:
        count = int(manifest["shards"])
        if shards is not None and shards != count:
            raise ServiceError(
                f"root {root} is sharded {count} ways (per {MANIFEST_FILE}); "
                f"got shards={shards} — resharding requires a migration"
            )
    elif existing_dirs:
        # A lost/never-landed manifest must not default the topology:
        # opening an 8-shard root 4 ways would serve half the data and
        # misroute every write.  The shard directories ARE the topology.
        count = existing_dirs
        if shards is not None and shards != count:
            raise ServiceError(
                f"root {root} holds {count} shard director(ies) but no "
                f"{MANIFEST_FILE}; got shards={shards} — resharding requires "
                "a migration"
            )
    else:
        # Refuse to lay shards over a single-service root: creating N
        # empty shard directories (and a manifest every later open
        # adopts) next to an existing snapshot/WAL would permanently
        # hide that data behind an empty sharded instance.
        if has_durable_state(root):
            raise ServiceError(
                f"root {root} holds unsharded service state "
                f"({SNAPSHOT_FILE}/{WAL_FILE}); open it with "
                "GraphittiService, or migrate it before sharding"
            )
        count = shards if shards is not None else 4
    return count, manifest


@dataclass
class ShardedIntegrityReport:
    """Integrity verdict across every shard."""

    reports: list = field(default_factory=list)
    #: Shard-attributed error strings (empty when every shard passed).
    errors: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors


def shard_manager(name: str, index: int) -> Graphitti:
    """A fresh manager whose generated annotation ids encode shard *index*."""
    namespace = shard_namespace(index)
    return Graphitti(f"{name}-{namespace}", id_namespace=namespace)


def open_shard(
    shard_root: str | Path,
    index: int,
    config: ServiceConfig | None = None,
    name: str = "graphitti",
    opener: Callable[..., Any] = GraphittiService.open,
    **options: Any,
) -> Any:
    """Open (or recover) the service of shard *index* in its own directory.

    Shared by the threaded facade, the in-thread network workers and the
    worker process, so every topology lays a shard out identically.
    """
    service = opener(
        shard_root,
        config=config,
        manager_factory=lambda: shard_manager(name, index),
        **options,
    )
    # WAL-only recoveries predate the namespace; (re)pin it so ids generated
    # after a recovery or failover still encode their shard.
    service.manager.id_namespace = shard_namespace(index)
    return service


def _routed(op: ops.Op) -> Callable | None:
    """The facade method the row's routing column implies.

    ``referent``-routed verbs (and any verb with its own merge) are written
    out in the class; the rest are exactly their routing.
    """
    if op.routing == ops.OWNER:
        return lambda self, annotation_id, *args, **kwargs: op.call(
            self._owner(annotation_id), annotation_id, *args, **kwargs
        )
    if op.routing == ops.ANY:
        # Replicated state (ontologies, the object catalogue): one shard answers.
        return lambda self, *args, **kwargs: op.call(self._shards[0], *args, **kwargs)
    if op.routing == ops.BROADCAST:
        # Replication is what lets any shard validate and index any
        # annotation; registrations are rare and small next to annotation
        # traffic, so N copies are cheap.
        return lambda self, *args, **kwargs: self._scatter(
            op.name, self._all(*args, **kwargs)
        )[0]
    if op.routing == ops.SCATTER:
        return lambda self, *args, **kwargs: sorted(
            set().union(*map(set, self._scatter(op.name, self._all(*args, **kwargs))))
        )
    return None


@ops.surface(_routed)
class ShardedGraphittiService:
    """Hash-routed scatter-gather facade over N GraphittiService shards."""

    def __init__(
        self,
        shards: int | None = None,
        root: str | Path | None = None,
        config: ServiceConfig | None = None,
        name: str = "graphitti",
        services: list[GraphittiService] | None = None,
    ):
        if services is not None:
            self._shards = services
        else:
            count = shards if shards is not None else 4
            if count < 1:
                raise ServiceError("a sharded service needs at least one shard")
            self._shards = [
                GraphittiService(
                    manager=shard_manager(name, index),
                    root=Path(root) / shard_dir_name(index) if root is not None else None,
                    config=config,
                )
                for index in range(count)
            ]
        self.config = self._shards[0].config
        # The facade's own registry records the scatter/merge stages; the
        # per-shard registries live in the shard services and merge into
        # metrics() the same way statistics() sums per-shard dicts.
        self.obs = Observability(self.config.observability)
        self._root = Path(root) if root is not None else None
        self._pool = ThreadPoolExecutor(
            max_workers=max(2, len(self._shards)), thread_name_prefix="shard"
        )
        self._checkpoints = 0
        self._closed = False
        self._recovery_info: dict[str, Any] | None = None
        # normalized GQL -> (return kind, limit); the merge step needs the
        # query shape, and parsing it once per distinct text is enough (the
        # shape does not depend on data, unlike plans).
        self._shapes: OrderedDict[str, tuple[ReturnKind, int | None]] = OrderedDict()
        self._shapes_mutex = threading.Lock()

    # -- lifecycle -------------------------------------------------------------

    @classmethod
    def open(
        cls,
        root: str | Path,
        shards: int | None = None,
        config: ServiceConfig | None = None,
        name: str = "graphitti",
        replicas: int | None = None,
        replication: ReplicationConfig | None = None,
    ) -> "ShardedGraphittiService":
        """Open (or recover) the sharded deployment at *root*.

        A root with a ``shards.json`` manifest fixes the topology: the
        manifest's shard count wins, and passing a different *shards* value
        raises (resharding is a data migration, not an open-time flag).  A
        fresh root lays out ``shard-00..shard-NN`` directories, checkpoints
        each shard's empty baseline, and writes the manifest.  Every shard
        holding prior state is recovered — WAL replay, torn-tail rules and
        all — before the instance is returned.

        With ``replicas=N`` (or when the shard directories already hold
        replication manifests) each shard opens as a
        :class:`~repro.replica.replicated.ReplicatedGraphittiService` —
        writes land on the shard's primary, scatter-gather reads serve from
        its followers.  The default per-shard read contract is ``"fresh"``
        (a read waits for a follower to reach the last acknowledged write,
        then degrades to the primary), so scatter-gather semantics match the
        unreplicated deployment exactly.
        """
        root = Path(root)
        count, manifest = resolve_topology(root, shards)
        # A shard directory holding a replication manifest was deployed
        # replicated; reopen it that way even without an explicit replicas=.
        replicated = replicas is not None or any(
            (root / shard_dir_name(index) / REPLICATION_MANIFEST).exists()
            for index in range(count)
        )
        options: dict[str, Any] = {}
        if replicated:
            options = {
                "opener": ReplicatedGraphittiService.open,
                "replicas": replicas,
                "replication": replication or ReplicationConfig(default_read="fresh"),
            }
        services = [
            open_shard(root / shard_dir_name(index), index, config, name, **options)
            for index in range(count)
        ]
        recovery = [service.recovery_info for service in services]
        instance = cls(root=root, services=services)
        instance._adopt_topology(recovery, manifest)
        return instance

    def _adopt_topology(
        self, recovery: list[dict[str, Any] | None], manifest: dict[str, Any] | None
    ) -> None:
        """Record what the shards recovered and land (or adopt) the manifest."""
        if any(info is not None for info in recovery):
            self._recovery_info = {
                "shards": len(recovery),
                "replayed": sum((info or {}).get("replayed", 0) for info in recovery),
                "skipped": sum((info or {}).get("skipped", 0) for info in recovery),
                "torn_tails": sum(1 for info in recovery if (info or {}).get("torn_tail")),
                "per_shard": recovery,
            }
        if manifest is None:
            self._write_manifest()
        else:
            self._checkpoints = int(manifest.get("checkpoints", 0))

    @classmethod
    def recover(
        cls, root: str | Path, config: ServiceConfig | None = None
    ) -> "ShardedGraphittiService":
        """Recover the deployment at *root*; raises when it holds no state."""
        root = Path(root)
        if read_manifest(root) is None and not any(root.glob("shard-*")):
            raise ServiceError(f"no shard manifest or shard directories under {root}")
        return cls.open(root, config=config)

    @property
    def shard_count(self) -> int:
        return len(self._shards)

    @property
    def shards(self) -> tuple[GraphittiService, ...]:
        """The underlying shard services (route writes through the router —
        mutating a shard directly bypasses id namespacing and the manifest)."""
        return tuple(self._shards)

    @property
    def recovery_info(self) -> dict[str, Any] | None:
        """Aggregated recovery report (None when no shard recovered)."""
        return self._recovery_info

    def close(self) -> None:
        """Checkpoint (per shard config), close every shard, stop the pool."""
        if self._closed:
            return
        for shard in self._shards:
            shard.close()
        if self._root is not None:
            self._write_manifest()
        self._pool.shutdown(wait=True)
        self._closed = True

    def __enter__(self) -> "ShardedGraphittiService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- scatter helpers -------------------------------------------------------

    def _all(self, *args: Any, **kwargs: Any) -> list[tuple[int, tuple, dict[str, Any]]]:
        """The same call on every shard, as rows for :meth:`_scatter`."""
        return [(index, args, kwargs) for index in range(len(self._shards))]

    def _scatter(
        self,
        verb: str,
        calls: Sequence[tuple[int, tuple, dict[str, Any]]],
        tolerate: tuple[type[GraphittiError], ...] = (),
        inline: bool = False,
    ) -> list[Any]:
        """The one scatter seam: table verb *verb* on each ``(shard index,
        args, kwargs)`` row of *calls* in parallel; results in row order.

        An error of a *tolerate* class is returned in its row's place, not
        raised.  *inline* marks a call too cheap for a pool hop (a lock-free
        membership probe): here it runs on the caller's thread.  Shard tasks
        never re-enter the pool, so waiting on them cannot deadlock.  The
        network facade overrides this method alone, to scatter without a pool.

        With ``ServiceConfig.scatter_deadline_s`` set, a shard that does not
        answer in time raises :class:`ShardTimeoutError` — the typed error the
        network path maps its per-op timeouts to — instead of hanging the
        merge.  The deadline is one budget for the whole scatter, not per shard.
        """
        op = ops.OPS[verb]
        # Pool threads have their own (empty) span stacks: a traced caller's
        # open span is handed to each shard task as explicit parent, and what
        # the shard traces hangs off that task's shard.<verb> span.
        parent = current_span() if self.obs.enabled else None

        def run(index: int, args: tuple, kwargs: dict[str, Any]) -> Any:
            try:
                if parent is None:
                    return op.call(self._shards[index], *args, **kwargs)
                with self.obs.tracer.span(f"shard.{verb}", parent=parent) as span:
                    span.set("shard", index)
                    return op.call(self._shards[index], *args, **kwargs)
            except tolerate as exc:
                return exc

        if inline:
            return [run(*call) for call in calls]
        futures = [self._pool.submit(run, *call) for call in calls]
        deadline = self.config.scatter_deadline_s
        end = None if deadline is None else time.monotonic() + deadline
        results = []
        for position, future in enumerate(futures):
            try:
                results.append(
                    future.result(None if end is None else max(0.0, end - time.monotonic()))
                )
            except FuturesTimeoutError:
                for pending in futures[position:]:
                    pending.cancel()
                raise ShardTimeoutError(
                    f"shard {calls[position][0]} did not answer within the "
                    f"{deadline}s scatter deadline"
                ) from None
        return results

    def _owning_shard(self, annotation_id: str) -> int | None:
        """The shard holding *annotation_id*, or None.

        Generated ids encode their shard and resolve in O(1); foreign
        (caller-chosen) ids fall back to probing every shard's committed-id
        dict in one scatter round — a GIL-atomic membership read, cheap
        enough for point lookups and re-validated under the owning shard's
        lock by whatever operation follows.
        """
        encoded = shard_from_annotation_id(annotation_id)
        if encoded is not None and encoded < len(self._shards):
            if self._shards[encoded].holds(annotation_id):
                return encoded
        # Fall through to a full probe even when the id *looks* shard-encoded:
        # ids imported from another deployment (a different topology, a
        # migration) route by referent hash, not by their legacy encoding.
        others = [call for call in self._all(annotation_id) if call[0] != encoded]
        held = self._scatter("holds", others, inline=True)
        return next((call[0] for call, answer in zip(others, held) if answer), None)

    def _owner(self, annotation_id: str) -> Any:
        """The shard service holding *annotation_id* (owner-routed verbs)."""
        index = self._owning_shard(annotation_id)
        if index is None:
            raise AnnotationError(f"no annotation {annotation_id!r}")
        return self._shards[index]

    def holds(self, annotation_id: str) -> bool:
        """Whether any shard holds *annotation_id*."""
        return self._owning_shard(annotation_id) is not None

    # -- write path ------------------------------------------------------------

    def new_annotation(
        self,
        annotation_id: str | None = None,
        title: str = "",
        creator: str = "",
        keywords: Iterable[str] = (),
        body: str = "",
        description: str = "",
    ) -> AnnotationBuilder:
        """Start building an annotation whose commit routes through the router.

        With no explicit id the definitive, shard-encoding id is assigned at
        commit time — only then is the annotated object (and therefore the
        owning shard) known.  Until then the builder carries an opaque
        placeholder.
        """
        if annotation_id is None:
            identifier = _PENDING_PREFIX + uuid.uuid4().hex
        else:
            identifier = annotation_id
            if self._owning_shard(identifier) is not None:
                raise AnnotationError(f"annotation id {identifier!r} already exists")
        dublin_core = DublinCore(
            title=title,
            creator=creator,
            subject=list(keywords),
            description=description,
            identifier=identifier,
        )
        content = AnnotationContent(dublin_core=dublin_core, body=body)
        return AnnotationBuilder(self, identifier, content)

    def _finalize_routing(self, annotation: Annotation) -> int:
        """Pick the owning shard; materialize a pending id on that shard.

        Explicit ids are re-checked against EVERY shard here, at commit
        time: the owning shard's own commit only rejects duplicates it
        holds, and two same-id annotations routing to different shards would
        otherwise both land — a ghost duplicate no single service allows.
        """
        index = shard_for_annotation(annotation, len(self._shards))
        if annotation.annotation_id.startswith(_PENDING_PREFIX):
            identifier = self._shards[index].reserve_annotation_id()
            annotation.annotation_id = identifier
            annotation.content.dublin_core.identifier = identifier
        elif self._owning_shard(annotation.annotation_id) is not None:
            raise AnnotationError(
                f"annotation {annotation.annotation_id!r} already committed"
            )
        return index

    def commit(self, annotation: Annotation | AnnotationBuilder) -> Annotation:
        """Commit one annotation on the shard its annotated object routes to."""
        if isinstance(annotation, AnnotationBuilder):
            annotation = annotation.build()
        index = self._finalize_routing(annotation)
        return self._shards[index].commit(annotation)

    def bulk_commit(
        self, annotations: Iterable[Annotation | AnnotationBuilder]
    ) -> list[Annotation]:
        """Group a batch by shard and group-commit the groups concurrently.

        Each per-shard group commits atomically (one lock acquisition, one
        WAL group commit on that shard); atomicity across shards is not
        provided — a batch that fails validation on one shard leaves the
        other shards' groups committed, exactly like two independent bulk
        loads.  Returns the committed annotations in input order.
        """
        batch = [
            item.build() if isinstance(item, AnnotationBuilder) else item
            for item in annotations
        ]
        if not batch:
            return []
        groups: dict[int, list[tuple[int, Annotation]]] = {}
        seen_ids: set[str] = set()
        for position, annotation in enumerate(batch):
            index = self._finalize_routing(annotation)
            # Intra-batch duplicates that route to DIFFERENT shards would
            # slip past each shard group's own validation; reject them here
            # like a single service's batch validation does.
            if annotation.annotation_id in seen_ids:
                raise AnnotationError(
                    f"annotation {annotation.annotation_id!r} already committed"
                )
            seen_ids.add(annotation.annotation_id)
            groups.setdefault(index, []).append((position, annotation))
        committed_groups = self._scatter(
            "bulk_commit",
            [(index, ([item for _, item in group],), {}) for index, group in groups.items()],
        )
        ordered: list[Annotation | None] = [None] * len(batch)
        for group, committed in zip(groups.values(), committed_groups):
            for (position, _), annotation in zip(group, committed):
                ordered[position] = annotation
        return [annotation for annotation in ordered if annotation is not None]

    def delete_object(self, object_id: str, cascade: bool = True) -> list[str]:
        """Retire a data object: broadcast the delete, cascade per shard.

        Objects are replicated, and annotations routed by their *first*
        referent's object can still reference this object from any shard —
        so the delete goes to every shard and each cascades through the
        annotations it holds.  With ``cascade=False`` the check aggregates
        across shards *before* any shard mutates; like ``bulk_commit``,
        cross-shard atomicity is not provided, so under a concurrent commit
        the precheck is advisory and one shard's own locked re-check may
        still refuse after others deleted their copies.  The broadcast is
        **convergent** to make that recoverable: a shard whose copy is
        already gone reports no work instead of failing, so re-running (with
        ``cascade=True``) finishes the retirement.  Raises only when *no*
        shard knows the object.  Returns the cascaded annotation ids.
        """
        if not cascade:
            held = self.annotations_on_object(object_id)
            if held:
                raise AnnotationError(
                    f"data object {object_id!r} is referenced by "
                    f"{len(held)} annotation(s); pass cascade=True to delete them"
                )
        # A shard whose replica is already gone answers UnknownObjectError; converge.
        results = self._scatter(
            "delete_object", self._all(object_id, cascade=cascade), tolerate=(UnknownObjectError,)
        )
        cascaded = [result for result in results if not isinstance(result, UnknownObjectError)]
        if not cascaded:
            raise UnknownObjectError(f"no data object {object_id!r} registered")
        return sorted(set().union(*map(set, cascaded)))

    # -- read path -------------------------------------------------------------

    def _query_shape(self, text_or_query: str | Query) -> tuple[ReturnKind, int | None]:
        if isinstance(text_or_query, Query):
            return text_or_query.return_kind, text_or_query.limit
        normalized = normalize_gql(text_or_query)
        with self._shapes_mutex:
            shape = self._shapes.get(normalized)
            if shape is not None:
                self._shapes.move_to_end(normalized)
                return shape
        query = parse_query(text_or_query)
        shape = (query.return_kind, query.limit)
        with self._shapes_mutex:
            self._shapes[normalized] = shape
            self._shapes.move_to_end(normalized)
            while len(self._shapes) > 512:
                self._shapes.popitem(last=False)
        return shape

    def query(self, text_or_query: str | Query) -> QueryResult:
        """Scatter the query to every shard and gather one merged result.

        The facade parses the query shape itself, so malformed text fails
        here whatever a shard's memoized plans hold.  Each shard serves from
        its own cache when its epoch allows, which is the sharding win: a
        write invalidates one shard's entry, not all N.
        """
        obs = self.obs  # disabled: every span below is the shared no-op
        with obs.span("query") as root:
            (return_kind, limit), results = self._shape_and_pages(text_or_query)
            with obs.span("merge") as merge_span:
                merged = self._merge_results(return_kind, limit, results)
                merge_span.set("rows", merged.count)
        if obs.is_slow(root):
            if isinstance(text_or_query, str):
                root.set("gql", normalize_gql(text_or_query))
            explain = None
            if not merged.degraded:
                try:
                    explain = self.explain(text_or_query)
                except (ShardUnavailableError, ShardTimeoutError):
                    pass  # a shard went away after answering; keep the trace
            obs.record_slow("query", root, explain=explain)
        return merged

    def _shape_and_pages(
        self, text_or_query: str | Query
    ) -> tuple[tuple[ReturnKind, int | None], list[QueryResult | None]]:
        """The query's shape and its per-shard pages, in shard order.

        A ``None`` page is a shard that contributed nothing; the merge tags
        the result degraded.  Here the shape is parsed up front (malformed
        text never reaches a shard) and every shard must answer — the network
        facade overrides this step to parse while its workers run and to
        admit degraded reads.
        """
        with self.obs.span("parse"):
            shape = self._query_shape(text_or_query)
        with self.obs.span("scatter"):
            return shape, self._scatter("query", self._all(text_or_query))

    def _merge_results(
        self,
        return_kind: ReturnKind,
        limit: int | None,
        results: list[QueryResult],
    ) -> QueryResult:
        """Merge per-shard result pages with stable global ordering.

        Annotation ids merge lexicographically (each shard's list is already
        sorted by the executor's collation), ``LIMIT`` re-applies globally,
        fragments follow their ids, referents dedup in merged annotation
        order (matching the single-service collation), and subgraph pages
        order by their smallest member.
        """
        merged = QueryResult(return_kind=return_kind)
        digest = hashlib.sha256(
            "|".join(
                "" if result is None else result.plan_fingerprint for result in results
            ).encode("utf-8")
        ).hexdigest()[:16]
        merged.plan_fingerprint = f"shards[{len(results)}]:{digest}"
        # A None result is a shard that contributed nothing (a degraded
        # read); its rows are simply absent and the page is tagged.
        entries: list[tuple[str, int, Any]] = []
        for index, result in enumerate(results):
            if result is None:
                continue
            aligned = len(result.fragments) == len(result.annotation_ids)
            for position, annotation_id in enumerate(result.annotation_ids):
                fragment = result.fragments[position] if aligned else None
                entries.append((annotation_id, index, fragment))
        entries.sort(key=lambda entry: entry[0])
        if limit is not None:
            entries = entries[:limit]
        merged.annotation_ids = [annotation_id for annotation_id, _, _ in entries]
        if return_kind is ReturnKind.CONTENTS:
            merged.fragments = [fragment for _, _, fragment in entries]
        elif return_kind is ReturnKind.REFERENTS:
            # Rebuild the global dedup-in-annotation-order page.  The flat
            # per-shard referent lists cannot be interleaved (first-occurrence
            # order is shard-local), so each annotation's referents are read
            # from the owning shard's committed-annotation dict — a GIL-atomic
            # lookup, not a per-id read-lock acquisition.
            seen: set[str] = set()
            for annotation_id, index, _ in entries:
                for referent in self._annotation_referents(
                    index, annotation_id, results[index]
                ):
                    if referent.referent_id not in seen:
                        seen.add(referent.referent_id)
                        merged.referents.append(referent)
        else:  # GRAPH
            # Re-apply the global LIMIT: keep only pages whose members all
            # survived the merged cut, so every subgraph member is a returned
            # id and the page count can never exceed the limit.  (A component
            # split across the cut is dropped whole rather than rebuilt — the
            # shard-local grouping caveat in the module docstring.)
            limited = set(merged.annotation_ids)
            subgraphs = [
                subgraph
                for result in results
                if result is not None
                for subgraph in result.subgraphs
                if all(terminal in limited for terminal in subgraph.terminals)
            ]
            subgraphs.sort(
                key=lambda subgraph: min(subgraph.terminals) if subgraph.terminals else ""
            )
            merged.subgraphs = subgraphs
        for index, result in enumerate(results):
            if result is None:
                merged.degraded = True
                merged.missing_shards.append(index)
                continue
            for detail in result.step_details:
                attributed = dict(detail)
                attributed["shard"] = index
                merged.step_details.append(attributed)
        return merged

    def _annotation_referents(
        self, index: int, annotation_id: str, result: QueryResult
    ) -> Iterable[Any]:
        """Referents of *annotation_id* for the REFERENTS merge.

        Read lock-free from the owning shard's columns; the network facade
        overrides this to use the referent map each worker ships with its
        result page.
        """
        return self._shards[index].manager.committed_referents(annotation_id)

    def explain(self, text_or_query: str | Query) -> dict:
        """Aggregate EXPLAIN: the scatter plan, one per-shard plan each."""
        plans = self._scatter("explain", self._all(text_or_query))
        return {
            "query": plans[0]["query"],
            "mode": "scatter-gather",
            "shards": len(self._shards),
            "routing": ROUTING_SCHEME,
            "plans": plans,
            "estimated_rows_total": sum(
                sum(rows for _, rows in plan.get("estimated_rows", []))
                for plan in plans
            ),
        }

    # -- merged reads ------------------------------------------------------------

    def check_integrity(self) -> ShardedIntegrityReport:
        """Integrity checks on every shard, gathered into one report."""
        reports = self._scatter("check_integrity", self._all())
        merged = ShardedIntegrityReport(reports=reports)
        for index, report in enumerate(reports):
            for error in getattr(report, "errors", []):
                merged.errors.append(f"shard {index}: {error}")
        return merged

    @property
    def annotation_count(self) -> int:
        return sum(self._scatter("annotation_count", self._all()))

    # -- statistics ------------------------------------------------------------

    def statistics(self) -> dict[str, Any]:
        """Aggregated instance statistics.

        Numeric leaves sum across shards (annotations, referents, index and
        catalogue sizes, extent summaries); replicated substrates (data
        objects, ontologies) report one copy's value; the ``service``
        counters sum with the cache hit rate recomputed from the summed
        lookups.  ``sharding`` carries the topology plus compact per-shard
        rows, and ``per_shard`` under it keeps the full breakdown reachable.
        """
        per_shard = self._scatter("statistics", self._all())
        without_service = [
            {
                key: value
                for key, value in stats.items()
                if key not in ("service", "replication")
            }
            for stats in per_shard
        ]
        aggregated = merge_stats(without_service)
        for key in _REPLICATED_STATS_KEYS:
            if key in per_shard[0]:
                aggregated[key] = per_shard[0][key]
        service = merge_stats([stats["service"] for stats in per_shard])
        cache = service.get("query_cache")
        if isinstance(cache, dict):
            lookups = cache.get("hits", 0) + cache.get("misses", 0)
            cache["hit_rate"] = (cache.get("hits", 0) / lookups) if lookups else 0.0
        aggregated["service"] = service
        aggregated["sharding"] = {
            "shards": len(self._shards),
            "routing": ROUTING_SCHEME,
            "checkpoints": self._checkpoints,
            "per_shard": [
                {
                    "annotations": stats.get("annotations", 0),
                    "referents": stats.get("referents", 0),
                    "mutation_epoch": stats.get("mutation_epoch", 0),
                    "cache_hits": stats["service"]["query_cache"]["hits"],
                }
                for stats in per_shard
            ],
        }
        replication_rows = [stats.get("replication") for stats in per_shard]
        if any(row is not None for row in replication_rows):
            aggregated["sharding"]["replication"] = replication_rows
        return aggregated

    def metrics(self) -> dict[str, Any]:
        """Fleet-wide observability snapshot: facade + every shard, merged.

        Counters and gauges sum across shards, histograms add buckets (so
        the aggregate p50/p95/p99 come from the combined distribution), and
        slow-op-log stats sum — the same aggregation contract as
        :meth:`statistics`.  ``per_shard`` keeps each shard's own snapshot
        reachable.
        """
        return self.obs.fleet_snapshot("per_shard", [shard.metrics() for shard in self._shards])

    def slow_ops(self) -> list[dict[str, Any]]:
        """Slow-op entries across the facade and every shard (oldest first)."""
        return self.obs.fleet_slow_ops(
            "shard", ((index, shard.slow_ops()) for index, shard in enumerate(self._shards))
        )

    # -- checkpointing ---------------------------------------------------------

    def checkpoint(self) -> Path | None:
        """Checkpoint every shard in parallel, then land the manifest.

        Each shard's checkpoint is individually atomic (snapshot rename +
        WAL truncate); the manifest — written last, write-temp + fsync +
        rename — records the coordinated point.  A crash between shard
        checkpoints leaves every shard independently consistent and the old
        manifest in place, which recovery handles like any mid-checkpoint
        crash: replay skips what each shard's snapshot already covers.
        """
        self._scatter("checkpoint", self._all())
        self._checkpoints += 1
        if self._root is None:
            return None
        return self._write_manifest()

    def compact(self) -> dict[str, Any]:
        """Compact every shard's column storage; returns per-shard reports."""
        reports = self._scatter("compact", self._all())
        return {"shards": reports}

    def _write_manifest(self) -> Path | None:
        if self._root is None:
            return None
        wal_seqs = []
        for shard in self._shards:
            try:
                # Replicated shards keep their frontier in replication.json.
                wal_seqs.append(int(getattr(shard, "last_wal_seq", 0)))
            except GraphittiError:
                wal_seqs.append(0)  # unreachable worker at manifest time: unknown
        manifest = {
            "version": 1,
            "shards": len(self._shards),
            "routing": ROUTING_SCHEME,
            "checkpoints": self._checkpoints,
            "wal_seqs": wal_seqs,
        }
        if isinstance(self._shards[0], ReplicatedGraphittiService):
            manifest["replicas"] = len(self._shards[0].followers)
            manifest["terms"] = [
                shard.term
                for shard in self._shards
                if isinstance(shard, ReplicatedGraphittiService)
            ]
        return write_manifest(self._root, manifest)

"""Scatter-gather serving over hash-routed :class:`GraphittiService` shards.

:class:`ShardedGraphittiService` presents the single-service API over N
independent :class:`~repro.service.service.GraphittiService` shards:

* **writes route** — an annotation lands on the shard its annotated object
  hashes to (see :mod:`repro.shard.router`), so annotations of one data
  object — and the a-graph edges between them — stay co-located; data
  objects and ontologies are broadcast to every shard so any shard can
  validate and index any annotation.
* **queries scatter-gather** — the query text runs on every shard, one
  after another on the caller's thread (in-process shards share one
  interpreter: a pool would add hops, not parallelism; concurrent callers
  read a shard in turn); each shard plans against its own statistics
  catalogue and serves from its own result cache, and the
  per-shard :class:`~repro.query.result.QueryResult` pages merge with a
  stable global ordering: annotation ids merge-sort lexicographically (the
  executor's own collation order), ``LIMIT`` is re-applied globally, and
  fragments/referents/subgraphs follow the merged order.  The merge reads
  the pages alone: each carries its return kind, its ``LIMIT`` and which
  annotation introduced each referent.
* **durability is per shard, coordination is a manifest** — every shard
  keeps its own WAL + snapshot directory; :meth:`checkpoint` checkpoints
  every shard and then atomically lands a ``shards.json`` manifest
  recording the topology and per-shard WAL high-water marks;
  :meth:`recover` replays every shard (same torn-tail rules as a single
  service) before the router accepts traffic.
* **bulk ingest stays grouped** — :meth:`bulk_commit` groups the batch by
  shard and group-commits the per-shard batches in one scatter.
* **writes approve before they apply** — wherever shards could disagree on a
  refusal (a caller-chosen id held elsewhere, a batch, ``delete_object``),
  one ``approve`` round asks every shard first (the op table's ``approve``
  column), so a write one shard refuses applies nowhere.  A writer can still
  interleave between the two rounds: atomicity under concurrency would need
  prepare records in each shard's WAL (two-phase commit).

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

import threading
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

from repro.core.annotation import Annotation
from repro.core.builder import AnnotationBuilder
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
from repro.query.ast import Query, ReturnKind
from repro.query.result import QueryResult
from repro.replica.replicated import (
    REPLICATION_MANIFEST,
    ReplicatedGraphittiService,
    ReplicationConfig,
)
from repro.service import ops
from repro.service.durability import SNAPSHOT_FILE, WAL_FILE, has_durable_state
from repro.service.service import GraphittiService, ServiceConfig
from repro.service.wal import write_json_atomic
from repro.shard.router import (
    MANIFEST_FILE,
    ROUTING_SCHEME,
    is_sharded_root,
    read_manifest,
    shard_dir_name,
    shard_for_annotation,
    shard_from_annotation_id,
    shard_namespace,
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

    #: Whether a query some shard could not answer returns the other shards'
    #: pages, tagged degraded, instead of raising (a network facade option).
    degraded_reads = False

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
        # One read at a time per in-process shard: under the GIL two reads
        # of one shard cannot run in parallel anyway, and interleaving them
        # lets concurrent callers miss the same cache entry and both execute it.
        self._read_mutexes = [threading.Lock() for _ in self._shards]
        self._checkpoints = 0
        self._closed = False
        self._recovery_info: dict[str, Any] | None = None

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
        if not is_sharded_root(root):
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
        """Checkpoint (per shard config) and close every shard, land the
        manifest, then raise the first shard's close error, if any."""
        if self._closed:
            return
        errors = []
        for shard in self._shards:
            try:
                shard.close()
            except GraphittiError as exc:
                errors.append(exc)
        if self._root is not None:
            self._write_manifest()
        self._closed = True
        if errors:
            raise errors[0]

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
    ) -> list[Any]:
        """The one scatter seam: table verb *verb* on each ``(shard index,
        args, kwargs)`` row of *calls*; results in row order.

        Row k's :meth:`_shard_call` starts row k+1 through ``then``.  Every
        outcome is collected before anything raises: the first failed row
        not of a *tolerate* class (a tolerated error stands in its row).
        """
        op = ops.OPS[verb]
        outcomes: list[Any] = [None] * len(calls)

        def run_from(row: int) -> None:
            if row == len(calls):
                return
            index, args, kwargs = calls[row]
            try:
                outcomes[row] = self._shard_call(index, op, args, kwargs, lambda: run_from(row + 1))
            except GraphittiError as exc:
                outcomes[row] = exc

        run_from(0)
        for outcome in outcomes:
            if isinstance(outcome, GraphittiError) and not isinstance(outcome, tolerate):
                raise outcome
        return outcomes

    def _shard_call(
        self, index: int, op: ops.Op, args: tuple, kwargs: dict[str, Any], then: Callable[[], None]
    ) -> Any:
        """One scatter row in process.  *then* (the later rows) runs first,
        so this row's ``shard.<verb>`` span opens after theirs closed and the
        spans stay siblings, and no shard's read mutex is held while another
        is taken.  The network facade overrides this hook alone."""
        then()
        with self.obs.span(f"shard.{op.name}") as span:
            span.set("shard", index)
            if op.kind != ops.READ:
                return op.call(self._shards[index], *args, **kwargs)
            with self._read_mutexes[index]:
                return op.call(self._shards[index], *args, **kwargs)

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
        held = self._scatter("holds", others)
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

    def new_annotation(self, annotation_id: str | None = None, **fields: Any) -> AnnotationBuilder:
        """Start building an annotation whose commit routes through the router
        (*fields* are :class:`AnnotationBuilder`'s content fields).

        With no explicit id the definitive, shard-encoding id is assigned at
        commit time — only then is the annotated object (and therefore the
        owning shard) known.  Until then the builder carries an opaque
        placeholder.
        """
        if annotation_id is None:
            annotation_id = _PENDING_PREFIX + uuid.uuid4().hex
        elif self._owning_shard(annotation_id) is not None:
            raise AnnotationError(f"annotation id {annotation_id!r} already exists")
        return AnnotationBuilder(self, annotation_id, **fields)

    def _finalize_routing(self, annotation: Annotation) -> int:
        """Pick the owning shard; materialize a pending id on that shard."""
        index = shard_for_annotation(annotation, len(self._shards))
        if annotation.annotation_id.startswith(_PENDING_PREFIX):
            identifier = self._shards[index].reserve_annotation_id()
            annotation.annotation_id = identifier
            annotation.content.dublin_core.identifier = identifier
        return index

    def commit(self, annotation: Annotation | AnnotationBuilder) -> Annotation:
        """Commit one annotation on the shard its annotated object routes to.

        A caller-chosen id is approved on every shard first: the owning
        shard only knows the ids it holds.  A pending id is fresh, and the
        owning shard's own approval covers the rest.
        """
        if isinstance(annotation, AnnotationBuilder):
            annotation = annotation.build()
        if not annotation.annotation_id.startswith(_PENDING_PREFIX):
            self.approve("commit", annotation)
        index = self._finalize_routing(annotation)
        return self._shards[index].commit(annotation)

    def bulk_commit(
        self, annotations: Iterable[Annotation | AnnotationBuilder]
    ) -> list[Annotation]:
        """Approve the whole batch on every shard, then group it by shard
        and group-commit the groups in one scatter.

        Every shard sees every member in the approve round (ids it holds,
        in-batch duplicates, unregistered objects), so a batch one shard
        refuses applies on none; pending ids are reserved only after it
        passes.  Each group then commits under one lock hold and one WAL
        group commit on its shard.  Returns the committed annotations in
        input order.
        """
        batch = [
            item.build() if isinstance(item, AnnotationBuilder) else item
            for item in annotations
        ]
        if not batch:
            return []
        self.approve("bulk_commit", batch)
        groups: dict[int, list[int]] = {}
        for position, annotation in enumerate(batch):
            groups.setdefault(self._finalize_routing(annotation), []).append(position)
        committed_groups = self._scatter(
            "bulk_commit",
            [
                (index, ([batch[position] for position in group],), {})
                for index, group in groups.items()
            ],
        )
        for group, committed in zip(groups.values(), committed_groups):
            for position, annotation in zip(group, committed):
                batch[position] = annotation
        return batch

    def delete_object(self, object_id: str, cascade: bool = True) -> list[str]:
        """Retire a data object: broadcast the delete, cascade per shard.

        Objects are replicated, and annotations routed by their *first*
        referent's object can still reference this object from any shard —
        so the delete goes to every shard and each cascades through the
        annotations it holds.  Every shard approves first, so with
        ``cascade=False`` an annotation on any shard refuses the delete
        before any shard mutates.  Both rounds are **convergent**: a shard
        whose copy is already gone (a broadcast a crash cut short) answers
        no work instead of failing, so re-running finishes the retirement.
        Raises only when *no* shard knows the object.  Returns the cascaded
        annotation ids.
        """
        # A shard whose replica is already gone answers UnknownObjectError; converge.
        tolerate = (UnknownObjectError,)
        self._scatter("approve", self._all("delete_object", object_id, cascade), tolerate)
        results = self._scatter("delete_object", self._all(object_id, cascade=cascade), tolerate)
        cascaded = [result for result in results if not isinstance(result, UnknownObjectError)]
        if not cascaded:
            raise UnknownObjectError(f"no data object {object_id!r} registered")
        return sorted(set().union(*map(set, cascaded)))

    # -- read path -------------------------------------------------------------

    def query(self, text_or_query: str | Query) -> QueryResult:
        """Scatter the query to every shard and gather one merged result.

        The shards parse the text; malformed text fails with the parser's
        error once every shard has answered.  Each shard serves from its own
        cache while no write to it reached the page, which is the sharding
        win: a write invalidates one shard's entry, not all N.
        """
        obs = self.obs  # disabled: every span below is the shared no-op
        with obs.span("query") as root:
            results = self._pages(text_or_query)
            with obs.span("merge") as merge_span:
                merged = self._merge_results(results)
                merge_span.set("rows", merged.count)
        if obs.is_slow(root):
            if isinstance(text_or_query, str):
                root.set("gql", text_or_query)
            explain = None
            if not merged.degraded:
                try:
                    explain = self.explain(text_or_query)
                except (ShardUnavailableError, ShardTimeoutError):
                    pass  # a shard went away after answering; keep the trace
            obs.record_slow("query", root, explain=explain)
        return merged

    def _pages(self, text_or_query: str | Query) -> list[QueryResult | None]:
        """The query's per-shard pages, in shard order.

        An unreachable or timed-out shard raises a typed error naming the
        missing shards, unless :attr:`degraded_reads` admits a partial page:
        ``None`` takes its place and the merge tags the result.
        """
        with self.obs.span("scatter"):
            pages = self._scatter(
                "query",
                self._all(text_or_query),
                tolerate=(ShardUnavailableError, ShardTimeoutError),
            )
        causes = {
            index: page for index, page in enumerate(pages) if isinstance(page, GraphittiError)
        }
        if causes:
            missing = list(causes)
            if not self.degraded_reads or len(missing) == len(self._shards):
                if all(isinstance(exc, ShardTimeoutError) for exc in causes.values()):
                    raise ShardTimeoutError(
                        f"shard(s) {missing} missed the query deadline"
                    ) from causes[missing[0]]
                raise ShardUnavailableError(
                    f"shard(s) {missing} unavailable for query "
                    f"(degraded reads {'exhausted' if self.degraded_reads else 'disabled'})",
                    shards=tuple(missing),
                )
            self.obs.count("query.degraded")
            for index in missing:
                pages[index] = None
        return pages

    def _merge_results(self, results: list[QueryResult | None]) -> QueryResult:
        """Merge per-shard result pages with stable global ordering, from
        the pages alone (at least one is present).

        The return kind and ``LIMIT`` come from the first present page.
        Annotation ids merge lexicographically (each shard's list is already
        sorted by the executor's collation), ``LIMIT`` re-applies globally,
        fragments follow their ids, referents dedup in merged annotation
        order (matching the single-service collation), and subgraph pages
        order by their smallest member.
        """
        shape = next(result for result in results if result is not None)
        return_kind = shape.return_kind
        merged = QueryResult(return_kind=return_kind, limit=shape.limit)
        # A None result is a shard that contributed nothing (a degraded
        # read); its rows are simply absent and the page is tagged.
        # (annotation id, shard index, position on that shard's page)
        entries: list[tuple[str, int, int]] = []
        for index, result in enumerate(results):
            if result is not None:
                entries.extend(
                    (annotation_id, index, position)
                    for position, annotation_id in enumerate(result.annotation_ids)
                )
        entries.sort(key=lambda entry: entry[0])
        if shape.limit is not None:
            entries = entries[: shape.limit]
        merged.annotation_ids = [annotation_id for annotation_id, _, _ in entries]
        if return_kind is ReturnKind.CONTENTS:
            merged.fragments = [
                results[index].fragments[position] for _, index, position in entries
            ]
        elif return_kind is ReturnKind.REFERENTS:
            # Each shard page lists a referent once, under the annotation
            # that introduced it there.  The global cut keeps a prefix of
            # every shard's sorted ids, so a referent's first marker among
            # the merged ids is one of those introducers: emitting each
            # id's introduced referents, first occurrence wins, is the
            # single-service dedup in annotation order.
            introduced: dict[tuple[int, int], list[Any]] = {}
            for index, result in enumerate(results):
                if result is not None:
                    for source, referent in zip(result.referent_sources, result.referents):
                        introduced.setdefault((index, source), []).append(referent)
            seen: set[str] = set()
            for merged_position, (_, index, position) in enumerate(entries):
                for referent in introduced.get((index, position), ()):
                    if referent.referent_id not in seen:
                        seen.add(referent.referent_id)
                        merged.referents.append(referent)
                        merged.referent_sources.append(merged_position)
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

    def explain(self, text_or_query: str | Query) -> dict:
        """Aggregate EXPLAIN: the scatter plan, one per-shard plan each.

        ``estimated_rows_total`` sums the counts the shards' planners made;
        a step planned without one adds nothing."""
        plans = self._scatter("explain", self._all(text_or_query))
        return {
            "query": plans[0]["query"],
            "mode": "scatter-gather",
            "shards": len(self._shards),
            "routing": ROUTING_SCHEME,
            "plans": plans,
            "estimated_rows_total": sum(
                rows
                for plan in plans
                for _, rows in plan.get("estimated_rows", [])
                if rows is not None
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
        """Checkpoint every shard, then land the manifest.

        Each shard's checkpoint is individually atomic (WAL seal, snapshot
        rename, segment prune); the manifest — written last, write-temp + fsync +
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
        return write_json_atomic(self._root / MANIFEST_FILE, manifest)

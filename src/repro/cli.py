"""Command-line interface for Graphitti.

Run as ``python -m repro <command>``.  The CLI drives the same workflows the
paper's GUI does — build a study, inspect it, administer it, and query it —
against a served root: the directory ``serve`` keeps, a checksummed
snapshot plus a write-ahead log (or shard and replica directories of them).
Every verb on an existing root opens it through :func:`_open_root` in the
topology on its disk, without a closing checkpoint: a read leaves every byte
as it was.

Commands
--------
``build {influenza,neuroscience} ROOT``
    Build a paper scenario into a new served root at ROOT.
``stats ROOT``
    Print instance statistics.
``admin ROOT``
    Print the administrative report (integrity, economy, orphans, activity).
``query ROOT GQL``
    Run a GQL query and print the result.
``update ROOT ANNOTATION_ID [--title/--body/--keywords/...]``
    Update a committed annotation in place (one WAL record).
``delete-object ROOT OBJECT_ID [--no-cascade]``
    Retire a data object, cascading through its annotations (one WAL record).
``scenarios``
    List the built-in scenarios.
``serve ROOT``
    Open (or recover) a durable served instance at ROOT, drive it with a
    concurrent mixed read/write workload, checkpoint, and print the
    serving-layer statistics.  ``--shards N`` serves hash-routed shards;
    ``--replicas N`` adds WAL-shipping read replicas (composable with
    ``--shards``).
``promote ROOT``
    Fenced failover for a replicated ROOT: fence the primary, drain the
    followers from its WAL, promote the most-caught-up one (or ``--target``)
    under a bumped term.  ``--assume-primary-dead`` runs the crash drill
    (the primary directory is only read, never opened live).
``metrics ROOT``
    Print the merged observability snapshot as JSON or Prometheus text.
    ``--exercise N`` first runs the reader query mix N times so a cold
    instance has distributions to show.
``compact ROOT``
    Compact the column storage: rewrite the annotation/referent heaps
    dropping tombstoned rows, checkpoint, and prune superseded WAL segments.
    Prints before/after storage gauges (``--json`` for the full report).
``trace ROOT GQL``
    Run one query and pretty-print its span tree — parse, plan, per-
    constraint execution, cache behavior, and (sharded) one child span per
    shard under the scatter stage.  ``--warm`` runs the query once first so
    the traced run shows the cached path.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path
from typing import Callable, Sequence

from repro.errors import GraphittiError, ServiceError
from repro.workloads import build_influenza_instance, build_neuroscience_instance

_SCENARIOS = {
    "influenza": build_influenza_instance,
    "neuroscience": build_neuroscience_instance,
}


def _cmd_scenarios(args: argparse.Namespace) -> int:
    print("Available scenarios:")
    for name in _SCENARIOS:
        print(f"  {name}")
    return 0


def _cmd_build(args: argparse.Namespace) -> int:
    from repro.service import GraphittiService, ServiceConfig

    root = Path(args.root)
    if root.exists() and any(root.iterdir()):
        print(f"{root} is not empty; build seeds a new root", file=sys.stderr)
        return 2
    service = GraphittiService.open(
        root,
        config=ServiceConfig(checkpoint_on_close=False),
        manager_factory=_SCENARIOS[args.scenario],
    )
    count = service.annotation_count
    service.close()
    print(f"built {args.scenario} scenario ({count} annotations) -> {root}")
    return 0


def _on_root(command: Callable, one_manager: bool = False) -> Callable[[argparse.Namespace], int]:
    """Run ``command(args, service)`` on the instance :func:`_open_root`
    opens at ``args.root``, then close it; a refused root exits 2.

    *one_manager* marks a verb that reads ``service.manager``: a sharded
    root has one per shard and is refused.
    """

    @functools.wraps(command)
    def run(args: argparse.Namespace) -> int:
        service = _open_root(args.root, net=getattr(args, "net", False), one_manager=one_manager)
        if service is None:
            return 2
        try:
            return command(args, service)
        finally:
            service.close()

    return run


def _open_root(
    root: str | Path,
    config=None,
    create: bool = False,
    one_manager: bool = False,
    net: bool = False,
    shards: int | None = None,
    replicas: int | None = None,
    **net_options,
):
    """Open the instance at *root* in the topology on its disk: the CLI's
    one opener.

    The topology is read once, first match wins: a ``shards.json`` manifest
    or ``shard-*`` directories open sharded (``net=True`` serves the shards
    from worker processes over TCP), a ``replication.json`` opens
    replicated, a snapshot or WAL opens one service.  What is on disk wins
    over *shards* and *replicas*: serving a sharded root unsharded would open
    an empty instance next to the shard directories and look like data loss.

    With *create* (``serve``) a root without state is laid out as *shards*
    and *replicas* ask, and closing checkpoints.  Otherwise the root is
    recovered without a closing checkpoint, so a read leaves every byte as
    it was and a write adds only its own WAL records, and a replicated root
    reads ``fresh``, as replicated shards do.  A root without state, or a
    sharded one under *one_manager*, is refused: None after saying why, with
    nothing opened or created.
    """
    from dataclasses import replace

    from repro.replica import REPLICATION_MANIFEST, ReplicatedGraphittiService, ReplicationConfig
    from repro.service import GraphittiService, ServiceConfig
    from repro.service.durability import has_durable_state
    from repro.shard import ShardedGraphittiService, is_sharded_root

    root = Path(root)
    sharded = is_sharded_root(root)
    replicated = (root / REPLICATION_MANIFEST).exists()
    replication = None
    if not create:
        if net and not sharded:
            raise ServiceError(f"--net requires a sharded root; {root} is not sharded")
        if not (sharded or replicated or has_durable_state(root)):
            print(f"{root} holds no instance (create one with: build SCENARIO ROOT)",
                  file=sys.stderr)
            return None
        if sharded and one_manager:
            print(f"{root} is sharded: this verb reads one manager, and each shard "
                  "has its own", file=sys.stderr)
            return None
        config = replace(config or ServiceConfig(), checkpoint_on_close=False)
        replication = ReplicationConfig(default_read="fresh")
    if net:
        from repro.net import NetworkShardedGraphittiService

        return NetworkShardedGraphittiService.open(
            root, shards=shards, config=config, **net_options
        )
    if sharded or (shards is not None and shards > 1):
        return ShardedGraphittiService.open(root, shards=shards, config=config, replicas=replicas)
    if replicated or replicas is not None:
        return ReplicatedGraphittiService.open(
            root, replicas=replicas, config=config, replication=replication
        )
    return GraphittiService.open(root, config=config)


@_on_root
def _cmd_stats(args: argparse.Namespace, service) -> int:
    for key, value in service.statistics().items():
        print(f"{key}: {value}")
    return 0


@functools.partial(_on_root, one_manager=True)
def _cmd_admin(args: argparse.Namespace, service) -> int:
    admin = service.manager.administrator()
    print(admin.check_integrity().summary())
    print("\nindex economy:")
    for key, value in admin.index_economy().items():
        print(f"  {key}: {value}")
    print("\norphan objects:", admin.orphan_objects() or "(none)")
    print("\nleaderboard:")
    for object_id, count in admin.annotation_leaderboard():
        print(f"  {object_id}: {count}")
    print("\ncreator activity:")
    for creator, count in sorted(admin.creator_activity().items()):
        print(f"  {creator}: {count}")
    return 0


@functools.partial(_on_root, one_manager=True)
def _cmd_report(args: argparse.Namespace, service) -> int:
    from repro.workloads.reporting import study_report

    print(study_report(service.manager))
    return 0


@_on_root
def _cmd_explain(args: argparse.Namespace, service) -> int:
    try:
        explanation = service.explain(args.gql)
    except GraphittiError as exc:
        print(f"query error: {exc}", file=sys.stderr)
        return 1
    sharded = "plans" in explanation
    for index, plan in enumerate(explanation.get("plans", [explanation])):
        print(f"shard {index}:\n{plan['plan']}" if sharded else plan["plan"])
    print(f"\nsubqueries: {plan['subqueries']}")
    print(f"targets: {', '.join(plan['targets'])}")
    return 0


def _service_config(args: argparse.Namespace, **extra):
    from repro.service import ServiceConfig

    return ServiceConfig(
        durability=args.durability,
        checkpoint_interval=args.checkpoint_interval,
        cache_capacity=args.cache_capacity,
        **extra,
    )


def _cmd_shard_worker(args: argparse.Namespace) -> int:
    from repro.net.server import run_worker
    from repro.obs import ObservabilityConfig

    run_worker(
        args.root,
        args.shard_index,
        host=args.host,
        port=args.port,
        config=_service_config(args, observability=ObservabilityConfig(enabled=not args.no_obs)),
        max_inflight=args.max_inflight,
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.workloads.service_scenario import run_service_workload, seed_service_objects

    net_options = {}
    if args.net:
        net_options = {
            "port_base": args.port_base,
            "max_inflight": args.max_inflight,
            "heartbeat_interval_s": args.heartbeat_interval,
        }
    service = _open_root(
        args.root,
        config=_service_config(args),
        create=True,
        net=args.net,
        shards=args.shards,
        replicas=args.replicas,
        **net_options,
    )
    _report_opened(service, args)
    object_ids = seed_service_objects(service)
    summary = run_service_workload(
        service,
        object_ids,
        readers=args.readers,
        writers=args.writers,
        queries_per_reader=args.queries,
        commits_per_writer=args.commits,
    )
    # No explicit checkpoint here: close() below checkpoints once.
    print(
        f"workload: {summary['queries']} queries, {summary['commits']} commits "
        f"({summary['bulk_commits']} bulk batches), {summary['deletes']} deletes"
    )
    if summary.get("backpressure_waits"):
        print(f"backpressure: writers waited {summary['backpressure_waits']} time(s)")
    cache = summary["cache"]
    print(
        f"cache: {cache['hits']} hits / {cache['misses']} misses "
        f"(hit rate {cache['hit_rate']:.1%}), {cache['invalidations']} invalidations"
    )
    stats = service.statistics()
    print(f"annotations served: {stats['annotations']}, mutation epoch: {stats['mutation_epoch']}")
    print(f"checkpoints: {stats['service']['checkpoints']}")
    if "sharding" in stats:
        per_shard = ", ".join(
            str(row["annotations"]) for row in stats["sharding"]["per_shard"]
        )
        print(
            f"shards: {stats['sharding']['shards']} "
            f"({stats['sharding']['routing']}); annotations per shard: {per_shard}"
        )
    if "replication" in stats:
        rep = stats["replication"]
        followers = ", ".join(
            f"{row['name']}@{row['applied_seq']}" for row in rep["followers"]
        )
        print(
            f"replication: term {rep['term']}, primary {rep['primary']}, "
            f"followers [{followers}]"
        )
        reads = rep["reads"]
        print(
            f"reads served: {reads['replica']} replica, {reads['primary']} primary, "
            f"{reads['degraded']} degraded ({reads['retries']} staleness retries)"
        )
    service.close()
    if summary["errors"]:
        for error in summary["errors"]:
            print(f"workload error: {error}", file=sys.stderr)
        return 1
    return 0


def _report_opened(service, args: argparse.Namespace) -> None:
    """Say what ``serve`` opened: topology and what recovery replayed."""
    info = service.recovery_info
    sharded = hasattr(service, "shard_count")
    if args.net:
        workers = ", ".join(
            f"shard {row['shard']}@{row['host']}:{row['port']}"
            + (f" pid {row['pid']}" if row.get("pid") else "")
            for row in service.network_status()["workers"]
        )
        print(f"serving {service.shard_count} shard worker process(es) over TCP: {workers}")
    if hasattr(service, "replication_stats"):
        rep = service.replication_stats()
        print(
            f"opened replicated instance at {args.root}: term {rep['term']}, "
            f"primary {rep['primary']}, {len(rep['followers'])} follower(s)"
        )
    elif info is None:
        if not args.net:
            shape = f"{service.shard_count}-shard " if sharded else ""
            print(f"opened fresh {shape}instance at {args.root}")
    elif sharded:
        print(
            f"recovered {info['shards']}-shard instance at {args.root}: "
            f"replayed {info['replayed']} WAL record(s), "
            f"{info['torn_tails']} torn tail(s) dropped"
        )
    else:
        print(
            f"recovered instance at {args.root}: snapshot={info['snapshot']}, "
            f"replayed {info['replayed']} WAL record(s)"
            + (", torn tail dropped" if info["torn_tail"] else "")
        )


@_on_root
def _cmd_metrics(args: argparse.Namespace, service) -> int:
    import json

    from repro.obs import render_prometheus

    if args.exercise:
        from repro.workloads.service_scenario import READER_QUERIES

        for _ in range(args.exercise):
            for text in READER_QUERIES:
                service.query(text)
    snapshot = service.metrics()
    if not snapshot.get("enabled"):
        print("observability is disabled for this service", file=sys.stderr)
        return 1
    if args.format == "prometheus":
        print(render_prometheus(snapshot), end="")
    else:
        print(json.dumps(snapshot, indent=2, sort_keys=True, default=str))
    return 0


@_on_root
def _cmd_compact(args: argparse.Namespace, service) -> int:
    import json

    report = service.compact()
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True, default=str))
        return 0
    shard_reports = report.get("shards", [report])
    for index, shard_report in enumerate(shard_reports):
        if shard_report is None:
            continue
        label = f"shard {index}: " if "shards" in report else ""
        before = shard_report.get("before", {}).get("annotations", {})
        after = shard_report.get("after", {}).get("annotations", {})
        wal = shard_report.get("wal", {})
        print(
            f"{label}annotations {after.get('live_slots', 0)} live / "
            f"{after.get('tombstone_slots', 0)} tombstoned; "
            f"heap {before.get('heap_dead_ints', 0)} dead ints -> "
            f"{after.get('heap_dead_ints', 0)}, "
            f"blobs {before.get('blob_dead_bytes', 0)} dead bytes -> "
            f"{after.get('blob_dead_bytes', 0)}; "
            f"wal segments sealed={wal.get('sealed_segments', 0)} "
            f"active_bytes={wal.get('active_bytes', 0)}"
        )
    return 0


@_on_root
def _cmd_trace(args: argparse.Namespace, service) -> int:
    from repro.obs import format_span

    if not service.obs.enabled:
        print("observability is disabled for this service", file=sys.stderr)
        return 1
    if args.warm:
        try:
            service.query(args.gql)
        except GraphittiError as exc:
            print(f"query error: {exc}", file=sys.stderr)
            return 1
    # A wrapper span captures the query's whole tree without touching
    # the service internals: the query's root span parents to it via
    # the thread-local span stack.
    with service.obs.tracer.span("trace") as capture:
        try:
            result = service.query(args.gql)
        except GraphittiError as exc:
            print(f"query error: {exc}", file=sys.stderr)
            return 1
    print(f"result count: {result.count}")
    print()
    if capture.children:
        for child in capture.children:
            print(format_span(child))
    else:
        # A result-cache hit is deliberately span-free (it is the
        # latency floor the overhead gate protects).
        print("(served from the result cache — no spans recorded)")
    slow = service.slow_ops()
    if slow:
        newest = slow[-1]
        print(
            f"\nslow-op log: {len(slow)} entr{'y' if len(slow) == 1 else 'ies'} "
            f"(newest: {newest['op']} at {newest['duration_s'] * 1000:.1f} ms)"
        )
    return 0


def _cmd_promote(args: argparse.Namespace) -> int:
    from repro.replica import ReplicatedGraphittiService, ReplicationConfig
    from repro.shard import ShardedGraphittiService, is_sharded_root

    root = Path(args.root)
    manual = ReplicationConfig(auto_ship=False, auto_failover=False)
    if is_sharded_root(root):
        if args.shard is None:
            print("sharded root: pass --shard to pick which shard fails over",
                  file=sys.stderr)
            return 2
        service = ShardedGraphittiService.open(root)
        try:
            if not 0 <= args.shard < service.shard_count:
                print(f"no shard {args.shard} (topology has {service.shard_count})",
                      file=sys.stderr)
                return 2
            shard = service.shards[args.shard]
            if not hasattr(shard, "promote"):
                print(f"shard {args.shard} is not replicated; nothing to promote",
                      file=sys.stderr)
                return 2
            report = shard.promote(args.target)
        finally:
            service.close()
    else:
        service = ReplicatedGraphittiService.recover(
            root, replication=manual, assume_primary_dead=args.assume_primary_dead
        )
        report = service.promote(args.target)
        service.close()
    print(
        f"promoted {report['primary']} (term {report['term']}, "
        f"caught up to seq {report['promoted_at_seq']}); "
        f"fenced {report['demoted']}"
    )
    return 0


@_on_root
def _cmd_update(args: argparse.Namespace, service) -> int:
    changes: dict = {}
    if args.title is not None:
        changes["title"] = args.title
    if args.creator is not None:
        changes["creator"] = args.creator
    if args.body is not None:
        changes["body"] = args.body
    if args.keywords is not None:
        changes["keywords"] = [part.strip() for part in args.keywords.split(",") if part.strip()]
    if args.ontology_terms is not None:
        changes["ontology_terms"] = [
            part.strip() for part in args.ontology_terms.split(",") if part.strip()
        ]
    if args.remove_referent:
        changes["remove_referents"] = list(args.remove_referent)
    if args.move_referent:
        moves = {}
        for referent_id, start, end in args.move_referent:
            moves[referent_id] = {"start": float(start), "end": float(end)}
        changes["move_referents"] = moves
    if not changes:
        print("nothing to update (pass at least one change flag)", file=sys.stderr)
        return 2
    service.update_annotation(args.annotation_id, changes)
    print(f"updated {args.annotation_id} ({', '.join(sorted(changes))}) -> {args.root}")
    return 0


@_on_root
def _cmd_delete_object(args: argparse.Namespace, service) -> int:
    cascaded = service.delete_object(args.object_id, cascade=not args.no_cascade)
    print(
        f"deleted object {args.object_id} "
        f"(cascaded {len(cascaded)} annotation(s)) -> {args.root}"
    )
    return 0


@_on_root
def _cmd_query(args: argparse.Namespace, service) -> int:
    try:
        result = service.query(args.gql)
    except GraphittiError as exc:
        print(f"query error: {exc}", file=sys.stderr)
        return 1
    print(f"return kind: {result.return_kind.value}")
    print(f"result count: {result.count}")
    if result.annotation_ids:
        print("annotations:", ", ".join(result.annotation_ids))
    if result.subgraphs:
        for index, subgraph in enumerate(result.subgraphs, start=1):
            print(f"  subgraph {index}: {subgraph.node_count} nodes, {subgraph.edge_count} edges")
    if result.steps:
        print("plan trace:")
        print(result.explain_steps())
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import driver as analysis_driver
    from repro.analysis.report import render_human, render_json

    findings, suppressed = analysis_driver.run_lint(args.paths or None)
    if args.json:
        print(render_json(findings, suppressed))
    else:
        print(render_human(findings, suppressed))
    gating = findings if args.strict else [
        finding for finding in findings if finding.rule != "stale-pragma"
    ]
    return 1 if gating else 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse parser (exposed for testing)."""
    parser = argparse.ArgumentParser(prog="repro", description="Graphitti command-line interface")
    sub = parser.add_subparsers(dest="command", required=True)
    # The ServiceConfig flags serve and shard-worker share (see _service_config).
    service_flags = argparse.ArgumentParser(add_help=False)
    service_flags.add_argument("--durability", choices=["always", "never"], default="always")
    service_flags.add_argument("--checkpoint-interval", type=int, default=0,
                               help="mutations between automatic checkpoints (0 = manual)")
    service_flags.add_argument("--cache-capacity", type=int, default=256)


    def verb(name: str, func: Callable, help: str, *positionals: str, **options):
        command = sub.add_parser(name, help=help, **options)
        for positional in positionals:
            command.add_argument(positional)
        command.set_defaults(func=func)
        return command

    verb("scenarios", _cmd_scenarios, "list built-in scenarios")
    p_build = verb("build", _cmd_build, "build a scenario into a new served root")
    p_build.add_argument("scenario", choices=sorted(_SCENARIOS))
    p_build.add_argument("root")
    verb("stats", _cmd_stats, "print instance statistics", "root")
    verb("admin", _cmd_admin, "print the administrative report", "root")
    verb("report", _cmd_report, "print a Markdown study report", "root")
    verb("query", _cmd_query, "run a GQL query", "root", "gql")
    verb("explain", _cmd_explain, "show a query plan without executing", "root", "gql")

    p_update = verb(
        "update", _cmd_update,
        "update a committed annotation in place (delta index maintenance)",
        "root", "annotation_id",
    )
    p_update.add_argument("--title", default=None)
    p_update.add_argument("--creator", default=None)
    p_update.add_argument("--body", default=None)
    p_update.add_argument("--keywords", default=None, help="comma-separated replacement keywords")
    p_update.add_argument("--ontology-terms", default=None,
                          help="comma-separated replacement content-level ontology terms")
    p_update.add_argument("--remove-referent", action="append", default=[],
                          metavar="REFERENT_ID", help="detach a referent (repeatable)")
    p_update.add_argument("--move-referent", action="append", default=[], nargs=3,
                          metavar=("REFERENT_ID", "START", "END"),
                          help="move a 1D referent's extent in place (repeatable)")

    p_delobj = verb(
        "delete-object", _cmd_delete_object,
        "retire a data object, cascading through its annotations", "root", "object_id",
    )
    p_delobj.add_argument("--no-cascade", action="store_true",
                          help="refuse instead of cascading when annotations still reference it")

    p_serve = verb(
        "serve", _cmd_serve,
        "open/recover a durable served instance and drive a mixed workload",
        parents=[service_flags],
    )
    p_serve.add_argument("root", help="directory holding snapshot.json + wal.jsonl")
    p_serve.add_argument("--shards", type=int, default=None,
                         help="serve N hash-routed shards under ROOT (scatter-gather queries). "
                              "A previously sharded root fixes N: reopening adopts its manifest "
                              "and a conflicting value is an error")
    p_serve.add_argument("--replicas", type=int, default=None,
                         help="attach N WAL-shipping read replicas (per shard when "
                              "combined with --shards); reads route to followers under "
                              "bounded staleness. A previously replicated root adopts "
                              "its manifest topology")
    p_serve.add_argument("--readers", type=int, default=4)
    p_serve.add_argument("--writers", type=int, default=2)
    p_serve.add_argument("--queries", type=int, default=200, help="queries per reader")
    p_serve.add_argument("--commits", type=int, default=40, help="commits per writer")
    p_serve.add_argument("--net", action="store_true",
                         help="serve each shard from its own worker process over TCP")
    p_serve.add_argument("--port-base", type=int, default=None,
                         help="with --net: first worker port (shard i gets port-base+i); "
                              "default ephemeral")
    p_serve.add_argument("--heartbeat-interval", type=float, default=0.5,
                         help="with --net: seconds between supervisor heartbeat probes")
    p_serve.add_argument("--max-inflight", type=int, default=64,
                         help="with --net: per-shard write-window size before backpressure")

    p_worker = verb(
        "shard-worker", _cmd_shard_worker,
        "run one shard worker process (normally spawned by serve --net)",
        parents=[service_flags],
    )
    p_worker.add_argument("root", help="this shard's directory (snapshot.json + wal.jsonl)")
    p_worker.add_argument("--shard-index", type=int, required=True)
    p_worker.add_argument("--host", default="127.0.0.1")
    p_worker.add_argument("--port", type=int, default=0,
                          help="listen port; 0 picks an ephemeral port (announced in net.json)")
    p_worker.add_argument("--max-inflight", type=int, default=64)
    p_worker.add_argument("--no-obs", action="store_true",
                          help="disable the worker's observability layer")

    p_promote = verb(
        "promote", _cmd_promote, "fenced failover: promote a follower of a replicated root"
    )
    p_promote.add_argument("root", help="directory holding replication.json (or shards.json)")
    p_promote.add_argument("--target", default=None,
                           help="follower directory name to promote (default: the "
                                "most-caught-up follower)")
    p_promote.add_argument("--shard", type=int, default=None,
                           help="for sharded roots: which shard's replica group fails over")
    p_promote.add_argument("--assume-primary-dead", action="store_true",
                           help="crash drill: never open the primary live, only read "
                                "its WAL as the shipping source")

    p_metrics = verb(
        "metrics", _cmd_metrics, "print the merged observability snapshot of a served root",
        "root",
    )
    p_metrics.add_argument("--format", choices=["json", "prometheus"], default="json")
    p_metrics.add_argument("--net", action="store_true",
                           help="serve a sharded root via worker processes while sampling")
    p_metrics.add_argument("--exercise", type=int, default=0, metavar="N",
                           help="run the reader query mix N times first so a cold "
                                "instance has latency distributions to show")

    p_compact = verb(
        "compact", _cmd_compact,
        "compact a served root's column storage and prune WAL segments", "root",
    )
    p_compact.add_argument("--json", action="store_true",
                           help="print the full before/after storage report as JSON")

    p_trace = verb(
        "trace", _cmd_trace, "run one GQL query and pretty-print its span tree", "root", "gql"
    )
    p_trace.add_argument("--warm", action="store_true",
                         help="run the query once before tracing so the traced run "
                              "shows the cached path")

    p_lint = verb(
        "lint", _cmd_lint,
        "run the repo-specific static checkers (lock discipline, WAL lifecycle, error taxonomy)",
    )
    p_lint.add_argument("paths", nargs="*",
                        help="files/directories to lint as a self-contained "
                             "mini-tree (default: the installed repro package)")
    p_lint.add_argument("--strict", action="store_true",
                        help="fail on every finding including stale-pragma "
                             "(the CI contract); without it stale-pragma is "
                             "advisory")
    p_lint.add_argument("--json", action="store_true",
                        help="emit the machine-readable report")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GraphittiError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

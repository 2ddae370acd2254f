"""Integration tests: repro.obs threaded through service, shard, and replica."""

import threading

import pytest

from repro.obs import ObservabilityConfig, merge_stats, render_prometheus
from repro.service import GraphittiService, ServiceConfig
from repro.shard import ShardedGraphittiService

QUERY = 'SELECT contents WHERE { CONTENT CONTAINS "signal" }'
OTHER_QUERY = 'SELECT contents WHERE { CONTENT CONTAINS "noise" }'


def _seed(service, count=12, tag="obs"):
    from repro.datatypes.sequence import DnaSequence

    object_ids = []
    for index in range(4):
        obj = DnaSequence(
            f"{tag}-seq-{index}", "ACGT" * 100, domain=f"{tag}:chr1", offset=index * 400
        )
        service.register(obj)
        object_ids.append(obj.object_id)
    for index in range(count):
        (
            service.new_annotation(
                f"{tag}-{index}",
                title=f"{tag} annotation {index}",
                keywords=["signal" if index % 2 == 0 else "noise"],
                body=f"{tag} body {index}",
            )
            .mark_sequence(object_ids[index % len(object_ids)], index * 10, index * 10 + 25)
            .commit()
        )
    return object_ids


# -- single service -----------------------------------------------------------


def test_disabled_observability_emits_nothing():
    service = GraphittiService(
        config=ServiceConfig(observability=ObservabilityConfig(enabled=False))
    )
    _seed(service)
    assert service.query(QUERY).count > 0
    assert service.query(QUERY).count > 0  # cache hit path
    assert service.metrics() == {"enabled": False}
    assert service.slow_ops() == []
    assert service.obs.registry is None
    assert service.obs.slow_log is None
    service.close()


def test_query_spans_and_cache_hit_counter():
    service = GraphittiService(config=ServiceConfig())
    _seed(service)
    service.query(QUERY)  # miss: traced
    service.query(QUERY)  # hit: counter only
    service.query(QUERY)
    snapshot = service.metrics()
    assert snapshot["enabled"] is True
    assert snapshot["counters"]["query.cache_hits"] == 2
    hist = snapshot["histograms"]["span.query"]
    assert hist["count"] == 1  # only the miss opened a root span
    for stage in ("span.parse", "span.plan", "span.execute"):
        assert snapshot["histograms"][stage]["count"] == 1
    assert "p99" in hist
    text = render_prometheus(snapshot)
    assert "repro_query_cache_hits_total 2" in text
    service.close()


def test_mutation_and_lock_metrics():
    service = GraphittiService(config=ServiceConfig())
    _seed(service, count=6)
    snapshot = service.metrics()
    assert snapshot["histograms"]["span.mutation.commit"]["count"] == 6
    assert snapshot["histograms"]["span.apply"]["count"] >= 6
    assert snapshot["histograms"]["lock.write.hold"]["count"] >= 6
    assert snapshot["gauges"]["lock.writers_queued"] == 0
    service.close()


def test_wal_fsync_spans_on_durable_service(tmp_path):
    service = GraphittiService.open(
        tmp_path / "svc", config=ServiceConfig(durability="always")
    )
    _seed(service, count=3, tag="wal")
    snapshot = service.metrics()
    assert snapshot["histograms"]["span.wal.append"]["count"] >= 3
    assert snapshot["histograms"]["span.wal.fsync"]["count"] >= 3
    service.close()


def test_slow_op_log_captures_trace_and_explain():
    service = GraphittiService(
        config=ServiceConfig(
            observability=ObservabilityConfig(slow_op_threshold_s=0.0)
        )
    )
    _seed(service)
    service.query(QUERY)
    slow = service.slow_ops()
    assert slow, "a zero-threshold query must land in the slow-op log"
    entry = slow[-1]
    assert entry["op"] == "query"
    assert entry["trace"]["name"] == "query"
    assert entry["trace"]["attributes"]["cache"] == "miss"
    assert "gql" in entry["trace"]["attributes"]
    assert entry["explain"]  # the plan explanation rode along
    assert service.metrics()["counters"]["slow_ops"] >= 1
    # Cache hits are span-free, so they never re-enter the slow log.
    before = len(service.slow_ops())
    service.query(QUERY)
    assert len(service.slow_ops()) == before
    service.close()


def test_slow_op_log_capacity_from_config():
    service = GraphittiService(
        config=ServiceConfig(
            observability=ObservabilityConfig(slow_op_threshold_s=0.0, slow_log_capacity=2)
        )
    )
    _seed(service)
    queries = [QUERY, OTHER_QUERY, 'SELECT contents WHERE { CONTENT CONTAINS "body" }']
    for text in queries:
        service.query(text)
    # The seed's commits also trip a zero threshold; the ring buffer still
    # holds exactly its configured two newest entries.
    assert len(service.slow_ops()) == 2
    assert service.metrics()["slow_ops"]["recorded_total"] >= 3
    assert service.metrics()["slow_ops"]["capacity"] == 2
    service.close()


def test_registry_resets_on_recovery_but_config_persists(tmp_path):
    config = ServiceConfig(durability="always")
    service = GraphittiService.open(tmp_path / "svc", config=config)
    _seed(service, count=4, tag="rec")
    service.query(QUERY.replace("signal", "rec"))
    assert service.metrics()["histograms"]["span.mutation.commit"]["count"] == 4
    service.close()

    recovered = GraphittiService.open(tmp_path / "svc", config=config)
    snapshot = recovered.metrics()
    assert snapshot["enabled"] is True  # config still enables observability
    # ...but the counters/histograms start from zero: a fresh registry.
    assert "span.mutation.commit" not in snapshot.get("histograms", {})
    assert snapshot.get("counters", {}).get("query.cache_hits", 0) == 0
    assert recovered.statistics()["annotations"] == 4
    recovered.close()


# -- sharded facade -----------------------------------------------------------


def test_sharded_trace_has_one_child_span_per_shard():
    service = ShardedGraphittiService(shards=3, name="obs-shard")
    _seed(service, count=18, tag="sh")
    with service.obs.tracer.span("capture") as capture:
        service.query('SELECT contents WHERE { CONTENT CONTAINS "sh" }')
    (root,) = capture.children
    assert root.name == "query"
    stages = [child.name for child in root.children]
    assert stages == ["scatter", "merge"]
    scatter = root.children[0]
    # The shards parse; the facade merges from their pages alone.
    shard_spans = scatter.children
    assert [span.name for span in shard_spans] == ["shard.query"] * 3
    assert sorted(span.attributes["shard"] for span in shard_spans) == [0, 1, 2]
    # Each shard's own query tree hangs off its shard.query span.
    for span in shard_spans:
        inner_names = [child.name for child in span.children]
        assert inner_names == ["query"]
    service.close()


def test_sharded_span_trees_correct_under_concurrency():
    """Parallel traced queries each see exactly their own shard children."""
    shards = 2
    service = ShardedGraphittiService(shards=shards, name="obs-conc")
    _seed(service, count=12, tag="cc")
    errors = []
    barrier = threading.Barrier(4)

    def worker(index):
        text = f'SELECT contents WHERE {{ CONTENT CONTAINS "cc body {index}" }}'
        try:
            barrier.wait()
            for _ in range(5):
                with service.obs.tracer.span(f"capture-{index}") as capture:
                    service.query(text)
                (root,) = capture.children
                scatter = next(c for c in root.children if c.name == "scatter")
                shard_ids = sorted(
                    child.attributes["shard"]
                    for child in scatter.children
                    if child.name == "shard.query"
                )
                if shard_ids != list(range(shards)):
                    errors.append(f"worker {index}: shard spans {shard_ids}")
        except Exception as exc:  # pragma: no cover - surfaced via errors list
            errors.append(f"worker {index}: {exc!r}")

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []
    service.close()


def test_sharded_metrics_sum_per_shard_counters():
    """Regression: the aggregate equals the sum of per-shard registries."""
    service = ShardedGraphittiService(shards=3, name="obs-sum")
    _seed(service, count=15, tag="sum")
    text = 'SELECT contents WHERE { CONTENT CONTAINS "sum" }'
    for _ in range(4):
        service.query(text)
    merged = service.metrics()
    per_shard = merged["per_shard"]
    assert len(per_shard) == 3
    for name, total in merged["counters"].items():
        parts = sum(snap.get("counters", {}).get(name, 0) for snap in per_shard)
        facade = service.obs.snapshot().get("counters", {}).get(name, 0)
        assert total == parts + facade, f"counter {name} does not sum"
    for name, hist in merged["histograms"].items():
        parts = sum(snap.get("histograms", {}).get(name, {}).get("count", 0) for snap in per_shard)
        facade_hist = service.obs.snapshot().get("histograms", {}).get(name, {})
        assert hist["count"] == parts + facade_hist.get("count", 0)
    # Three warm repeats hit each shard's cache: 3 repeats x 3 shards.
    assert merged["counters"]["query.cache_hits"] == 9
    service.close()


def test_sharded_statistics_still_sum_with_merge_stats():
    """statistics() aggregation (now via merge_stats) matches manual sums."""
    service = ShardedGraphittiService(shards=2, name="obs-stats")
    _seed(service, count=10, tag="st")
    stats = service.statistics()
    per_shard = [shard.statistics() for shard in service._shards]
    assert stats["annotations"] == sum(s["annotations"] for s in per_shard)
    assert stats["referents"] == sum(s["referents"] for s in per_shard)
    manual = merge_stats([{k: v for k, v in s.items() if k not in ("service",)} for s in per_shard])
    assert stats["annotations"] == manual["annotations"]
    service.close()


def test_sharded_disabled_observability():
    service = ShardedGraphittiService(
        shards=2,
        name="obs-off",
        config=ServiceConfig(observability=ObservabilityConfig(enabled=False)),
    )
    _seed(service, count=6, tag="off")
    assert service.query('SELECT contents WHERE { CONTENT CONTAINS "off" }').count > 0
    assert service.metrics() == {"enabled": False}
    assert service.slow_ops() == []
    service.close()


def test_sharded_slow_ops_attribute_shards():
    service = ShardedGraphittiService(
        shards=2,
        name="obs-slow",
        config=ServiceConfig(
            observability=ObservabilityConfig(slow_op_threshold_s=0.0)
        ),
    )
    _seed(service, count=6, tag="sl")
    service.query('SELECT contents WHERE { CONTENT CONTAINS "sl" }')
    entries = service.slow_ops()
    assert entries
    shard_entries = [entry for entry in entries if "shard" in entry]
    assert shard_entries, "per-shard slow entries must carry shard attribution"
    assert {entry["shard"] for entry in shard_entries} <= {0, 1}
    # Oldest-first ordering.
    stamps = [entry["recorded_at"] for entry in entries]
    assert stamps == sorted(stamps)
    service.close()


# -- replicated facade --------------------------------------------------------


def test_replicated_metrics_merge_roles(tmp_path):
    from repro.replica import ReplicatedGraphittiService, ReplicationConfig

    service = ReplicatedGraphittiService.open(
        tmp_path / "rep",
        replicas=2,
        config=ServiceConfig(durability="never"),
        replication=ReplicationConfig(auto_ship=False),
    )
    _seed(service, count=6, tag="rep")
    service.ship()
    service.query('SELECT contents WHERE { CONTENT CONTAINS "rep" }')
    merged = service.metrics()
    assert merged["enabled"] is True
    assert merged["counters"]["replication.records_shipped"] > 0
    per_role = merged["per_role"]
    assert len(per_role) == 3  # primary + two followers
    shipped = merged["histograms"]["span.replication.ship"]
    assert shipped["count"] >= 1
    # Primary mutation spans are visible through the merge.
    parts = sum(
        snap.get("histograms", {}).get("span.mutation.commit", {}).get("count", 0)
        for snap in per_role.values()
    )
    assert merged["histograms"]["span.mutation.commit"]["count"] == parts
    service.close()


# -- CLI surfaces -------------------------------------------------------------


def test_cli_metrics_and_trace(tmp_path, capsys):
    from repro.cli import main

    root = tmp_path / "svc"
    service = GraphittiService.open(root, config=ServiceConfig(durability="always"))
    _seed(service, count=5, tag="cli")
    service.close()

    gql = 'SELECT contents WHERE { CONTENT CONTAINS "cli" }'
    assert main(["metrics", str(root), "--exercise", "1"]) == 0
    out = capsys.readouterr().out
    assert '"enabled": true' in out
    assert "span.query" in out

    assert main(["metrics", str(root), "--format", "prometheus", "--exercise", "1"]) == 0
    out = capsys.readouterr().out
    assert "# TYPE repro_span_query histogram" in out

    assert main(["trace", str(root), gql]) == 0
    out = capsys.readouterr().out
    assert "result count: 5" in out
    assert "query" in out and "parse" in out and "execute" in out

    # Warm trace: the cached path is span-free and says so.
    assert main(["trace", str(root), gql, "--warm"]) == 0
    out = capsys.readouterr().out
    assert "served from the result cache" in out


def test_cli_trace_sharded_shows_per_shard_spans(tmp_path, capsys):
    from repro.cli import main

    root = tmp_path / "fleet"
    service = ShardedGraphittiService.open(root, shards=2)
    _seed(service, count=8, tag="fleet")
    service.close()

    assert main(["trace", str(root), 'SELECT contents WHERE { CONTENT CONTAINS "fleet" }']) == 0
    out = capsys.readouterr().out
    assert "scatter" in out and "merge" in out
    assert out.count("shard.query") == 2
    assert "shard=0" in out and "shard=1" in out


def test_cli_metrics_reports_disabled(tmp_path, monkeypatch):
    import argparse

    root = tmp_path / "svc"
    service = GraphittiService.open(root, config=ServiceConfig(durability="always"))
    _seed(service, count=2, tag="dis")
    service.close()

    # The CLI opens services with the default config; simulate a disabled
    # deployment by forcing the opener to pass a disabled config.
    from repro import cli as cli_module

    original = cli_module._open_service_for_root

    def _open_disabled(path, **kwargs):
        return original(
            path,
            **kwargs,
            config=ServiceConfig(
                durability="always",
                observability=ObservabilityConfig(enabled=False),
            ),
        )

    monkeypatch.setattr(cli_module, "_open_service_for_root", _open_disabled)
    args = argparse.Namespace(root=str(root), format="json", exercise=0, net=False)
    assert cli_module._cmd_metrics(args) == 1

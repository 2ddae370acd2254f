"""Smoke test of the end-to-end benchmark (tier-1, seconds).

A tiny corpus (300 annotations, 400 ops, 4 blocks) through all four
workloads: every named metric is present with its unit, exact counts repeat
for a seed and differ for another, the oracle catches a dropped write, and
the trace's spans nest.  ``net`` runs with thread workers here (real sockets,
no process spawn); process workers are what the benchmark itself runs.
"""

from __future__ import annotations

import json
import socket
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
for entry in (str(REPO / "src"), str(REPO)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from repro.net.server import ShardWorkerServer  # noqa: E402

from benchmarks.e2e import metrics, trace  # noqa: E402
from benchmarks.e2e.corpus import SMOKE, WRITE  # noqa: E402
from benchmarks.e2e.driver import WORKLOADS, make_plan, run_workload  # noqa: E402
from benchmarks.e2e.oracle import verify  # noqa: E402
from benchmarks.e2e.run import DEFAULT_SECONDS  # noqa: E402

#: One deck of 20 writes on the 95/5 workloads.
OPS = 400
SEED = 11


@pytest.fixture(scope="module", autouse=True)
def prompt_worker_stop():
    """Wake a thread worker's accept loop when it is stopped.

    Closing a listening socket does not interrupt an ``accept()`` blocked on
    it, so every ``stop()`` waits out its 2 s join -- twice per close of a
    two-shard deployment, a dozen closes in this module.  Shutting the
    listener down first makes ``accept()`` return at once.
    """
    stop = ShardWorkerServer.stop

    def prompt_stop(self):
        listener = self._listener
        if listener is not None:
            try:
                listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        stop(self)

    ShardWorkerServer.stop = prompt_stop
    yield
    ShardWorkerServer.stop = stop


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Every workload once: name -> (tracer, traced run, untraced twin, the twin's verdict)."""
    result = {}
    for name in WORKLOADS:
        plan = make_plan(WORKLOADS[name], SEED, OPS, SMOKE)
        tracer, run, plain = trace.traced_run(plan, tmp_path_factory.mktemp(f"e2e-{name}"))
        run.close()
        result[name] = (tracer, run, plain, verify(plain, thread_workers=True))
    return result


@pytest.fixture(scope="module")
def end_to_end(traced):
    """The untraced twins: name -> (run, verdict)."""
    return {name: (plain, verdict) for name, (_tracer, _run, plain, verdict) in traced.items()}


def test_benchmark_json_names_what_the_code_measures():
    declared = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert declared["paths"] == ["benchmarks/e2e"]
    assert declared["run_seconds"] == DEFAULT_SECONDS
    assert [(w["name"], w["why"]) for w in declared["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert {
        m["name"]: (m["unit"], m["better"], m["bound"]) for m in declared["end_to_end"]
    } == metrics.END_TO_END
    assert {
        m["name"]: (m["unit"], m["better"]) for m in declared["per_layer"]
    } == metrics.per_layer_table()


def test_every_end_to_end_metric_is_reported_and_answers_are_right(end_to_end):
    for name, (run, verdict) in end_to_end.items():
        assert verdict.problems == [], name
        assert run.phase.failed == [] and run.warmup_failed == 0, name
        assert len(run.phase.executed) == OPS and len(run.phase.blocks) == SMOKE.blocks, name
        values = metrics.end_to_end(run, verdict)
        assert list(values) == list(metrics.END_TO_END), name
        assert all(value > 0 for value in values.values()), (name, values)
        assert set(metrics.raw_timings(run)) <= set(values)


def test_every_per_layer_metric_is_reported(traced):
    for name, (tracer, run, plain, verdict) in traced.items():
        assert verdict.problems == [], name
        values = trace.per_layer(tracer, run, plain)
        assert set(values) == set(metrics.per_layer_table()), name
        assert values["query.execute.calls_per_op"] > 0, name
        assert values["service.wal.fsyncs_per_write"] >= 1, name
        assert values["trace.overhead_ratio"] > 0, name
    layers = {name: trace.per_layer(*traced[name][:3]) for name in WORKLOADS}
    assert layers["churn"]["service.checkpoint.count"] >= 2
    net = layers["net"]
    assert net["net.client.round_trips_per_op"] >= 2 and net["net.wire.bytes_per_op"] > 0
    assert net["net.server.dispatch.calls_per_op"] == net["net.client.wait.calls_per_op"]
    assert layers["browse"]["net.client.wait.calls_per_op"] == 0
    assert layers["browse"]["service.cache.hit_ratio"] > layers["adhoc"]["service.cache.hit_ratio"]


def test_exact_counts_repeat_for_a_seed_and_differ_for_another(traced, tmp_path):
    # The traced run and its untraced twin are two runs of one seed.
    _tracer, run, plain, plain_verdict = traced["churn"]
    other_plan = make_plan(WORKLOADS["churn"], SEED + 1, OPS, SMOKE)
    other = run_workload(other_plan, tmp_path / "other", setups=1, recoveries=1)
    first, again, another = (
        {key: metrics.end_to_end(r, v)[key] for key in metrics.EXACT}
        for r, v in ((plain, plain_verdict), (run, verify(run)), (other, verify(other)))
    )
    assert first == again
    assert all(first[key] != another[key] for key in metrics.EXACT)

    def call_counts(tracer, run, plain, _verdict=None):
        values = trace.per_layer(tracer, run, plain)
        # A background checkpoint's paced snapshot writer syncs on a clock;
        # every other call count is a function of the inputs alone.
        return {
            key: value
            for key, value in values.items()
            if key.endswith(".calls_per_op") and key != "service.wal.fsync.calls_per_op"
        }

    plan = make_plan(WORKLOADS["adhoc"], SEED, OPS, SMOKE)
    tracer, again, twin = trace.traced_run(plan, tmp_path / "again")
    again.close()
    twin.close()
    assert call_counts(*traced["adhoc"]) == call_counts(tracer, again, twin)
    assert call_counts(*traced["adhoc"]) != call_counts(*traced["browse"])


def test_the_oracle_catches_a_dropped_write(end_to_end):
    run, verdict = end_to_end["browse"]
    assert verdict.problems == []
    # A write the deployment acknowledged to nobody: the reference applies it,
    # the recovered deployment has never seen it.
    extra = next(op for op in make_plan(WORKLOADS["browse"], 99, OPS, SMOKE).ops if op[1] == "commit")
    extra[2]["id"] = "dropped-by-the-deployment"
    run.phase.executed.append((WRITE, "commit", extra[2]))
    try:
        problems = verify(run, thread_workers=True).problems
    finally:
        run.phase.executed.pop()
    assert any("live-id set" in problem for problem in problems)
    assert any("dropped-by-the-deployment" in problem for problem in problems)


def test_spans_nest_and_time_is_accounted_for(traced):
    for name, (tracer, _run, _plain, _verdict) in traced.items():
        by_index = {span[trace.INDEX]: span for span in tracer.spans}
        for span in tracer.spans:
            parent = by_index.get(span[trace.PARENT])
            if parent is not None:
                assert parent[trace.START] <= span[trace.START], (name, span, parent)
                assert span[trace.END] <= parent[trace.END], (name, span, parent)
        assert all(value >= 0 for value in trace.self_times(tracer.spans).values())
        totals = trace.summary(tracer)
        assert totals["unattributed_s"] / totals["root_s"] < 0.2, name
        if name != "net":  # two shards answer in parallel: their self times overlap
            assert totals["summed_self_s"] == pytest.approx(totals["root_s"], rel=0.10), name

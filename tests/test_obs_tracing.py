"""Tests for repro.obs tracing (span trees) and the slow-op ring buffer."""

import threading

from repro.obs import (
    NULL_SPAN,
    MetricsRegistry,
    SlowOpLog,
    Tracer,
    current_span,
    format_span,
)


def test_span_nesting_links_parent_and_child():
    tracer = Tracer(enabled=True)
    with tracer.span("outer") as outer:
        assert current_span() is outer
        with tracer.span("inner") as inner:
            assert current_span() is inner
            assert inner.parent is outer
    assert current_span() is None
    assert outer.children == [inner]
    assert outer.duration >= inner.duration >= 0.0


def test_span_records_error_attribute():
    tracer = Tracer(enabled=True)
    try:
        with tracer.span("boom") as span:
            raise KeyError("x")
    except KeyError:
        pass
    assert span.attributes["error"] == "KeyError"


def test_thread_local_stacks_are_independent():
    """Concurrent roots on different threads never adopt each other."""
    tracer = Tracer(enabled=True)
    roots = {}
    barrier = threading.Barrier(4)

    def worker(index):
        barrier.wait()
        with tracer.span(f"root-{index}") as root:
            with tracer.span("child"):
                pass
        roots[index] = root

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for index, root in roots.items():
        assert root.parent is None
        assert [child.name for child in root.children] == ["child"]


def test_disabled_tracer_hands_out_null_span():
    tracer = Tracer(enabled=False)
    span = tracer.span("anything")
    assert span is NULL_SPAN
    assert not span
    with span as entered:
        entered.set("key", "value")
    assert span.attributes == {}
    assert span.children == []
    assert current_span() is None


def test_tracer_records_durations_into_registry():
    registry = MetricsRegistry()
    tracer = Tracer(enabled=True, registry=registry)
    for _ in range(3):
        with tracer.span("query"):
            pass
    snap = registry.snapshot()
    assert snap["histograms"]["span.query"]["count"] == 3
    assert snap["histograms"]["span.query"]["sum"] >= 0.0


def test_format_span_renders_tree():
    tracer = Tracer(enabled=True)
    with tracer.span("query") as root:
        root.set("cache", "miss")
        with tracer.span("execute") as execute:
            execute.set("rows", 7)
    text = format_span(root)
    lines = text.splitlines()
    assert "query" in lines[0] and "cache=miss" in lines[0]
    assert "execute" in lines[1] and "rows=7" in lines[1]
    assert "ms" in lines[0]
    # to_dict round-trips through the same renderer.
    assert format_span(root.to_dict()) == text


def test_to_dict_shape():
    tracer = Tracer(enabled=True)
    with tracer.span("outer") as outer:
        with tracer.span("inner") as inner:
            inner.set("k", 1)
    node = outer.to_dict()
    assert node["name"] == "outer"
    assert node["children"][0]["name"] == "inner"
    assert node["children"][0]["attributes"] == {"k": 1}
    assert "attributes" not in node  # empty attrs are omitted


# -- slow-op ring buffer ------------------------------------------------------


def _finished_span(tracer, name, **attrs):
    with tracer.span(name) as span:
        for key, value in attrs.items():
            span.set(key, value)
    return span


def test_slow_log_threshold_and_capture():
    tracer = Tracer(enabled=True)
    log = SlowOpLog(capacity=4, threshold_s=0.25)
    assert not log.is_slow(0.1)
    assert log.is_slow(0.25)
    assert log.is_slow(1.0)
    span = _finished_span(tracer, "query", gql="SELECT contents")
    log.record("query", span, explain={"plan": "static"}, shard=2)
    (entry,) = log.entries()
    assert entry["op"] == "query"
    assert entry["explain"] == {"plan": "static"}
    assert entry["shard"] == 2
    assert entry["trace"]["name"] == "query"
    assert entry["trace"]["attributes"]["gql"] == "SELECT contents"
    assert entry["recorded_at"] > 0


def test_slow_log_ring_buffer_is_bounded():
    tracer = Tracer(enabled=True)
    log = SlowOpLog(capacity=3, threshold_s=0.0)
    for index in range(10):
        log.record("op", _finished_span(tracer, f"span-{index}"))
    entries = log.entries()
    assert len(entries) == 3
    assert len(log) == 3
    # Oldest evicted first: the survivors are the three newest.
    assert [entry["trace"]["name"] for entry in entries] == [
        "span-7", "span-8", "span-9",
    ]
    stats = log.stats()
    assert stats["entries"] == 3
    assert stats["recorded_total"] == 10
    assert stats["capacity"] == 3


def test_slow_log_thread_safety():
    tracer = Tracer(enabled=True)
    log = SlowOpLog(capacity=16, threshold_s=0.0)

    def hammer(worker):
        for index in range(200):
            log.record("op", _finished_span(tracer, f"w{worker}-{index}"))

    threads = [threading.Thread(target=hammer, args=(w,)) for w in range(6)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(log) == 16
    assert log.stats()["recorded_total"] == 1200
    for entry in log.entries():  # every surviving entry is structurally whole
        assert entry["op"] == "op"
        assert "trace" in entry and "duration_s" in entry


def test_slow_log_clear():
    tracer = Tracer(enabled=True)
    log = SlowOpLog(capacity=4, threshold_s=0.0)
    log.record("op", _finished_span(tracer, "x"))
    log.clear()
    assert log.entries() == []
    assert len(log) == 0

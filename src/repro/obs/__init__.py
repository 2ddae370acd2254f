"""repro.obs — observability for the whole stack.

One :class:`Observability` instance per service instance bundles the three
sinks every layer records into:

* a :class:`~repro.obs.metrics.MetricsRegistry` of counters, gauges, and
  fixed-bucket latency histograms (mergeable across shards/replicas);
* a :class:`~repro.obs.tracing.Tracer` handing out context-managed spans
  with automatic parent/child linking (a thread-local stack);
* a :class:`~repro.obs.slowlog.SlowOpLog` ring buffer capturing the full
  trace plus ``explain()`` output of any op over the threshold.

Disabled (``ObservabilityConfig(enabled=False)``) every surface degrades to
a no-op: spans are the shared :data:`NULL_SPAN`, ``snapshot()`` reports only
``{"enabled": False}``, and instrumented code paths pay one attribute check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_histogram_snapshots,
    merge_metrics,
    merge_stats,
    render_prometheus,
)
from repro.obs.slowlog import SlowOpLog
from repro.obs.tracing import NULL_SPAN, Span, Tracer, current_span, format_span

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_SPAN",
    "Observability",
    "ObservabilityConfig",
    "SlowOpLog",
    "Span",
    "Tracer",
    "current_span",
    "format_span",
    "merge_histogram_snapshots",
    "merge_metrics",
    "merge_observability",
    "merge_stats",
    "render_prometheus",
]


def merge_observability(snapshots) -> dict:
    """Merge full :meth:`Observability.snapshot` dicts across instances.

    Counters/gauges sum and histograms add buckets (via
    :func:`merge_metrics`); slow-op-log stats sum entry counts and keep the
    first instance's threshold.  Disabled instances contribute nothing; all
    disabled yields ``{"enabled": False}``.  This is how the sharded and
    replicated facades aggregate their children's registries.
    """
    active = [snap for snap in snapshots if snap.get("enabled")]
    if not active:
        return {"enabled": False}
    merged = merge_metrics(active)
    merged["enabled"] = True
    slow = [snap["slow_ops"] for snap in active if "slow_ops" in snap]
    if slow:
        merged["slow_ops"] = {
            "capacity": sum(part["capacity"] for part in slow),
            "threshold_s": slow[0]["threshold_s"],
            "entries": sum(part["entries"] for part in slow),
            "recorded_total": sum(part["recorded_total"] for part in slow),
        }
    return merged


@dataclass(frozen=True)
class ObservabilityConfig:
    """Knobs for one service instance's observability.

    ``enabled`` gates everything; ``slow_op_threshold_s`` is the latency at
    which an op's trace + explain land in the slow-op log of
    ``slow_log_capacity`` entries.
    """

    enabled: bool = True
    slow_op_threshold_s: float = 0.25
    slow_log_capacity: int = 128


class Observability:
    """Per-instance bundle of registry + tracer + slow-op log."""

    __slots__ = ("config", "enabled", "registry", "tracer", "slow_log")

    def __init__(self, config: Optional[ObservabilityConfig] = None):
        self.config = config or ObservabilityConfig()
        self.enabled = self.config.enabled
        if self.enabled:
            self.registry = MetricsRegistry()
            self.tracer = Tracer(enabled=True, registry=self.registry)
            self.slow_log = SlowOpLog(
                capacity=self.config.slow_log_capacity,
                threshold_s=self.config.slow_op_threshold_s,
            )
        else:
            self.registry = None
            self.tracer = Tracer(enabled=False)
            self.slow_log = None

    # -- recording -------------------------------------------------------
    def span(self, name: str):
        return self.tracer.span(name)

    def count(self, name: str, amount: int | float = 1) -> None:
        if self.enabled:
            self.registry.counter(name).inc(amount)

    def observe(self, name: str, value: float) -> None:
        if self.enabled:
            self.registry.histogram(name).observe(value)

    def is_slow(self, span: Any) -> bool:
        return (self.enabled
                and self.slow_log.is_slow(getattr(span, "duration", 0.0)))

    def record_slow(self, op: str, span: Any,
                    explain: Optional[dict] = None, **extra: Any) -> None:
        if self.enabled:
            self.slow_log.record(op, span, explain=explain, **extra)
            self.registry.counter("slow_ops").inc()

    # -- export ----------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """JSON-compatible view: registry snapshot + slow-log stats."""
        if not self.enabled:
            return {"enabled": False}
        snap = self.registry.snapshot()
        snap["enabled"] = True
        snap["slow_ops"] = self.slow_log.stats()
        return snap

    def fleet_snapshot(self, detail_key: str, children) -> dict[str, Any]:
        """This facade's snapshot merged with its *children*'s.

        *children* is a list (per shard) or a dict (per role) of child
        snapshots; the breakdown stays reachable under *detail_key*.
        """
        parts = list(children.values()) if isinstance(children, dict) else list(children)
        merged = merge_observability([self.snapshot()] + parts)
        if merged.get("enabled"):
            merged[detail_key] = children
        return merged

    def fleet_slow_ops(self, tag: str, children) -> list[dict[str, Any]]:
        """This facade's slow-op entries plus each child's, oldest first.

        *children* yields ``(label, entries)``; every child entry is
        attributed with ``{tag: label}``.
        """
        entries = list(self.slow_log.entries()) if self.enabled else []
        for label, child_entries in children:
            entries.extend({**entry, tag: label} for entry in child_entries)
        entries.sort(key=lambda entry: entry.get("recorded_at", 0.0))
        return entries

"""Span-based tracing with automatic parent/child linking.

A :class:`Span` measures one stage of an operation (parse, plan, a single
constraint evaluation, a WAL fsync, one shard of a scatter-gather).  Spans
nest: entering a span pushes it onto a thread-local stack shared by *every*
tracer in the process, so when the sharded facade's ``query`` span is open
and a shard's own service opens its ``query`` span on the same thread, the
child attaches automatically — no tracer object needs to be plumbed between
layers.

When tracing is disabled the tracer hands out :data:`NULL_SPAN`, a shared
no-op whose ``__enter__``/``__exit__``/``set`` do nothing — the disabled
cost of an instrumented code path is one attribute check and one method
call, with no allocation.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Optional

_tls = threading.local()


def _stack() -> list:
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = _tls.stack = []
    return stack


def current_span() -> Optional["Span"]:
    """The innermost live span on this thread, if any."""
    stack = getattr(_tls, "stack", None)
    return stack[-1] if stack else None


class Span:
    """One timed stage.  Use as a context manager; nesting links children."""

    __slots__ = (
        "name", "attributes", "children", "parent",
        "start", "duration", "_tracer", "_on_stack",
    )

    def __init__(self, name: str, tracer: Optional["Tracer"] = None):
        self.name = name
        self.attributes: dict[str, Any] = {}
        self.children: list[Span] = []
        self.parent: Optional[Span] = None
        self.start = 0.0
        self.duration = 0.0
        self._tracer = tracer
        self._on_stack = False

    def set(self, key: str, value: Any) -> None:
        self.attributes[key] = value

    def reparent(self, new_parent: "Span") -> None:
        """Move this (finished) span under *new_parent*.

        The service's query path opens its root span only after the result
        cache misses — so the parse/plan spans, which necessarily ran
        before that decision, are adopted after the fact.  Detaches from
        the old parent (if any) so the span never appears twice.
        """
        old = self.parent
        if old is not None:
            try:
                old.children.remove(self)
            except ValueError:
                pass
        self.parent = new_parent
        new_parent.children.append(self)

    def __enter__(self) -> "Span":
        self.parent = current_span()
        if self.parent is not None:
            self.parent.children.append(self)
        stack = _stack()
        stack.append(self)
        self._on_stack = True
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.duration = time.perf_counter() - self.start
        if exc_type is not None:
            self.attributes["error"] = exc_type.__name__
        if self._on_stack:
            stack = _stack()
            # Pop back to (and including) this span; tolerates a child that
            # leaked by never exiting rather than corrupting the stack.
            while stack:
                if stack.pop() is self:
                    break
            self._on_stack = False
        tracer = self._tracer
        if tracer is not None:
            tracer._finished(self)

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible tree rooted at this span."""
        node: dict[str, Any] = {
            "name": self.name,
            "duration_s": self.duration,
        }
        if self.attributes:
            node["attributes"] = dict(self.attributes)
        if self.children:
            node["children"] = [child.to_dict() for child in self.children]
        return node


class _NullSpan:
    """Shared no-op span handed out when tracing is disabled."""

    __slots__ = ()
    name = ""
    duration = 0.0
    parent = None

    @property
    def attributes(self) -> dict:
        return {}

    @property
    def children(self) -> list:
        return []

    def set(self, key: str, value: Any) -> None:
        pass

    def reparent(self, new_parent: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass

    def __bool__(self) -> bool:
        return False

    def to_dict(self) -> dict[str, Any]:
        return {"name": "", "duration_s": 0.0}


NULL_SPAN = _NullSpan()


class Tracer:
    """Hands out spans and records their durations into a registry.

    Each finished span's duration is observed into the histogram
    ``span.<name>`` of the attached registry (if any), so the trace stream
    doubles as the source of per-stage latency distributions.
    """

    __slots__ = ("enabled", "registry", "_histograms")

    def __init__(self, enabled: bool = True, registry=None):
        self.enabled = enabled
        self.registry = registry
        # name -> Histogram; plain-dict read on the hot path, registry
        # creation (locked) only on first sighting of a span name.
        self._histograms: dict[str, Any] = {}

    def span(self, name: str):
        if not self.enabled:
            return NULL_SPAN
        return Span(name, tracer=self)

    def _finished(self, span: Span) -> None:
        registry = self.registry
        if registry is None:
            return
        histogram = self._histograms.get(span.name)
        if histogram is None:
            histogram = self._histograms[span.name] = registry.histogram(
                f"span.{span.name}")
        histogram.observe(span.duration)


def format_span(span, indent: int = 0, total: Optional[float] = None) -> str:
    """Pretty-print a span tree: one line per span, duration + % of root."""
    lines: list[str] = []
    _format_into(span if isinstance(span, dict) else span.to_dict(),
                 indent, total, lines)
    return "\n".join(lines)


def _format_into(node: dict[str, Any], indent: int,
                 total: Optional[float], lines: list[str]) -> None:
    duration = node.get("duration_s", 0.0)
    if total is None:
        total = duration or None
    pct = f"  ({duration / total * 100.0:5.1f}%)" if total else ""
    attrs = node.get("attributes") or {}
    attr_text = ""
    if attrs:
        attr_text = "  " + " ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
    lines.append(f"{'  ' * indent}{node['name']:<{max(1, 28 - 2 * indent)}}"
                 f" {duration * 1000:9.3f} ms{pct}{attr_text}")
    for child in node.get("children", []):
        _format_into(child, indent + 1, total, lines)

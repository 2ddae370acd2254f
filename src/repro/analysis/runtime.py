"""Opt-in runtime concurrency instrumentation.

Two tools, both **off by default** (the serving layer's locks are untouched
until a test asks):

* :class:`LockOrderMonitor` + :func:`monitoring` — record the per-thread
  lock-acquisition graph (an edge ``A -> B`` means some thread acquired ``B``
  while holding ``A``) and fail on cycles.  Cycles are detectable from
  acquisition *order* alone, accumulated across threads and time — no actual
  deadlock (or even concurrency) needs to occur, which is what makes this
  usable in a test suite.  ``monitoring()`` monkeypatches
  :class:`repro.service.locks.ReadWriteLock`'s acquire/release methods for
  its scope; :func:`wrap_lock` adapts plain mutexes (the result cache's
  mutex) into the same graph.
* :func:`race_stress` / :func:`run_racing` — seeded race-stress mode.  When
  ``REPRO_ANALYSIS_RACE=1``, the interpreter switch interval drops to 10µs
  (maximizing interleavings) and racing thunks start barrier-aligned so they
  collide inside the hot seams (cache put/hit, epoch bump, checkpoint
  freeze, follower apply) instead of running serially by accident.

Read and write acquisitions of a ReadWriteLock map to the same graph node:
with writer preference, an inverted read-side order can still deadlock
(reader waits behind a queued writer while holding the other lock), so the
conservative node granularity is the correct one.
"""

from __future__ import annotations

import contextlib
import os
import sys
import threading
from dataclasses import dataclass, field

RACE_ENV = "REPRO_ANALYSIS_RACE"
RACE_SWITCH_INTERVAL = 1e-5

ANALYSIS_NAME_ATTR = "_repro_analysis_lock_name"


class LockOrderViolation(AssertionError):
    """Raised by :meth:`LockOrderMonitor.assert_no_cycles` on a cycle."""


@dataclass
class LockOrderMonitor:
    """Per-thread held-lock stacks + the global acquisition-order graph."""

    edges: dict[str, set[str]] = field(default_factory=dict)
    acquisitions: int = 0
    _tls: threading.local = field(default_factory=threading.local, repr=False)
    _mutex: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def _stack(self) -> list[str]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = []
            self._tls.stack = stack
        return stack

    def record_acquire(self, name: str) -> None:
        stack = self._stack()
        with self._mutex:
            self.acquisitions += 1
            for held in stack:
                if held != name:
                    self.edges.setdefault(held, set()).add(name)
        stack.append(name)

    def record_release(self, name: str) -> None:
        stack = self._stack()
        # Remove the innermost matching acquisition; releases may arrive
        # out of LIFO order (e.g. hand-over-hand drain loops).
        for index in range(len(stack) - 1, -1, -1):
            if stack[index] == name:
                del stack[index]
                return

    def held_by_current_thread(self) -> tuple[str, ...]:
        return tuple(self._stack())

    def cycles(self) -> list[list[str]]:
        """Every elementary cycle-representative in the acquisition graph."""
        with self._mutex:
            graph = {node: set(dests) for node, dests in self.edges.items()}
        seen: set[str] = set()
        cycles: list[list[str]] = []

        def visit(node: str, path: list[str], on_path: set[str]) -> None:
            if node in on_path:
                cycle = path[path.index(node):] + [node]
                cycles.append(cycle)
                return
            if node in seen:
                return
            seen.add(node)
            on_path.add(node)
            path.append(node)
            for dest in sorted(graph.get(node, ())):
                visit(dest, path, on_path)
            path.pop()
            on_path.discard(node)

        for start in sorted(graph):
            visit(start, [], set())
        return cycles

    def assert_no_cycles(self) -> None:
        found = self.cycles()
        if found:
            rendered = "; ".join(" -> ".join(cycle) for cycle in found)
            raise LockOrderViolation(
                f"lock-order cycle(s) detected: {rendered} "
                f"(over {self.acquisitions} recorded acquisitions)"
            )


def name_lock(lock: object, name: str) -> object:
    """Give *lock* a stable node name in the acquisition graph."""
    setattr(lock, ANALYSIS_NAME_ATTR, name)
    return lock


def _node_name(lock: object) -> str:
    explicit = getattr(lock, ANALYSIS_NAME_ATTR, None)
    if explicit is not None:
        return explicit
    return f"{type(lock).__name__}@{id(lock):#x}"


class MonitoredLock:
    """A plain-mutex adapter feeding :class:`LockOrderMonitor`.

    Wraps ``threading.Lock``/``RLock`` objects the serving layer uses next
    to the ReadWriteLock (the result cache's mutex) so cross-lock
    ordering shows up in the same graph.
    """

    def __init__(self, name: str, inner: object, monitor: LockOrderMonitor):
        self.name = name
        self.inner = inner
        self.monitor = monitor

    def acquire(self, *args, **kwargs):
        acquired = self.inner.acquire(*args, **kwargs)
        if acquired:
            self.monitor.record_acquire(self.name)
        return acquired

    def release(self) -> None:
        self.inner.release()
        self.monitor.record_release(self.name)

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *exc_info):
        self.release()
        return False

    def locked(self) -> bool:
        locked = getattr(self.inner, "locked", None)
        return bool(locked()) if callable(locked) else False


def wrap_lock(name: str, inner: object, monitor: LockOrderMonitor) -> MonitoredLock:
    return MonitoredLock(name, inner, monitor)


@contextlib.contextmanager
def monitoring(monitor: LockOrderMonitor | None = None):
    """Patch ReadWriteLock's acquire/release to feed *monitor* for this scope.

    Yields the monitor.  Instances are distinguished by :func:`name_lock`
    name or ``ReadWriteLock@<id>``; the patch is process-global (it swaps
    unbound methods on the class) and restored on exit, so scopes must not
    overlap.
    """
    from repro.service.locks import ReadWriteLock

    active = monitor if monitor is not None else LockOrderMonitor()
    originals = {
        "acquire_read": ReadWriteLock.acquire_read,
        "acquire_write": ReadWriteLock.acquire_write,
        "release_read": ReadWriteLock.release_read,
        "release_write": ReadWriteLock.release_write,
    }

    def _acquire_read(self, *args, **kwargs):
        result = originals["acquire_read"](self, *args, **kwargs)
        active.record_acquire(_node_name(self))
        return result

    def _acquire_write(self, *args, **kwargs):
        result = originals["acquire_write"](self, *args, **kwargs)
        active.record_acquire(_node_name(self))
        return result

    def _release_read(self, *args, **kwargs):
        active.record_release(_node_name(self))
        return originals["release_read"](self, *args, **kwargs)

    def _release_write(self, *args, **kwargs):
        active.record_release(_node_name(self))
        return originals["release_write"](self, *args, **kwargs)

    ReadWriteLock.acquire_read = _acquire_read
    ReadWriteLock.acquire_write = _acquire_write
    ReadWriteLock.release_read = _release_read
    ReadWriteLock.release_write = _release_write
    try:
        yield active
    finally:
        for attr, fn in originals.items():
            setattr(ReadWriteLock, attr, fn)


# -- race-stress mode ----------------------------------------------------------


def race_enabled() -> bool:
    """True when the seeded race-stress mode is switched on via the env."""
    return os.environ.get(RACE_ENV, "") == "1"


@contextlib.contextmanager
def race_stress():
    """Drop the switch interval to 10µs for the scope (no-op when disabled)."""
    if not race_enabled():
        yield False
        return
    previous = sys.getswitchinterval()
    sys.setswitchinterval(RACE_SWITCH_INTERVAL)
    try:
        yield True
    finally:
        sys.setswitchinterval(previous)


def run_racing(thunks, repeat: int = 1) -> None:
    """Run *thunks* concurrently with barrier-aligned starts, *repeat* times.

    The barrier guarantees every thread is scheduled and poised before any
    does work, so short critical sections actually overlap.  The first
    exception from any thread is re-raised in the caller.
    """
    thunks = list(thunks)
    errors: list[BaseException] = []
    errors_mutex = threading.Lock()
    for _ in range(repeat):
        barrier = threading.Barrier(len(thunks))

        def runner(thunk):
            try:
                barrier.wait(timeout=30.0)
                thunk()
            except BaseException as exc:  # propagated to the caller below
                with errors_mutex:
                    errors.append(exc)

        threads = [
            threading.Thread(target=runner, args=(thunk,), daemon=True)
            for thunk in thunks
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        if errors:
            raise errors[0]


def race_rounds(default: int, stressed: int) -> int:
    """Iteration count helper: *stressed* under ``REPRO_ANALYSIS_RACE=1``."""
    return stressed if race_enabled() else default

"""A single-writer / multi-reader lock for the serving layer.

Annotation workloads are overwhelmingly read-heavy, so the serving layer
coordinates with a classic readers-writer lock: any number of readers share
the lock concurrently, writers get it exclusively, and *writer preference*
keeps a steady stream of readers from starving mutations (a waiting writer
blocks new readers from entering).

The implementation is a plain condition-variable monitor — no busy waiting —
and exposes context managers so call sites read as ``with lock.read_locked():``.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from time import perf_counter
from typing import Iterator


class ReadWriteLock:
    """A writer-preference readers-writer lock.

    Not reentrant: a thread must not acquire the write side while holding the
    read side (or vice versa) — the serving layer's call structure never
    nests acquisitions.

    Contention is observable: after :meth:`instrument`, the lock records
    wait-time histograms for both sides, a hold-time histogram for writers,
    and a writers-queued gauge into the given metrics registry.  The
    uninstrumented (and the uncontended-read) paths stay metric-free.
    """

    def __init__(self) -> None:
        # Entered through its bare mutex: the condition's own ``with`` adds
        # a Python-level call to the hottest lock path (every read), and
        # holding the mutex is holding the condition.
        self._mutex = threading.Lock()
        self._monitor = threading.Condition(self._mutex)
        self._active_readers = 0
        self._writer_active = False
        self._writers_waiting = 0
        self._metrics: dict | None = None
        self._write_acquired_at = 0.0

    def instrument(self, registry) -> None:
        """Record wait/hold distributions into *registry* from now on.

        Read-side wait time is only observed when the reader actually had to
        wait — the uncontended read acquisition (the serving layer's hottest
        lock path) pays one extra attribute load and nothing else.
        """
        self._metrics = {
            "read_wait": registry.histogram("lock.read.wait"),
            "write_wait": registry.histogram("lock.write.wait"),
            "write_hold": registry.histogram("lock.write.hold"),
            "writers_queued": registry.gauge("lock.writers_queued"),
        }

    # -- read side -------------------------------------------------------------

    def acquire_read(self) -> None:
        """Block until no writer is active or waiting, then enter as a reader."""
        metrics = self._metrics
        waited = 0.0
        with self._mutex:
            if self._writer_active or self._writers_waiting:
                start = perf_counter() if metrics is not None else 0.0
                while self._writer_active or self._writers_waiting:
                    self._monitor.wait()
                if metrics is not None:
                    waited = perf_counter() - start
            self._active_readers += 1
        if metrics is not None and waited:
            metrics["read_wait"].observe(waited)

    def release_read(self) -> None:
        """Leave the reader side, waking writers when the last reader exits.

        Only writers ever wait for readers to leave, and a waiting writer is
        counted in ``_writers_waiting`` before it waits, so with none counted
        there is no one to wake.
        """
        with self._mutex:
            self._active_readers -= 1
            if self._active_readers == 0 and self._writers_waiting:
                self._monitor.notify_all()

    @contextmanager
    def read_locked(self) -> Iterator[None]:
        """Hold the read side for the duration of the block."""
        self.acquire_read()
        try:
            yield
        finally:
            self.release_read()

    # -- write side ------------------------------------------------------------

    def acquire_write(self) -> None:
        """Block until the lock is free of readers and writers, then own it."""
        metrics = self._metrics
        start = perf_counter() if metrics is not None else 0.0
        if metrics is not None:
            metrics["writers_queued"].inc()
        with self._mutex:
            self._writers_waiting += 1
            try:
                while self._writer_active or self._active_readers:
                    self._monitor.wait()
            finally:
                self._writers_waiting -= 1
            self._writer_active = True
        if metrics is not None:
            metrics["writers_queued"].dec()
            now = perf_counter()
            metrics["write_wait"].observe(now - start)
            self._write_acquired_at = now

    def release_write(self) -> None:
        """Release exclusive ownership and wake every waiter."""
        metrics = self._metrics
        if metrics is not None and self._write_acquired_at:
            metrics["write_hold"].observe(perf_counter() - self._write_acquired_at)
        with self._mutex:
            self._writer_active = False
            self._monitor.notify_all()

    @contextmanager
    def write_locked(self) -> Iterator[None]:
        """Hold the write side for the duration of the block."""
        self.acquire_write()
        try:
            yield
        finally:
            self.release_write()

    # -- introspection (for tests / stats) --------------------------------------

    def snapshot(self) -> dict[str, int | bool]:
        """A point-in-time view of the lock state (diagnostics only)."""
        with self._mutex:
            return {
                "active_readers": self._active_readers,
                "writer_active": self._writer_active,
                "writers_waiting": self._writers_waiting,
            }

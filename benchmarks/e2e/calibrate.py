"""Calibration kernel: how fast is this host *right now*?

The shared 2-core sandbox slows down by tens of percent for a tenth of a
second to minutes at a time while CPU time tracks wall time -- the host gets
slower, the process is not descheduled.  A fixed pure-Python kernel (dict /
str / sort work, the same kind of work the system under test does) is
therefore run *between* the operations being timed, one repetition every
``GAP_S`` of work, so that a slow spell the work went through is a slow spell
the kernel went through too.  The stretch of work between two repetitions is
a *segment*; its *speed factor* is the committed reference time divided by
the mean of the two repetitions either side.  A duration multiplied, or a
rate divided, by that factor reads "at reference speed".

This module never imports ``repro``: the yardstick must not change when the
system does.
"""

from __future__ import annotations

import gc
import statistics
import time

#: Reference duration of ONE kernel repetition, in seconds, measured on the
#: host that defined the benchmark.  Changing it rescales every normalised
#: timing, so it is part of the benchmark's definition.
REF_S = 0.0050

#: Work between two kernel repetitions, in seconds: the kernel takes a tenth
#: of the time.  Measured on the defining host, repetitions 6, 12 and 25 ms
#: apart (of kernels made shorter to match) left no less spread than 50 ms.
GAP_S = 0.05

#: Repetitions (their median is used) where a measurement starts and ends: a
#: recovery is one call nothing can be run in between, so its two ends are
#: all that is known about the host while it ran.
END_REPS = 5

_KERNEL_ITEMS = 7500


def kernel() -> int:
    """One repetition: string formatting, dict updates, a keyed sort, a join."""
    table: dict[str, int] = {}
    for index in range(_KERNEL_ITEMS):
        key = "k%05d" % ((index * 7919) % 10007)
        table[key] = table.get(key, 0) + index
    ordered = sorted(table.items(), key=lambda item: (item[1] % 257, item[0]))
    text = "|".join(key for key, _ in ordered[:600])
    return len(text) + len(ordered)


def repetitions(count: int) -> list[float]:
    """*count* kernel repetitions, each in CPU seconds of this thread.

    Thread CPU time, because a background checkpoint thread competing for the
    interpreter stretches the kernel's wall time without the host being any
    slower.  The collector is off while the kernel runs: the kernel allocates,
    and the yardstick must not now and then pay for a full collection of the
    system's heap (it frees all it allocates, so the system's own collections
    come when they would have).
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        samples = []
        for _ in range(count):
            start = time.thread_time()
            kernel()
            samples.append(time.thread_time() - start)
    finally:
        if enabled:
            gc.enable()
    return samples


class Yardstick:
    """Cuts a stretch of work into segments with a kernel repetition between them.

    ``start()``, then ``tick()`` wherever the work can be interrupted (a
    repetition runs if ``GAP_S`` has passed since the last), then ``stop()``.
    Repetitions are not part of any segment's wall time.
    """

    def __init__(self) -> None:
        #: Kernel time at every segment boundary (one more than segments).
        self.repetitions: list[float] = []
        #: Raw wall seconds of every closed segment.
        self.walls: list[float] = []
        #: CPU seconds all repetitions so far took (to take off a CPU reading).
        self.kernel_cpu_s = 0.0
        self._opened = 0.0

    @property
    def segment(self) -> int:
        """Index of the segment now open."""
        return len(self.walls)

    def start(self, reps: int = END_REPS) -> None:
        samples = repetitions(reps)
        self.kernel_cpu_s += sum(samples)
        self.repetitions.append(statistics.median(samples))
        self._opened = time.perf_counter()

    def cut(self, reps: int = 1) -> None:
        """Close the open segment with a repetition and open the next."""
        self.walls.append(time.perf_counter() - self._opened)
        self.start(reps)

    def tick(self) -> None:
        if time.perf_counter() - self._opened >= GAP_S:
            self.cut()

    def stop(self) -> None:
        self.cut(END_REPS)

    def factor(self, segment: int) -> float:
        """Host speed during *segment*: above 1 the host beats the reference."""
        return REF_S / ((self.repetitions[segment] + self.repetitions[segment + 1]) / 2.0)

    def seconds(self, first: int = 0, last: int | None = None, normalised: bool = True) -> float:
        """Wall time of segments *first* up to (not including) *last*, at reference speed unless raw."""
        last = len(self.walls) if last is None else last
        return sum(
            self.walls[index] * (self.factor(index) if normalised else 1.0)
            for index in range(first, last)
        )

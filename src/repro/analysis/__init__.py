"""Repo-specific static analysis and concurrency checking.

The package has two halves:

* **static** — checkers that machine-check the invariants every PR used to
  re-verify by hand: lock discipline over the serving layer's mutation paths
  (:mod:`repro.analysis.lockcheck`, from the AST), the op table's rows
  (:mod:`repro.analysis.walcheck`), and the typed error taxonomy
  (:mod:`repro.analysis.errlint`, from the AST).  :func:`repro.analysis.driver.run_lint`
  orchestrates them; the ``repro lint`` CLI verb is the entry point.
* **runtime** — an opt-in instrumented lock layer
  (:mod:`repro.analysis.runtime`) that records the per-thread lock-acquisition
  graph during tests and fails on cycles (lock-order deadlock detection), plus
  a seeded race-stress mode (``REPRO_ANALYSIS_RACE=1``).

The decorators below are the annotation convention the static half consumes;
they are runtime no-ops (attribute tags) so annotated hot paths pay nothing.
"""

from repro.analysis.annotations import (
    io_under_lock_ok,
    mutates_state,
    requires_write_lock,
)

__all__ = [
    "mutates_state",
    "requires_write_lock",
    "io_under_lock_ok",
]

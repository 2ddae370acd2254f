"""Op-table invariant checker (rule ``wal-lifecycle``).

Every service verb is declared once, as a row of the op table
(:mod:`repro.service.ops`); WAL emit, replay, shard routing and wire dispatch
are all derived from that row, so they cannot disagree.  What can still rot is
the row itself, and this checker proves each one is whole:

``apply``
    A row that names a WAL op has a replay function — its own, or (for a
    verb like ``bulk_commit`` that emits another verb's records) the row that
    owns that WAL op.
``routing``
    The row says how the sharded facades place the verb.
``codec``
    The row says how its arguments and result cross the wire.
``crash test``
    At least one crash-matrix / recovery test file mentions each durable WAL
    op by name.

The table is loaded from its module (the installed one, or a fixture file
defining ``OPS``), not scraped from the code that uses it.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path
from typing import Any, Iterable

from repro.analysis.report import Finding
from repro.service.ops import ADMIN, ANY, BROADCAST, OWNER, READ, REFERENT, SCATTER, WRITE

KINDS = frozenset({READ, WRITE, ADMIN})
ROUTINGS = frozenset({OWNER, REFERENT, BROADCAST, SCATTER, ANY})


def load_table(path: str | Path) -> dict[str, Any]:
    """The ``OPS`` mapping defined by the table module at *path*."""
    path = Path(path)
    spec = importlib.util.spec_from_file_location(f"_repro_lint_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.OPS


def check_op_table(
    rows: Iterable[Any], table_path: str | Path, test_paths: Iterable[Path]
) -> list[Finding]:
    """Prove every row of the table at *table_path* is whole.

    With no *test_paths* the crash-test column is not applicable (a fixture
    may model the table alone).
    """
    rows = list(rows)
    test_paths = list(test_paths)
    test_text = "\n".join(path.read_text(encoding="utf-8") for path in test_paths)
    replayable = {row.wal_op for row in rows if row.apply is not None}
    findings: list[Finding] = []

    def report(row: Any, message: str) -> None:
        findings.append(
            Finding(
                rule="wal-lifecycle",
                path=str(table_path),
                line=row.proto.__code__.co_firstlineno,
                message=f"op {row.name!r} {message}",
            )
        )

    for row in rows:
        if row.kind not in KINDS:
            report(row, f"has no kind (one of {sorted(KINDS)})")
        if row.routing not in ROUTINGS:
            report(row, f"has no shard routing (one of {sorted(ROUTINGS)})")
        if row.codec is None:
            report(row, "has no wire codec for its args and result")
        if row.wal_op is None:
            if row.apply is not None:
                report(row, "has an apply function but names no WAL op")
            continue
        if row.wal_op not in replayable:
            report(row, f"logs WAL op {row.wal_op!r} but no row has an apply function for it")
        if test_paths and row.wal_op not in test_text:
            names = ", ".join(sorted(path.name for path in test_paths))
            report(row, f"has no crash/recovery test mentioning {row.wal_op!r} in {names}")
    return findings

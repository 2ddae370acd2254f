"""Lint orchestration for ``repro lint``.

Two modes:

* **repo mode** (no targets) — lint the installed ``repro`` tree with the
  production configuration: lock rules over the serving layer (service,
  shard facade, replica, net) with decorator harvesting from the core /
  column / xmlstore / agraph modules they annotate; the rows of the op table
  (:mod:`repro.service.ops`) against the crash/recovery test files; the error
  taxonomy over the packages that own the typed error surface.
* **target mode** (explicit paths) — lint a directory or file set as a
  self-contained mini-tree: every ``.py`` is in scope for the lock and
  except rules, an ``ops*.py`` defining an ``OPS`` table (if present)
  switches on the op-table rule with the tree's ``*test*``/``*crash*`` files
  as its crash tests, and an ``errors*.py`` (if present) roots the taxonomy
  rule.  This is how the seeded fixtures under
  ``tests/fixtures/analysis/`` are checked.

In both modes ``# repro: allow-<rule>`` pragmas are collected from every
scoped file and applied; unknown-rule and unused pragmas surface as
``stale-pragma`` findings.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis import errlint, lockcheck, walcheck
from repro.analysis.report import Finding, Pragma, apply_pragmas, collect_pragmas


def _pkg_files(root: Path, *parts: str) -> list[Path]:
    directory = root.joinpath(*parts)
    if not directory.is_dir():
        return []
    return sorted(p for p in directory.glob("*.py") if p.name != "__init__.py")


def repo_layout() -> dict:
    """Production lint configuration derived from the installed package."""
    import repro

    src_root = Path(repro.__file__).parent
    repo_root = src_root.parent.parent  # src/repro -> repo checkout
    tests_dir = repo_root / "tests"
    bench_dir = repo_root / "benchmarks"

    service_files = _pkg_files(src_root, "service")
    shard_files = _pkg_files(src_root, "shard")
    replica_files = _pkg_files(src_root, "replica")
    net_files = _pkg_files(src_root, "net")

    annotation_files = [
        src_root / "core" / "manager.py",
        src_root / "core" / "columns.py",
        src_root / "xmlstore" / "collection.py",
        src_root / "agraph" / "multigraph.py",
    ]

    wal_test_files = []
    if tests_dir.is_dir():
        for pattern in ("test_*recovery*.py", "test_*crash*.py", "test_*wal*.py"):
            wal_test_files.extend(sorted(tests_dir.glob(pattern)))
    if bench_dir.is_dir():
        wal_test_files.extend(sorted(bench_dir.glob("*crash*.py")))

    return {
        "lock_analyze": service_files + shard_files + replica_files + net_files,
        "lock_annotations": [p for p in annotation_files if p.is_file()],
        "ops_path": src_root / "service" / "ops.py",
        "wal_test_paths": sorted(set(wal_test_files)),
        "raise_paths": service_files + shard_files + replica_files + net_files,
        "except_paths": (
            service_files
            + shard_files
            + replica_files
            + net_files
            + _pkg_files(src_root, "core")
        ),
        "errors_path": src_root / "errors.py",
    }


def _target_files(targets: list[str | Path]) -> list[Path]:
    files: list[Path] = []
    for target in targets:
        path = Path(target)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.is_file():
            files.append(path)
        else:
            raise FileNotFoundError(f"lint target does not exist: {path}")
    return files


def run_lint(targets: list[str | Path] | None = None) -> tuple[list[Finding], int]:
    """Run every applicable checker; returns ``(findings, suppressed_count)``."""
    raw: list[Finding] = []
    pragma_files: set[Path] = set()

    if targets:
        files = _target_files(targets)
        pragma_files.update(files)
        raw.extend(lockcheck.check_lock_discipline(files, []))
        raw.extend(errlint.check_silent_excepts(files))
        errors_files = [p for p in files if p.name.startswith("errors")]
        if errors_files:
            raise_scope = [p for p in files if p not in errors_files]
            raw.extend(errlint.check_raises(raise_scope, errors_files[0]))
        tests = [p for p in files if "test" in p.name or "crash" in p.name]
        for table in (p for p in files if p.name.startswith("ops")):
            rows = walcheck.load_table(table).values()
            raw.extend(walcheck.check_op_table(rows, table, tests))
    else:
        layout = repo_layout()
        raw.extend(
            lockcheck.check_lock_discipline(
                layout["lock_analyze"], layout["lock_annotations"]
            )
        )
        from repro.service import ops

        raw.extend(
            walcheck.check_op_table(
                ops.OPS.values(), layout["ops_path"], layout["wal_test_paths"]
            )
        )
        raw.extend(errlint.check_raises(layout["raise_paths"], layout["errors_path"]))
        raw.extend(errlint.check_silent_excepts(layout["except_paths"]))
        pragma_files.update(layout["lock_analyze"])
        pragma_files.update(layout["lock_annotations"])
        pragma_files.update(layout["except_paths"])
        pragma_files.add(layout["errors_path"])

    pragmas: list[Pragma] = []
    for path in sorted(pragma_files):
        pragmas.extend(collect_pragmas(path))
    kept, suppressed = apply_pragmas(raw, pragmas)
    return kept, len(suppressed)

"""Every module under ``src/repro`` is reached by the library or the CLI.

The ``import`` graph is walked with :mod:`ast` (nothing is executed) from
``repro`` and ``repro.cli``.  Importing ``a.b.c`` runs ``a`` and ``a.b`` too,
so each prefix of an imported name counts as reached, and an import inside
a function counts like one at the top.  A module nothing reaches must be
deleted or named in :data:`UNREACHED` with the reason it is kept.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
ROOTS = ("repro", "repro.cli")

#: Modules no import from the roots reaches, each with why it stays.
UNREACHED = {
    "repro.__main__": "entry point of `python -m repro` (and of spawned shard workers)",
    "repro.analysis.runtime": "race-mode switches read by tests/conftest.py and the race smoke",
    "repro.baselines": "package of the two references below",
    "repro.baselines.linear_scan": "reference the spatial index tests compare against",
    "repro.baselines.unindexed_multigraph": "reference the bench_adjacency_engine gate compares against",
    "repro.workloads.replication_scenario": "scenario benchmarks/bench_replication.py drives",
}


def source_modules(src: Path = SRC) -> dict[str, Path]:
    """Dotted module name -> file, for every ``.py`` file of the package."""
    modules = {}
    for path in (src / "repro").rglob("*.py"):
        parts = path.relative_to(src).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


def imported_names(name: str, path: Path) -> set[str]:
    """Every dotted name an import statement in *path* mentions (absolute)."""
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")[: len(package.split(".")) - node.level + 1]
                base = ".".join(anchor + [base] if base else anchor)
            names.add(base)
            # ``from pkg import sub`` imports the submodule when there is one.
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def reached_modules(modules: dict[str, Path], roots=ROOTS) -> set[str]:
    reached: set[str] = set()
    pending = list(roots)
    while pending:
        name = pending.pop()
        if name in reached or name not in modules:
            continue
        reached.add(name)
        for imported in imported_names(name, modules[name]):
            parts = imported.split(".")
            pending.extend(".".join(parts[:end]) for end in range(1, len(parts) + 1))
    return reached


def test_only_the_allow_listed_modules_are_unreached():
    modules = source_modules()
    unreached = set(modules) - reached_modules(modules)
    assert sorted(unreached) == sorted(UNREACHED)


def test_the_walk_follows_relative_and_function_level_imports(tmp_path):
    package = tmp_path / "repro"
    (package / "sub").mkdir(parents=True)
    (package / "__init__.py").write_text("from .sub import leaf\n", encoding="utf-8")
    (package / "cli.py").write_text("def main():\n    import repro.late\n", encoding="utf-8")
    (package / "late.py").write_text("", encoding="utf-8")
    (package / "orphan.py").write_text("import repro.sub.leaf\n", encoding="utf-8")
    (package / "sub" / "__init__.py").write_text("", encoding="utf-8")
    (package / "sub" / "leaf.py").write_text("from ..late import thing\n", encoding="utf-8")
    modules = source_modules(tmp_path)
    assert set(modules) - reached_modules(modules) == {"repro.orphan"}

"""Every ``def`` and ``class`` under ``src/repro`` is named somewhere else.

A name-based check, not a call graph: every identifier in every ``.py`` file
under ``src``, ``tests``, ``examples`` and ``benchmarks`` is counted, and a
definition whose name occurs only at its own definition sites is dead.  Any
other occurrence — a call, an attribute read, an import, a mention in a
string or a comment — counts as a use, so the check can miss dead code (a
name shared with a live one) but never reports live code as dead.  Dunder
methods are called by Python itself and are skipped.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SEARCHED = ("src", "tests", "examples", "benchmarks")
_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def dead_definitions(repo: Path = REPO) -> list[str]:
    """``path:line name`` for each definition under ``src/repro`` named nowhere else."""
    uses: Counter[str] = Counter()
    for directory in SEARCHED:
        for path in (repo / directory).rglob("*.py"):
            uses.update(_IDENTIFIER.findall(path.read_text(encoding="utf-8")))
    sites: dict[str, list[str]] = {}
    for path in sorted((repo / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                where = f"{path.relative_to(repo)}:{node.lineno}"
                sites.setdefault(node.name, []).append(where)
    return [
        f"{where} {name}"
        for name, wheres in sorted(sites.items())
        if not (name.startswith("__") and name.endswith("__")) and uses[name] <= len(wheres)
        for where in wheres
    ]


def test_no_definition_is_named_only_where_it_is_defined():
    assert dead_definitions() == []


def test_the_check_reports_an_unnamed_definition_and_nothing_named(tmp_path):
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(
        "class Used:\n"
        "    def __init__(self):\n"
        "        pass\n"
        "    def orphan(self):\n"
        "        return helper()\n"
        "def helper():\n"
        "    return 'mentioned_in_text'\n"
        "def mentioned_in_text():\n"
        "    pass\n",
        encoding="utf-8",
    )
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text("from repro.mod import Used\n", encoding="utf-8")
    assert dead_definitions(tmp_path) == ["src/repro/mod.py:4 orphan"]

"""Smoke tests that every bundled example script runs end to end.

The examples are the public-API walkthroughs; running their ``main()`` in
process ensures the documented workflows keep working as the library evolves.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"
EXAMPLE_NAMES = [
    "quickstart",
    "influenza_study",
    "neuroscience_study",
    "collaborative_review",
    "admin_dashboard",
    "genome_pipeline",
]


def _load(name: str):
    path = EXAMPLES_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", EXAMPLE_NAMES)
def test_example_runs(name, capsys):
    module = _load(name)
    assert hasattr(module, "main")
    module.main()
    out = capsys.readouterr().out
    assert out  # the example printed something


def test_all_examples_present():
    for name in EXAMPLE_NAMES:
        assert (EXAMPLES_DIR / f"{name}.py").exists()

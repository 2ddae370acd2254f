"""``connect`` and ``path`` against ``fixtures/agraph_golden.jsonl``.

The fixture holds 360 calls over the e2e FULL corpus after 300 seeded writes
and what each returned at 9c41433; ``fixtures/make_agraph_golden.py`` wrote
it and says which calls.  Every call must return exactly what it did then:
the same connection subgraph, edge for edge and path for path, and the same
one of several equally short paths.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
if str(REPO) not in sys.path:  # the e2e benchmark's corpus is the fixture
    sys.path.insert(0, str(REPO))

from tests.fixtures.make_agraph_golden import answer, build_instance  # noqa: E402

GOLDEN = Path(__file__).parent / "fixtures" / "agraph_golden.jsonl"


@pytest.fixture(scope="module")
def manager():
    return build_instance()


def test_every_call_returns_what_it_did(manager):
    rows = [json.loads(line) for line in GOLDEN.read_text(encoding="utf-8").splitlines()]
    assert {row["op"] for row in rows} == {"connect", "path"}
    for row in rows:
        call = {key: value for key, value in row.items() if key != "result"}
        assert answer(manager, call) == row["result"], call

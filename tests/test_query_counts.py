"""The planner's counts against the constraints' exact match sets.

The planner counts only when a query has more than one constraint, and an
INTERVAL or REGION count is a walk of the constraint's tree that the
executor then reuses.  Over the e2e benchmark's FULL corpus, ingested into a
bare :class:`~repro.Graphitti`, and the ``adhoc`` rows of
``fixtures/gql_golden.jsonl``:

* the step that runs first matches at most twice as many annotations as
  the query's most selective constraint;
* no query walks a spatial tree more often than it has spatial constraints;
* the ``not_any`` rows (INTERVAL, NOT { keyword }, ANY { two keywords })
  probe their NOT and ANY steps whenever the probe rule says so, with the
  pages the materializing evaluation gives.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
if str(REPO) not in sys.path:  # the e2e benchmark's corpus is the fixture
    sys.path.insert(0, str(REPO))

from benchmarks.e2e.corpus import FULL, Corpus  # noqa: E402
from benchmarks.e2e.driver import ingest  # noqa: E402
from repro import Graphitti  # noqa: E402
from repro.query.ast import NotConstraint, OrConstraint, OverlapConstraint, RegionConstraint  # noqa: E402
from repro.net.codec import encode_query_result  # noqa: E402
from repro.query import executor as executor_module  # noqa: E402
from repro.query.executor import PROBE_COST_FACTOR, QueryExecutor  # noqa: E402
from repro.query.parser import parse_query  # noqa: E402
from repro.spatial.interval_tree import IntervalIndexFamily  # noqa: E402
from repro.spatial.rtree import RTreeFamily  # noqa: E402

GOLDEN = Path(__file__).parent / "fixtures" / "gql_golden.jsonl"


@pytest.fixture(scope="module")
def manager():
    instance = Graphitti("counts")
    ingest(instance, Corpus(FULL))
    return instance


@pytest.fixture(scope="module")
def adhoc():
    rows = [json.loads(line) for line in GOLDEN.read_text(encoding="utf-8").splitlines()]
    return [parse_query(row["text"]) for row in rows if row["kind"] == "adhoc"]


def spatial_constraints(constraints) -> int:
    """INTERVAL and REGION constraints in *constraints*, nested ones too."""
    found = 0
    for constraint in constraints:
        if isinstance(constraint, (OverlapConstraint, RegionConstraint)):
            found += 1
        elif isinstance(constraint, OrConstraint):
            found += spatial_constraints(constraint.parts)
        elif isinstance(constraint, NotConstraint):
            found += spatial_constraints((constraint.inner,))
    return found


def test_the_first_step_matches_at_most_twice_the_smallest_constraint(manager, adhoc):
    executor = QueryExecutor(manager)
    multi = [query for query in adhoc if len(query.constraints) > 1]
    assert len(multi) >= 40
    for query in multi:
        sizes = {
            constraint.describe(): len(executor._evaluate(constraint))  # noqa: SLF001 - exact set
            for constraint in query.constraints
        }
        first = manager.query(query).step_details[0]["label"]
        assert sizes[first] <= 2 * min(sizes.values()), (query.describe(), sizes)


def test_each_spatial_constraint_walks_its_tree_at_most_once(manager, adhoc, monkeypatch):
    walks = []
    for family in (IntervalIndexFamily, RTreeFamily):
        search = family.search_overlap

        def counted(self, key, query, stop=None, search=search):
            walks.append(key)
            return search(self, key, query, stop)

        monkeypatch.setattr(family, "search_overlap", counted)
    for query in adhoc:
        walks.clear()
        manager.query(query)
        assert len(walks) <= spatial_constraints(query.constraints), query.describe()


def page(result) -> dict:
    payload = encode_query_result(result)
    payload.pop("step_details")
    return payload


def test_not_and_any_steps_probe_the_survivors(manager, adhoc, monkeypatch):
    rows = [
        query for query in adhoc
        if [type(constraint) for constraint in query.constraints]
        == [OverlapConstraint, NotConstraint, OrConstraint]
    ]
    assert len(rows) >= 15
    results = [manager.query(query) for query in rows]
    probed = {"NOT": 0, "ANY": 0}
    for result in results:
        survivors = None
        for detail in result.step_details:
            label = detail["label"][:3]
            if survivors is not None and label in probed:
                expected = detail["estimated"] is None or (
                    survivors * PROBE_COST_FACTOR < detail["estimated"]
                )
                assert detail["mode"] == ("probe" if expected else "materialize"), detail
                probed[label] += detail["mode"] == "probe"
            survivors = detail["survivors"]
    assert probed["NOT"] >= 10 and probed["ANY"] >= 1, probed
    # The same plans with OR and NOT materialized, as before they probed.
    monkeypatch.setattr(executor_module, "_probeable", lambda constraint: isinstance(
        constraint, executor_module._PROBEABLE  # noqa: SLF001 - the leaf rule alone
    ))
    for query, result in zip(rows, results):
        materialized = manager.query(query)
        assert all(
            detail["mode"] == "materialize"
            for detail in materialized.step_details
            if detail["label"][:3] in probed
        )
        assert page(materialized) == page(result), query.describe()

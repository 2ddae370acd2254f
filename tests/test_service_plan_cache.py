"""Service-level guarantees for stats-driven plans and the result cache.

The result cache is keyed by the caller's text and tagged with the
mutation epoch; every mutation empties it, so a text is parsed and planned
once per epoch.  These tests prove the service can never serve a result
that was produced under a different plan for the same query, even as live
statistics shift the cost-based planner's chosen order.
"""

import pytest

from repro import Graphitti
from repro.datatypes import DnaSequence
from repro.service import GraphittiService, ServiceConfig

QUERY = (
    'SELECT contents WHERE { CONTENT CONTAINS "shared" '
    "INTERVAL OVERLAPS chr1 [0, 50] }"
)


def _manager() -> Graphitti:
    manager = Graphitti("plan-cache")
    manager.register(DnaSequence("seq1", "ACGT" * 500, domain="chr1"))
    return manager


def _commit(service, annotation_id: str, keywords, start: float, end: float) -> None:
    service.commit(
        service.new_annotation(annotation_id, keywords=list(keywords)).mark_sequence(
            "seq1", start, end
        )
    )


@pytest.fixture
def service():
    svc = GraphittiService(manager=_manager())
    yield svc
    svc.close()


def test_plan_memo_replans_after_mutation(service):
    # Stage 1: "shared" is rare, the window is broad -> keyword first.
    _commit(service, "a0", ["shared"], 0, 40)
    for index in range(30):
        _commit(service, f"bulk-{index}", ["filler"], 100 + index * 30, 120 + index * 30)
    first = service.query(QUERY)
    first_fingerprint = first.plan_fingerprint
    # Stage 2: flood the corpus with "shared" annotations far from the
    # window, so the interval becomes the selective constraint.
    for index in range(60):
        _commit(service, f"shared-{index}", ["shared"], 600 + index * 10, 620 + index * 10)
    second = service.query(QUERY)
    assert second is not first
    # The stats-driven re-plan chose a different order -> different
    # fingerprint -> different cache key; the old entry cannot be served.
    assert second.plan_fingerprint != first_fingerprint
    assert second.annotation_ids == ["a0"]


def test_cached_result_always_matches_current_plan(service):
    _commit(service, "a0", ["shared"], 0, 40)
    warm = service.query(QUERY)
    hit = service.query(QUERY)
    # Same epoch, same plan -> cache hit (served as an equal, independent copy).
    assert hit.to_dict() == warm.to_dict()
    assert service.statistics()["service"]["query_cache"]["hits"] >= 1
    assert hit.plan_fingerprint == warm.plan_fingerprint
    _commit(service, "a1", ["shared"], 10, 30)
    fresh = service.query(QUERY)
    assert fresh is not warm  # epoch bumped -> the stale entry cannot serve
    assert set(fresh.annotation_ids) == {"a0", "a1"}


def test_query_object_and_text_agree_on_fingerprint(service):
    from repro.query.parser import parse_query

    _commit(service, "a0", ["shared"], 0, 40)
    by_text = service.query(QUERY)
    by_object = service.query(parse_query(QUERY))
    assert by_text.plan_fingerprint == by_object.plan_fingerprint
    assert by_text.annotation_ids == by_object.annotation_ids


def test_results_identical_across_epochs_and_orders(service, plan_order_invariant):
    """Whatever order the planner picks, the answers match the reference."""
    from repro.query.parser import parse_query

    _commit(service, "a0", ["shared"], 0, 40)
    for index in range(40):
        _commit(service, f"shared-{index}", ["shared"], 600 + index * 10, 610 + index * 10)
    served = service.query(QUERY)
    reference = plan_order_invariant(service.manager, parse_query(QUERY))
    assert served.annotation_ids == reference.annotation_ids


def test_explain_shows_the_plan_query_runs(service):
    """explain() reports the order and estimates query() executes with."""
    _commit(service, "a0", ["shared"], 0, 40)
    for index in range(30):
        _commit(service, f"bulk-{index}", ["filler"], 100 + index * 30, 120 + index * 30)
    explanation = service.explain(QUERY)
    result = service.query(QUERY)
    steps = sorted(result.step_details, key=lambda detail: detail["position"])
    assert [(d["label"], d["estimated"]) for d in steps] == explanation["estimated_rows"]
    assert result.annotation_ids == ["a0"]


def test_cache_capacity_zero_replans_every_time(monkeypatch):
    from repro.service import service as service_module

    parses = []
    parse = service_module.parse_query

    def counted_parse(text):
        parses.append(text)
        return parse(text)

    monkeypatch.setattr(service_module, "parse_query", counted_parse)
    service = GraphittiService(manager=_manager(), config=ServiceConfig(cache_capacity=0))
    try:
        _commit(service, "a0", ["shared"], 0, 40)
        first = service.query(QUERY)
        second = service.query(QUERY)
        assert first.annotation_ids == second.annotation_ids == ["a0"]
        assert parses == [QUERY, QUERY]
        assert service.statistics()["service"]["query_cache"]["entries"] == 0
    finally:
        service.close()

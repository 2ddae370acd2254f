"""Tests for the cost-based adaptive query pipeline.

Plan-order invariance (every permutation of a plan agrees with a
planner-free reference, including NOT / OR nesting), semi-join probe
behaviour, estimated-vs-actual reporting, and the sweep-based
type-extension pairing against its quadratic baseline.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import Graphitti
from repro.core.annotation import Referent
from repro.datatypes.base import DataType, SubstructureRef
from repro.query.ast import KeywordConstraint, OverlapConstraint, TypeConstraint
from repro.query.builder import QueryBuilder
from repro.query.executor import _overlapping_pairs
from repro.spatial.interval import Interval
from repro.spatial.operators import if_overlap, intersect
from repro.spatial.rect import Rect
from repro.workloads.generators import WorkloadConfig, generate_annotation_workload


@pytest.fixture(scope="module")
def workload():
    manager = Graphitti("adaptive-wl")
    generate_annotation_workload(
        manager,
        WorkloadConfig(seed=6, sequence_count=15, annotation_count=600, image_count=4, regions_per_image=25),
    )
    return manager


def _queries():
    return [
        QueryBuilder.contents().contains("epitope").build(),
        QueryBuilder.contents().of_type("dna_sequence").contains("epitope").build(),
        QueryBuilder.contents()
        .contains("binding")
        .overlaps_interval("genome:chrX", 500, 2500)
        .of_type("dna_sequence")
        .build(),
        QueryBuilder.contents()
        .overlaps_region("atlas:25um", (10, 10), (60, 60))
        .of_type("image")
        .build(),
        QueryBuilder.contents()
        .contains("mutation")
        .exclude(KeywordConstraint(keyword="conserved"))
        .build(),
        QueryBuilder.contents()
        .any_of(
            KeywordConstraint(keyword="kinase"),
            OverlapConstraint(domain="genome:chrX", start=100, end=900),
        )
        .of_type("dna_sequence")
        .build(),
        # Nested NOT(OR(...)) over mixed targets.
        QueryBuilder.contents()
        .contains("protease", mode="or")
        .exclude(TypeConstraint(data_type="image"))
        .build(),
        QueryBuilder.referents().contains("cleavage").of_type("dna_sequence").build(),
        QueryBuilder.graph().overlaps_interval("genome:chrX", 0, 1500).contains("domain").build(),
    ]


@pytest.mark.parametrize("index", range(len(_queries())))
def test_plan_order_invariance(workload, index, plan_order_invariant):
    """Every constraint order produces the planner-free reference's pages,
    and so does the planned query."""
    query = _queries()[index]
    reference = plan_order_invariant(workload, query)
    result = workload.query(query)
    assert result.annotation_ids == reference.annotation_ids
    assert result.count == reference.count


def test_adaptive_uses_probe_for_broad_constraints(workload):
    query = (
        QueryBuilder.contents()
        .contains("epitope")  # broad-ish
        .overlaps_interval("genome:chrX", 100, 250)  # tiny window
        .of_type("dna_sequence")  # very broad
        .build()
    )
    result = workload.query(query)
    modes = {detail["label"]: detail["mode"] for detail in result.step_details}
    assert modes["interval OVERLAPS genome:chrX[100,250] (>= 1)"] == "materialize"
    assert modes["type dna_sequence"] == "probe"
    # Every step carries its estimate.
    assert all(detail["estimated"] is not None for detail in result.step_details)


def test_probe_matches_materialized_semantics(workload):
    """Force both paths over the same constraint set and compare."""
    from repro.query.executor import QueryExecutor

    executor = QueryExecutor(workload)
    candidate_ids = {a.annotation_id for a in workload.annotations()}
    for constraint in (
        KeywordConstraint(keyword="epitope"),
        KeywordConstraint(keyword="epitope domain", mode="or"),
        OverlapConstraint(domain="genome:chrX", start=200, end=1200),
        TypeConstraint(data_type="image"),
    ):
        materialized = executor._evaluate(constraint) & candidate_ids
        probed = executor._probe(constraint, sorted(candidate_ids))
        assert probed == materialized, constraint.describe()


def test_ontology_probe_sees_shared_referent_terms():
    """Regression: a term linked through ANOTHER annotation's copy of a
    shared referent must still match in probe mode (referent nodes are
    shared by ref key, so the a-graph edge exists for both annotations)."""
    from repro.datatypes import DnaSequence
    from repro.query.ast import OntologyConstraint
    from repro.query.executor import QueryExecutor

    manager = Graphitti("shared-ref")
    manager.register(DnaSequence("seq1", "ACGT" * 100, domain="chr1"))
    # Same extent -> same referent id -> one shared referent node.
    manager.new_annotation("a", keywords=["x"]).mark_sequence("seq1", 10, 20).commit()
    (
        manager.new_annotation("b", keywords=["x"])
        .mark_sequence("seq1", 10, 20, ontology_terms=["term:T"])
        .commit()
    )
    executor = QueryExecutor(manager)
    constraint = OntologyConstraint(term="term:T")
    materialized = executor._evaluate(constraint)
    assert materialized == {"a", "b"}
    assert executor._probe(constraint, ["a", "b"]) == materialized


def test_probe_region_matches_materialized(workload):
    from repro.query.ast import RegionConstraint
    from repro.query.executor import QueryExecutor

    executor = QueryExecutor(workload)
    candidate_ids = {a.annotation_id for a in workload.annotations()}
    constraint = RegionConstraint(space="atlas:25um", lo=(20, 20), hi=(70, 70))
    materialized = executor._evaluate(constraint) & candidate_ids
    probed = executor._probe(constraint, sorted(candidate_ids))
    assert probed == materialized


def test_min_count_respected_in_probe_mode(workload, plan_order_invariant):
    query = (
        QueryBuilder.contents()
        .contains("epitope")
        .overlaps_interval("genome:chrX", 0, 30000, min_count=2)
        .build()
    )
    reference = plan_order_invariant(workload, query)
    assert workload.query(query).annotation_ids == reference.annotation_ids


def test_explain_shows_estimated_and_actual(workload):
    query = QueryBuilder.contents().contains("epitope").of_type("dna_sequence").build()
    from repro.query.executor import QueryExecutor
    from repro.query.planner import QueryPlanner

    plan = QueryPlanner(workload).plan(query)
    assert "est~" in plan.explain()
    assert "act=" not in plan.explain()
    result = QueryExecutor(workload).execute_plan(plan)
    explained = plan.explain(result.actual_rows())
    assert "act=" in explained
    # Executing a plan leaves it unchanged: actuals live on the result.
    assert "act=" not in plan.explain()


def test_plan_order_reflects_the_counts(workload):
    """The same GQL under different statistics runs in a different order."""
    from repro.query.parser import parse_query
    from repro.query.planner import QueryPlanner

    text = (
        'SELECT contents WHERE { CONTENT CONTAINS "epitope" '
        "INTERVAL OVERLAPS genome:chrX [100, 250] TYPE dna_sequence }"
    )
    counted_plan = QueryPlanner(workload).plan(parse_query(text))
    empty = Graphitti("adaptive-empty")
    empty_plan = QueryPlanner(empty).plan(parse_query(text))
    orders = [c.describe() for c in counted_plan.ordered_constraints]
    empty_orders = [c.describe() for c in empty_plan.ordered_constraints]
    # The workload's counts pull the tiny interval window ahead of the
    # keyword; on the empty instance every count is 0 and the keyword,
    # declared first, leads.
    assert orders[0].startswith("interval")
    assert empty_plan.estimated_rows == [0, 0, 0]
    assert empty_orders[0].startswith("content")
    # Same manager, same counts -> the same order.
    again = QueryPlanner(workload).plan(parse_query(text))
    assert [c.describe() for c in again.ordered_constraints] == orders


def test_small_corpus_plans_by_cost(workload):
    """There is no small-corpus fallback: a 600-annotation corpus is
    counted like any other when there is a choice, and not counted when
    there is none."""
    from repro.query.executor import QueryExecutor

    executor = QueryExecutor(workload)
    alone = executor.execute(QueryBuilder.contents().contains("epitope").build())
    assert [detail["estimated"] for detail in alone.step_details] == [None]
    paired = executor.execute(
        QueryBuilder.contents().of_type("dna_sequence").contains("epitope").build()
    )
    assert [(detail["label"], detail["estimated"]) for detail in paired.step_details] == [
        ("content CONTAINS 'epitope'", workload.contents.keyword_document_frequency("epitope")),
        ("type dna_sequence", workload.stats_catalogue.type_count("dna_sequence")),
    ]


# -- sweep-based type extension vs. the quadratic baseline ---------------------


def _quadratic_pairs(referents):
    """The original O(n^2) all-pairs loop, kept as the test oracle."""
    pairs = []
    for position, left in enumerate(referents):
        for right in referents[position + 1:]:
            if left.ref.object_id != right.ref.object_id:
                continue
            left_extent = left.ref.interval or left.ref.rect
            right_extent = right.ref.interval or right.ref.rect
            if left_extent is None or right_extent is None:
                continue
            if if_overlap(left_extent, right_extent) and intersect(left_extent, right_extent) is not None:
                pairs.append((left, right))
    return pairs


def _make_referents(spec):
    referents = []
    for index, (object_index, kind, a, b) in enumerate(spec):
        object_id = f"obj{object_index}"
        if kind == 0:
            ref = SubstructureRef(
                object_id=object_id,
                data_type=DataType.DNA,
                interval=Interval(a, a + b, domain=f"dom{object_index}"),
            )
        else:
            ref = SubstructureRef(
                object_id=object_id,
                data_type=DataType.IMAGE,
                rect=Rect((a, a), (a + b, a + b), space=f"space{object_index}"),
            )
        referents.append(Referent(ref=ref, referent_id=f"r{index}"))
    return referents


@settings(max_examples=60, deadline=None)
@given(
    spec=st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 1), st.integers(0, 50), st.integers(0, 15)),
        min_size=0,
        max_size=40,
    )
)
def test_sweep_pairs_match_quadratic_baseline(spec):
    referents = _make_referents(spec)
    swept = [
        (left.referent_id, right.referent_id) for left, right in _overlapping_pairs(referents)
    ]
    quadratic = [
        (left.referent_id, right.referent_id) for left, right in _quadratic_pairs(referents)
    ]
    assert swept == quadratic


def test_type_extension_results_unchanged(workload, plan_order_invariant):
    """End-to-end: GRAPH results carry the reference's type extensions."""
    query = QueryBuilder.graph().overlaps_interval("genome:chrX", 0, 2000).build()
    reference = [s.to_dict() for s in plan_order_invariant(workload, query).subgraphs]
    assert [s.to_dict() for s in workload.query(query).subgraphs] == reference

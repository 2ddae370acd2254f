"""Shared pytest fixtures for the Graphitti test suite."""

import itertools
import random
import sys

import pytest

from repro.analysis.runtime import RACE_SWITCH_INTERVAL, race_enabled


def pytest_configure(config):
    # Seeded race-stress mode (REPRO_ANALYSIS_RACE=1): shrink the interpreter
    # switch interval for the whole run so thread interleavings are maximally
    # hostile; the race tests additionally barrier-align their thread starts
    # and scale up their iteration counts (see repro.analysis.runtime).
    if race_enabled():
        sys.setswitchinterval(RACE_SWITCH_INTERVAL)

from repro import Graphitti
from repro.datatypes import DnaSequence, Image, ProteinSequence
from repro.ontology import build_brain_region_ontology, build_protein_ontology
from repro.query.executor import QueryExecutor
from repro.query.planner import QueryPlan, QueryPlanner
from repro.query.result import QueryResult
from repro.workloads import build_influenza_instance, build_neuroscience_instance
from repro.workloads.generators import WorkloadConfig, generate_annotation_workload


@pytest.fixture
def rng():
    """A deterministic RNG."""
    return random.Random(20240617)


@pytest.fixture
def empty_graphitti():
    """A Graphitti instance with the two built-in ontologies registered."""
    graphitti = Graphitti("test")
    graphitti.register_ontology(build_protein_ontology())
    graphitti.register_ontology(build_brain_region_ontology())
    return graphitti


@pytest.fixture
def small_graphitti(empty_graphitti):
    """A Graphitti instance with a sequence, an image and two annotations."""
    graphitti = empty_graphitti
    graphitti.register(DnaSequence("seq1", "ACGT" * 50, domain="chr1"))
    graphitti.register(ProteinSequence("prot1", "ACDEFGHIKLMNPQRSTVWY" * 5, domain="prot1:dom"))
    graphitti.register(Image("img1", dimension=2, space="atlas:25um", size=(100, 100)))
    (
        graphitti.new_annotation("a1", keywords=["protease"], body="a protease site")
        .mark_sequence("seq1", 10, 40, ontology_terms=["protein:protease"])
        .mark_region("img1", (10, 10), (40, 40), ontology_terms=["Deep Cerebellar nuclei"])
        .commit()
    )
    (
        graphitti.new_annotation("a2", keywords=["kinase"], body="a kinase site")
        .mark_sequence("seq1", 10, 40)
        .commit()
    )
    return graphitti


@pytest.fixture
def influenza():
    """The Fig. 1 influenza study instance."""
    return build_influenza_instance()


@pytest.fixture
def neuroscience():
    """The Fig. 3 neuroscience study instance."""
    return build_neuroscience_instance()


@pytest.fixture
def workload_graphitti():
    """A Graphitti instance populated with a small synthetic workload."""
    graphitti = Graphitti("workload")
    config = WorkloadConfig(seed=42, sequence_count=8, annotation_count=60, image_count=3)
    summary = generate_annotation_workload(graphitti, config)
    return graphitti, summary


def _reference_result(manager, query) -> QueryResult:
    """Planner-free reference: the declaration-order intersection of every
    constraint's materialized match set, then collated."""
    executor = QueryExecutor(manager)
    candidates = None
    for constraint in query.constraints:
        matched = executor._evaluate(constraint)  # noqa: SLF001 - the reference
        candidates = matched if candidates is None else candidates & matched
    surviving = sorted(manager.annotation_ids() if candidates is None else candidates)
    result = QueryResult(return_kind=query.return_kind)
    executor._collate(query, surviving, result)  # noqa: SLF001 - the reference
    return result


def _pages(result: QueryResult) -> tuple:
    return (
        result.annotation_ids,
        [referent.referent_id for referent in result.referents],
        [subgraph.to_dict() for subgraph in result.subgraphs],
    )


def check_plan_order_invariance(manager, query) -> QueryResult:
    """Run every permutation of *query*'s plan (counts and walked match sets
    permuted alongside) through ``execute_plan`` and require each to match
    the planner-free reference; returns the reference."""
    reference = _reference_result(manager, query)
    plan = QueryPlanner(manager).plan(query)
    executor = QueryExecutor(manager)
    matches = plan.matches or [None] * len(plan.ordered_constraints)
    steps = list(zip(plan.ordered_constraints, plan.estimated_rows, matches))
    for order in itertools.permutations(steps):
        permuted = QueryPlan(
            query=query,
            ordered_constraints=[constraint for constraint, _, _ in order],
            estimated_rows=[count for _, count, _ in order],
            groups=plan.groups,
            matches=[matched for _, _, matched in order],
        )
        assert _pages(executor.execute_plan(permuted)) == _pages(reference), [
            constraint.describe() for constraint, _, _ in order
        ]
    return reference


@pytest.fixture
def plan_order_invariant():
    """:func:`check_plan_order_invariance`, for tests to call."""
    return check_plan_order_invariance

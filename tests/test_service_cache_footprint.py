"""A write drops the cached pages it can reach, and only those.

The service's result cache stores each page with a dependency on its plan's
first step and drops it when a write's footprint (:mod:`repro.core.footprint`) reaches
that step.  The footprint holds the written annotation and every annotation
sharing a referent with it, before and after the write; the first three
tests fail when the sharers are left out.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.annotation import Referent
from repro.core.manager import Graphitti
from repro.datatypes.image import Image
from repro.datatypes.sequence import DnaSequence
from repro.net.codec import encode_query_result
from repro.ontology.model import IS_A, Ontology
from repro.query.ast import (
    KeywordConstraint,
    OntologyConstraint,
    OrConstraint,
    OverlapConstraint,
    Query,
    RegionConstraint,
    ReturnKind,
    TypeConstraint,
)
from repro.query.executor import QueryExecutor
from repro.query.planner import QueryPlan
from repro.service import GraphittiService, ServiceConfig
from repro.service.cache import QueryResultCache, page_dependency

BETA_CONTENTS = 'SELECT contents WHERE { CONTENT CONTAINS "beta" }'
BETA_REFERENTS = 'SELECT referents WHERE { CONTENT CONTAINS "beta" }'
ALPHA_T1 = 'SELECT contents WHERE { CONTENT CONTAINS "alpha" REFERENT REFERS "T1" }'


def _ontology() -> Ontology:
    ontology = Ontology("onto")
    ontology.add_concept("T0", "root")
    for term in ("T1", "T2"):
        ontology.add_concept(term, term.lower())
        ontology.add_relation(term, IS_A, "T0")
    return ontology


def _populate(target) -> None:
    """A on the shared extent seq[10, 20]; B on it too; D1, D2 carry T1."""
    target.register_ontology(_ontology())
    target.register(DnaSequence("seq", "ACGT" * 100, domain="d:chr1"))
    target.new_annotation("A", keywords=["alpha"]).mark_sequence("seq", 10, 20).commit()
    target.new_annotation("B", keywords=["beta"]).mark_sequence("seq", 10, 20).commit()
    for name, start in (("D1", 200), ("D2", 240)):
        target.new_annotation(name, keywords=["delta"]).mark_sequence(
            "seq", start, start + 10, ontology_terms=["T1"]
        ).commit()


@pytest.fixture
def pair():
    service = GraphittiService(manager=Graphitti("served"))
    bare = Graphitti("bare")
    for target in (service, bare):
        _populate(target)
    yield service, bare
    service.close()


def page(result) -> dict:
    payload = encode_query_result(result)
    payload.pop("step_details")
    return payload


def hits(service) -> int:
    return service.statistics()["service"]["query_cache"]["hits"]


def both(pair, write) -> None:
    for target in pair:
        write(target)


def served_fresh(pair, text: str) -> bool:
    service, bare = pair
    return page(service.query(text)) == page(bare.query(text))


def test_moving_a_shared_referent_drops_the_sharers_pages(pair):
    service, bare = pair
    shared = service.annotation("A").referents[0].referent_id
    assert service.annotation("B").referents[0].referent_id == shared
    for text in (BETA_CONTENTS, BETA_REFERENTS):
        service.query(text)
    assert service.query(BETA_CONTENTS).annotation_ids == ["B"]
    before = hits(service)
    both(pair, lambda target: target.update_annotation(
        "A", {"move_referents": {shared: {"start": 30, "end": 45}}}
    ))
    for text in (BETA_CONTENTS, BETA_REFERENTS):
        assert served_fresh(pair, text)
    assert hits(service) == before  # both pages were made again


def test_a_term_on_a_shared_referent_brings_the_sharer_into_a_cached_page(pair):
    service, _ = pair
    assert service.query(ALPHA_T1).annotation_ids == []
    assert service.query(ALPHA_T1).step_details[0]["label"] == "content CONTAINS 'alpha'"
    both(pair, lambda target: target.new_annotation("C", keywords=["gamma"]).mark_sequence(
        "seq", 10, 20, ontology_terms=["T1"]
    ).commit())
    assert service.query(ALPHA_T1).annotation_ids == ["A"]
    assert served_fresh(pair, ALPHA_T1)


def test_deleting_that_commit_takes_the_sharer_out_again(pair):
    service, _ = pair
    both(pair, lambda target: target.new_annotation("C", keywords=["gamma"]).mark_sequence(
        "seq", 10, 20, ontology_terms=["T1"]
    ).commit())
    assert service.query(ALPHA_T1).annotation_ids == ["A"]
    both(pair, lambda target: target.delete_annotation("C"))
    assert service.query(ALPHA_T1).annotation_ids == []
    assert served_fresh(pair, ALPHA_T1)


def test_a_write_that_misses_a_page_leaves_it_served(pair):
    service, _ = pair
    service.query(BETA_CONTENTS)
    before = service.statistics()["service"]["query_cache"]
    both(pair, lambda target: target.new_annotation("Z", keywords=["zeta"]).mark_sequence(
        "seq", 300, 310
    ).commit())
    both(pair, lambda target: target.update_annotation("D1", {"title": "renamed"}))
    assert served_fresh(pair, BETA_CONTENTS)
    after = service.statistics()["service"]["query_cache"]
    assert after["hits"] == before["hits"] + 1
    assert after["kept"] >= before["kept"] + 2
    assert after["invalidations"] == before["invalidations"]


def test_a_write_without_a_footprint_drops_every_page(pair):
    service, _ = pair
    service.query(BETA_CONTENTS)
    both(pair, lambda target: target.register(DnaSequence("other", "ACGT", domain="d:chr2")))
    assert service.statistics()["service"]["query_cache"]["entries"] == 0
    assert served_fresh(pair, BETA_CONTENTS)


def test_a_closed_service_keeps_no_pages(pair):
    service, _ = pair
    service.query(BETA_CONTENTS)
    service.close()
    assert len(service._cache) == 0  # noqa: SLF001 - what a closed service pins


def test_a_manager_records_no_footprint_after_its_last_service_closes():
    manager = Graphitti("long-lived")
    _populate(manager)
    assert manager.footprint_sinks == ()  # a bare instance records nothing
    first = GraphittiService(manager=manager)
    second = GraphittiService(manager=manager)
    first.close()
    assert manager.footprint_sinks == (second._cache.invalidate,)  # noqa: SLF001
    # The edit misses the "delta" page, which a write without a footprint
    # would have dropped.
    second.query('SELECT contents WHERE { CONTENT CONTAINS "delta" }')
    manager.update_annotation("A", {"title": "still read by the second"})
    assert second.statistics()["service"]["query_cache"]["kept"] == 1
    second.close()
    assert manager.footprint_sinks == ()
    manager.update_annotation("A", {"title": "read by nobody"})
    assert manager.footprint_sinks == ()
    GraphittiService(manager=manager, config=ServiceConfig(cache_capacity=0)).close()
    assert manager.footprint_sinks == ()  # an uncached service attaches no sink


# -- the footprint test holds whenever the probe's answer can change ------------

SITES = [(0, 10), (5, 25), (40, 60), (100, 130)]
BOXES = [((0.0, 0.0), (10.0, 10.0)), ((5.0, 5.0), (30.0, 30.0)), ((50.0, 50.0), (70.0, 70.0))]
WORDS = ["alpha", "beta", "gamma"]
TERMS = ["T0", "T1", "T2"]


def _instance() -> Graphitti:
    manager = Graphitti("probe")
    manager.register_ontology(_ontology())
    manager.register(DnaSequence("seq", "ACGT" * 100, domain="d:chr1"))
    manager.register(Image("img", dimension=2, space="atlas"))
    return manager


_SEQ_MARKS = st.tuples(st.sampled_from(SITES), st.lists(st.sampled_from(TERMS), max_size=1))
_BOX_MARKS = st.tuples(st.sampled_from(BOXES), st.lists(st.sampled_from(TERMS), max_size=1))
_SPEC = st.fixed_dictionaries(
    {
        "keywords": st.lists(st.sampled_from(WORDS), min_size=1, max_size=2, unique=True),
        "terms": st.lists(st.sampled_from(TERMS), max_size=1),
        "seq": st.lists(_SEQ_MARKS, min_size=1, max_size=2),
        "boxes": st.lists(_BOX_MARKS, max_size=1),
    }
)


def _commit(target, name: str, spec: dict) -> None:
    builder = target.new_annotation(name, keywords=spec["keywords"])
    if spec["terms"]:
        builder.refer_ontology(*spec["terms"])
    for (start, end), terms in spec["seq"]:
        builder.mark_sequence("seq", start, end, ontology_terms=terms)
    for (lo, hi), terms in spec["boxes"]:
        builder.mark_region("img", lo, hi, ontology_terms=terms)
    try:
        builder.commit()
    except Exception:  # a repeated extent in one annotation, say
        pass


_LEAVES = st.one_of(
    st.builds(KeywordConstraint, st.sampled_from(WORDS + ["alpha beta", "seq"]),
              st.sampled_from(["and", "or"])),
    st.builds(OntologyConstraint, st.sampled_from(TERMS), st.none(), st.booleans()),
    st.builds(lambda span, count: OverlapConstraint("d:chr1", *span, count),
              st.sampled_from([(0, 4), (12, 18), (26, 39), (50, 200)]), st.integers(1, 2)),
    st.builds(lambda box, count: RegionConstraint("atlas", *box, count),
              st.sampled_from([((0.0, 0.0), (4.0, 4.0)), ((20.0, 20.0), (60.0, 60.0))]),
              st.integers(1, 2)),
    st.builds(TypeConstraint, st.sampled_from(["dna", "DNA", "image"])),
)
_CONSTRAINTS = _LEAVES | st.lists(_LEAVES, min_size=2, max_size=3).map(
    lambda parts: OrConstraint(tuple(parts))
)
_WRITES = st.one_of(
    st.tuples(st.just("commit"), _SPEC),
    st.tuples(st.just("update"), st.fixed_dictionaries({"title": st.sampled_from(WORDS)})),
    st.tuples(st.just("update"), st.fixed_dictionaries(
        {"keywords": st.lists(st.sampled_from(WORDS), min_size=1, max_size=2)})),
    st.tuples(st.just("update"), st.fixed_dictionaries(
        {"ontology_terms": st.lists(st.sampled_from(TERMS), max_size=2)})),
    st.tuples(st.just("move"), st.sampled_from(SITES)),
    # Sharers enter (a term on a site others may mark) and leave.
    st.tuples(st.just("add"), st.tuples(st.sampled_from(SITES), st.sampled_from(TERMS))),
    st.tuples(st.just("remove"), st.integers(0, 3)),
    st.tuples(st.just("delete"), st.none()),
)


def _states(manager) -> dict[str, tuple]:
    """What a page renders of each annotation, and what its probes read."""
    return {
        annotation_id: (
            manager.contents.export_xml(annotation_id),
            sorted(manager.agraph.ontology_terms_of(annotation_id)),
            sorted(
                term
                for referent_id in manager.agraph.referents_of(annotation_id)
                for term in manager.agraph.ontology_terms_of(referent_id)
            ),
        )
        for annotation_id in manager.annotation_ids()
    }


def _apply(manager, write, target_id: str) -> None:
    kind, payload = write
    if kind == "commit":
        _commit(manager, "new", payload)
    elif kind == "update":
        manager.update_annotation(target_id, payload)
    elif kind == "move":
        referent = manager.annotation(target_id).referents[0]
        if referent.ref.interval is not None:
            start, end = payload
            manager.update_annotation(
                target_id, {"move_referents": {referent.referent_id: {"start": start, "end": end}}}
            )
    elif kind == "add":
        (start, end), term = payload
        added = Referent(manager.data_object("seq").mark(start, end), ontology_terms=[term])
        manager.update_annotation(target_id, {"add_referents": [added]})
    elif kind == "remove":
        referents = manager.annotation(target_id).referents
        if referents:
            doomed = referents[payload % len(referents)].referent_id
            manager.update_annotation(target_id, {"remove_referents": [doomed]})
    else:
        manager.delete_annotation(target_id)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(_SPEC, min_size=1, max_size=4), _WRITES, st.integers(0, 3), _CONSTRAINTS)
def test_the_footprint_reaches_every_anchor_whose_probe_can_change(specs, write, pick, constraint):
    """Property: whenever a write changes which annotations an anchor's probe
    accepts, or how an accepted one renders, its footprint reaches the anchor."""
    manager = _instance()
    for position, spec in enumerate(specs):
        _commit(manager, f"a{position}", spec)
    ids = manager.annotation_ids()
    if not ids:
        return
    target_id = ids[pick % len(ids)]
    cache = QueryResultCache(4)
    manager.attach_footprints(cache.invalidate)
    executor = QueryExecutor(manager)

    plan = QueryPlan(Query(ReturnKind.CONTENTS, [constraint]), [constraint], [None])
    dependency = page_dependency(manager, plan, None)
    assert dependency is not None
    cache.put("page", ["rows"], dependency)
    matched_before = executor._probe(constraint, ids)  # noqa: SLF001 - the probe semantics
    states_before = _states(manager)
    try:
        _apply(manager, write, target_id)
    except Exception:  # a write the manager refuses changes nothing
        return
    matched_after = executor._probe(constraint, manager.annotation_ids())  # noqa: SLF001
    states_after = _states(manager)
    if len(cache):  # kept: nothing the page shows may have changed
        assert matched_after == matched_before
        for annotation_id in matched_before:
            assert states_after.get(annotation_id) == states_before[annotation_id]

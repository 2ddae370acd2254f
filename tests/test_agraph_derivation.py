"""One a-graph derivation: live and recovered a-graphs hold the same edges.

The invariant: the a-graph's edge multiset is the sum, over live annotations,
of ``Annotation.agraph_edges()``.  Commit, WAL replay and snapshot rebuild
link that list, delete unlinks it, and an update applies the difference of
its before/after derivations.  Each history below is checked three ways —
live, WAL replay alone, and the snapshot the replayed instance writes — and
``check_integrity`` compares the live edges with the summed derivations.
"""

import tempfile
from collections import Counter
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.core.annotation import Referent
from repro.datatypes import DnaSequence
from repro.service import GraphittiService, ServiceConfig

CONFIG = ServiceConfig(checkpoint_on_close=False, cache_capacity=0)


def edge_multiset(manager):
    return Counter((edge.label, edge.source, edge.target) for edge in manager.agraph.graph.edges())


def open_service(root):
    service = GraphittiService.open(root, config=CONFIG)
    for object_id in ("chr1", "chr2"):
        service.register(DnaSequence(object_id, "ACGT" * 50, domain=object_id))
    return service


def referent(service, object_id, start, end, terms=()):
    return Referent(ref=service.manager.data_object(object_id).mark(start, end), ontology_terms=list(terms))


def assert_recovery_agrees(service, root):
    """Live == WAL replay alone == the snapshot of the replayed instance."""
    live = edge_multiset(service.manager)
    count = service.statistics()["agraph_edges"]
    assert sum(live.values()) == count
    assert service.check_integrity().ok
    service.close()  # no checkpoint: recovery replays every record

    replayed = GraphittiService.recover(root, config=CONFIG)
    assert replayed.recovery_info["replayed"] > 0
    assert edge_multiset(replayed.manager) == live
    assert replayed.statistics()["agraph_edges"] == count
    assert replayed.check_integrity().ok
    replayed.checkpoint()
    replayed.close()

    rebuilt = GraphittiService.recover(root, config=CONFIG)
    assert rebuilt.recovery_info["replayed"] == 0
    assert edge_multiset(rebuilt.manager) == live
    assert rebuilt.statistics()["agraph_edges"] == count
    assert rebuilt.check_integrity().ok
    rebuilt.close()
    return live


# -- the derivation ------------------------------------------------------------------


def test_agraph_edges_are_in_wiring_order(tmp_path):
    service = open_service(tmp_path / "svc")
    annotation = (
        service.new_annotation("a")
        .refer_ontology("GO:c")
        .mark_sequence("chr1", 5, 40, ontology_terms=["GO:1"])
        .mark_sequence("chr2", 1, 9)
        .mark_sequence("chr1", 50, 60)
        .commit()
    )
    r1, r2, r3 = annotation.referent_ids()
    assert annotation.agraph_edges() == [
        ("annotates", "a", r1),
        ("refers_to", r1, "GO:1"),
        ("annotates", "a", r2),
        ("annotates", "a", r3),
        ("same_object", r3, r1),
        ("refers_to", "a", "GO:c"),
    ]
    assert edge_multiset(service.manager) == Counter(annotation.agraph_edges())
    service.close()


# -- the divergences: each fails when live and recovered wiring differ -----------------


def test_commit_links_same_object_only_to_earlier_referents(tmp_path):
    root = tmp_path / "svc"
    service = open_service(root)
    service.new_annotation("x").mark_sequence("chr1", 50, 60).commit()
    service.new_annotation("a").mark_sequence("chr1", 5, 40).mark_sequence("chr1", 50, 60).commit()
    live = assert_recovery_agrees(service, root)
    assert live[("same_object", "chr1:iv:50-60", "chr1:iv:5-40")] == 1
    assert live[("same_object", "chr1:iv:5-40", "chr1:iv:50-60")] == 0


def test_delete_of_a_shared_extent_keeps_one_copy_per_survivor(tmp_path):
    root = tmp_path / "svc"
    service = open_service(root)
    for annotation_id in ("a", "b"):
        service.new_annotation(annotation_id).mark_sequence(
            "chr1", 5, 40, ontology_terms=["GO:1"]
        ).commit()
    assert service.statistics()["agraph_edges"] == 4
    service.delete_annotation("a")
    live = assert_recovery_agrees(service, root)
    assert live[("refers_to", "chr1:iv:5-40", "GO:1")] == 1
    assert sum(live.values()) == 2


def test_remove_referents_of_a_shared_extent_keeps_one_copy_per_survivor(tmp_path):
    root = tmp_path / "svc"
    service = open_service(root)
    shared = (
        service.new_annotation("a")
        .mark_sequence("chr1", 5, 40, ontology_terms=["GO:1"])
        .mark_sequence("chr1", 50, 60)
        .commit()
        .referent_ids()[0]
    )
    service.new_annotation("b").mark_sequence("chr1", 5, 40, ontology_terms=["GO:1"]).commit()
    service.update_annotation("a", {"remove_referents": [shared]})
    live = assert_recovery_agrees(service, root)
    assert live[("refers_to", shared, "GO:1")] == 1
    assert live[("same_object", "chr1:iv:50-60", shared)] == 0


def test_add_referents_of_an_extent_the_annotation_already_marks(tmp_path):
    root = tmp_path / "svc"
    service = open_service(root)
    service.new_annotation("a").mark_sequence("chr1", 5, 40).mark_sequence("chr1", 50, 60).commit()
    service.update_annotation("a", {"add_referents": [referent(service, "chr1", 5, 40)]})
    live = assert_recovery_agrees(service, root)
    assert live[("annotates", "a", "chr1:iv:5-40")] == 2


# -- check_integrity reads the edges ---------------------------------------------------


def test_integrity_names_a_stray_parallel_copy(small_graphitti):
    graph = small_graphitti.agraph.graph
    edge = next(graph.iter_out_edges("a1", label="annotates"))
    graph.add_edge(edge.source, edge.target, label=edge.label)
    report = small_graphitti.check_integrity()
    assert not report.ok
    assert any(repr(("annotates", "a1", edge.target)) in error for error in report.errors)


def test_integrity_names_an_edge_outside_the_schema(small_graphitti):
    graph = small_graphitti.agraph.graph
    referent_id = next(graph.iter_out_edges("a1", label="annotates")).target
    graph.add_edge(referent_id, "a1", label="annotates")  # referent -> content
    graph.add_edge("a1", referent_id, label="relates")  # no such label
    report = small_graphitti.check_integrity()
    assert not report.ok
    for key in (("annotates", referent_id, "a1"), ("relates", "a1", referent_id)):
        assert any(f"{key!r} (" in error for error in report.errors), key


# -- generated histories ---------------------------------------------------------------

#: Six extents on two objects, overlapping so annotations share referents.
EXTENTS = [("chr1", 5, 40), ("chr1", 30, 60), ("chr1", 50, 60), ("chr2", 1, 9), ("chr2", 5, 20), ("chr2", 1, 30)]
TERMS = ["GO:1", "GO:2", "GO:3"]

_marks = st.lists(
    st.tuples(st.integers(0, len(EXTENTS) - 1), st.none() | st.sampled_from(TERMS)),
    max_size=3,
)
_content_terms = st.lists(st.sampled_from(TERMS), max_size=2, unique=True)
_steps = st.lists(
    st.one_of(
        st.tuples(st.just("commit"), _marks, _content_terms),
        st.tuples(st.just("terms"), st.integers(0, 9), _content_terms),
        st.tuples(st.just("add"), st.integers(0, 9), _marks.filter(bool)),
        st.tuples(st.just("remove"), st.integers(0, 9), st.integers(0, 9)),
        st.tuples(st.just("delete"), st.integers(0, 9)),
    ),
    min_size=1,
    max_size=12,
)


def _referents(service, marks):
    return [
        referent(service, *EXTENTS[extent], terms=() if term is None else [term])
        for extent, term in marks
    ]


def _apply(service, step, serial):
    """Apply one generated step, skipping the ones the manager would refuse."""
    kind = step[0]
    if kind == "commit":
        _, marks, terms = step
        if not marks and not terms:
            return
        builder = service.new_annotation(f"n{serial}").refer_ontology(*terms)
        for item in _referents(service, marks):
            builder.add_referent(item.ref, item.ontology_terms)
        builder.commit()
        return
    live = service.manager.annotation_ids()
    if not live:
        return
    annotation = service.annotation(live[step[1] % len(live)])
    annotation_id = annotation.annotation_id
    if kind == "terms":
        if annotation.referents or step[2]:
            service.update_annotation(annotation_id, {"ontology_terms": step[2]})
    elif kind == "add":
        service.update_annotation(annotation_id, {"add_referents": _referents(service, step[2])})
    elif kind == "remove":
        ids = list(dict.fromkeys(annotation.referent_ids()))
        if ids and (len(ids) > 1 or annotation.content.ontology_terms):
            target = ids[step[2] % len(ids)]
            service.update_annotation(annotation_id, {"remove_referents": [target]})
    else:
        service.delete_annotation(annotation_id)


@settings(max_examples=40, deadline=None)
@given(steps=_steps)
def test_generated_histories_keep_the_invariant(steps):
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch) / "svc"
        service = open_service(root)
        for serial, step in enumerate(steps):
            _apply(service, step, serial)
            report = service.check_integrity()
            assert report.ok, report.errors
        assert_recovery_agrees(service, root)

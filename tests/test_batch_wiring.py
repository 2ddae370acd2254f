"""A batch commit wires its batch once, and nothing observable changes.

``Graphitti.commit_many`` hands its whole approved batch to
:func:`repro.core.persistence.wire_annotations`, as a snapshot load does, so
each spatial index takes the batch's extents in one ``insert_many`` call.
Each corpus here is ingested three ways -- batch commits through a durable
service, one commit per annotation, and that service's own recovery -- and
the three instances must answer every probe alike, pass the integrity
check, count the same and hold the same a-graph.

Also pinned: a commit of one to three extents never rebuilds an index,
however small the index is.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
if str(REPO) not in sys.path:  # the e2e benchmark's corpus and probe set are the fixture
    sys.path.insert(0, str(REPO))

from benchmarks.e2e.corpus import SMOKE, Corpus  # noqa: E402
from benchmarks.e2e.driver import build_annotation, service_config  # noqa: E402
from benchmarks.e2e.oracle import pages, probe_texts  # noqa: E402

import repro.spatial.interval_tree as interval_tree  # noqa: E402
from repro import Graphitti  # noqa: E402
from repro.datatypes import DnaSequence, Image  # noqa: E402
from repro.service.durability import recover_manager  # noqa: E402
from repro.service.service import GraphittiService  # noqa: E402
from repro.spatial.rtree import RTree  # noqa: E402

COUNTS = (
    "data_objects", "annotations", "referents", "interval_trees", "rtrees",
    "indexed_intervals", "indexed_regions", "agraph_nodes", "agraph_nodes_by_kind",
    "agraph_edges", "catalogue",
)


def three_ways(root: Path, register, batches):
    """``(batched, one by one, recovered)`` instances of *batches*: lists of
    functions that each turn a target into an annotation builder."""
    service = GraphittiService.open(root, config=service_config())
    try:
        register(service)
        for number, batch in enumerate(batches):
            service.bulk_commit([make(service).build() for make in batch])
            if number == 1:  # recovery then loads a snapshot and replays a tail
                service.checkpoint()
        batched = service.manager
    finally:
        service.close()
    one_by_one = Graphitti("one-by-one")
    register(one_by_one)
    for batch in batches:
        for make in batch:
            make(one_by_one).commit()
    recovered, info = recover_manager(root)
    assert info["snapshot"] and info["replayed"] > 0
    return batched, one_by_one, recovered


def assert_alike(instances, probes: list[str]) -> None:
    first, *others = instances
    for manager in instances:
        report = manager.check_integrity()
        assert report.ok, report.errors
    counts = {key: first.statistics()[key] for key in COUNTS}
    graph = first.agraph.to_dict()
    for manager in others:
        assert {key: manager.statistics()[key] for key in COUNTS} == counts
        assert manager.agraph.to_dict() == graph
    for text in probes:
        expected = pages(first.query(text))
        for manager in others:
            assert pages(manager.query(text)) == expected, text


def test_the_e2e_corpus_ingests_alike_three_ways(tmp_path):
    corpus = Corpus(SMOKE)
    batches = [
        [lambda target, spec=spec: build_annotation(target, spec) for spec in corpus.initial[start:start + size]]
        for start, size in ((0, 100), (100, 100), (200, 60), (260, 37), (297, 3))
    ]
    assert sum(map(len, batches)) == len(corpus.initial)
    instances = three_ways(tmp_path / "root", corpus.register_into, batches)
    assert instances[0].statistics()["indexed_regions"] > 0
    assert instances[0].statistics()["indexed_intervals"] > 0
    assert_alike(instances, probe_texts(corpus))


def register_small(target) -> None:
    target.register(DnaSequence("seq", "ACGT" * 100, domain="chr1"))
    target.register(Image("img", dimension=2, space="atlas", size=(100, 100)))


def mark(annotation_id: str, *extents):
    """A builder maker marking each ``(start, end)`` on the sequence and each
    ``(lo, hi)`` on the image."""

    def make(target):
        builder = target.new_annotation(annotation_id, title=annotation_id, keywords=["shared"])
        for first, second in extents:
            if isinstance(first, tuple):
                builder.mark_region("img", first, second)
            else:
                builder.mark_sequence("seq", first, second)
        return builder

    return make


SMALL_PROBES = [
    'SELECT contents WHERE { CONTENT CONTAINS "shared" }',
    'SELECT referents WHERE { CONTENT CONTAINS "shared" }',
    'SELECT graph WHERE { CONTENT CONTAINS "shared" }',
]


def test_a_batch_sharing_one_extent_and_one_marking_two_extents_of_an_object(tmp_path):
    filler = [mark(f"fill-{i}", (i * 5, i * 5 + 9), ((i, i), (i + 4, i + 3))) for i in range(12)]
    batches = [
        filler[:6],
        # Two annotations mark one extent: one referent, indexed once.
        [mark("share-a", (40, 60), ((10, 10), (20, 20))), mark("share-b", (40, 60), ((10, 10), (20, 20)))],
        # One annotation marks two extents of each object: same_object edges.
        [mark("pair", (100, 120), (130, 150), ((50, 50), (60, 60)), ((70, 70), (80, 90)))] + filler[6:],
    ]
    instances = three_ways(tmp_path / "root", register_small, batches)
    statistics = instances[0].statistics()
    assert statistics["referents"] == statistics["indexed_intervals"] + statistics["indexed_regions"]
    assert instances[0].agraph.graph.kind_counts()["referent"] == statistics["referents"]
    shared = {r.referent_id for r in instances[0].annotation("share-a").referents}
    assert shared == {r.referent_id for r in instances[0].annotation("share-b").referents}
    edges = instances[0].agraph.to_dict()
    assert "same_object" in str(edges)
    assert_alike(instances, SMALL_PROBES)


@pytest.mark.parametrize("filled", [1, 2, 30])
def test_a_commit_of_up_to_three_extents_never_rebuilds_an_index(filled, monkeypatch):
    manager = Graphitti("small")
    register_small(manager)
    manager.commit_many(
        [mark(f"fill-{i}", (i, i + 9), ((i, i), (i + 4, i + 3)))(manager).build() for i in range(filled)]
    )
    rebuilds = []
    real_pack, real_build = RTree._str_pack, interval_tree._build_balanced
    monkeypatch.setattr(RTree, "_str_pack", lambda self, rects: rebuilds.append("rtree") or real_pack(self, rects))
    monkeypatch.setattr(
        interval_tree, "_build_balanced", lambda *args: rebuilds.append("interval") or real_build(*args)
    )
    manager.commit(mark("one", (300, 310))(manager).build())
    manager.commit_many([mark("two", (5, 6), ((1, 1), (2, 2)))(manager).build()])
    manager.commit_many([mark("three", (7, 8), (9, 10), (11, 12))(manager).build()])
    manager.commit_many([mark("regions", ((3, 3), (4, 4)), ((5, 5), (6, 6)), ((7, 7), (8, 8)))(manager).build()])
    assert rebuilds == []
    assert manager.check_integrity().ok

"""Tests for the live statistics catalogue and the planner's counts.

The incrementally maintained counts always equal a from-scratch rebuild —
across commits, deletes, snapshot round-trips, and the full checkpoint +
crash + recover durability lifecycle — and the counts rank constraints.
"""

import pytest

from repro import Graphitti
from repro.core.persistence import rebuild, snapshot
from repro.query.builder import QueryBuilder
from repro.query.stats import StatisticsCatalogue, canonical_type
from repro.workloads.generators import WorkloadConfig, generate_annotation_workload


def _fresh_rebuild(manager: Graphitti) -> StatisticsCatalogue:
    catalogue = StatisticsCatalogue()
    catalogue.rebuild(manager)
    return catalogue


def test_canonical_type_resolves_names_and_values():
    assert canonical_type("dna") == "dna_sequence"
    assert canonical_type("DNA_sequence") == "dna_sequence"
    assert canonical_type("image") == "image"
    assert canonical_type("mystery") == "mystery"


def test_catalogue_tracks_commits(small_graphitti):
    catalogue = small_graphitti.stats_catalogue
    assert catalogue.annotation_total == 2
    assert catalogue.members_of_type("dna") == {"a1", "a2"}
    assert catalogue.members_of_type("image") == {"a1"}
    assert catalogue.term_annotation_count("protein:protease") == 1
    assert catalogue.counts() == _fresh_rebuild(small_graphitti).counts()


def test_catalogue_tracks_deletes(small_graphitti):
    small_graphitti.delete_annotation("a1")
    catalogue = small_graphitti.stats_catalogue
    assert catalogue.annotation_total == 1
    assert catalogue.type_count("image") == 0
    assert catalogue.term_annotation_count("protein:protease") == 0
    assert catalogue.counts() == _fresh_rebuild(small_graphitti).counts()


def test_catalogue_matches_rebuild_on_workload():
    manager = Graphitti("stats-wl")
    summary = generate_annotation_workload(
        manager, WorkloadConfig(seed=11, sequence_count=6, annotation_count=80, image_count=2)
    )
    # Delete a third of the annotations, including re-shared referents.
    for annotation_id in summary["annotation_ids"][::3]:
        manager.delete_annotation(annotation_id)
    assert manager.stats_catalogue.counts() == _fresh_rebuild(manager).counts()


def _interned(manager) -> set[str]:
    """The interned ids, checked against the live annotations."""
    live = set(manager.annotation_ids())
    assert len(manager.idspace) == len(live)
    assert all(annotation_id in manager.idspace for annotation_id in live)
    return live


def test_idspace_matches_live_annotations(small_graphitti):
    assert _interned(small_graphitti) == {"a1", "a2"}
    small_graphitti.delete_annotation("a2")
    assert _interned(small_graphitti) == {"a1"}


def test_snapshot_rebuild_restores_catalogue(small_graphitti):
    restored = rebuild(snapshot(small_graphitti))
    assert restored.stats_catalogue.counts() == small_graphitti.stats_catalogue.counts()
    assert _interned(restored) == {"a1", "a2"}


def _extents(manager) -> tuple:
    """``(indexed intervals, indexed regions, chr1 span, atlas bounds)``."""
    stats = manager.statistics()
    store = manager.substructures
    return (
        stats["indexed_intervals"],
        stats["indexed_regions"],
        store.interval_family.tree("chr1").span(),
        store.rtree_family.tree("atlas:25um").bounds(),
    )


def test_extent_summaries_maintained(small_graphitti):
    from repro.spatial.interval import Interval
    from repro.spatial.rect import Rect

    # a1 + a2 mark the same chr1[10,40] substructure -> one shared referent.
    indexed = (1, 1, Interval(10, 40, domain="chr1"), Rect((10.0, 10.0), (40.0, 40.0)))
    assert _extents(small_graphitti) == indexed
    small_graphitti.delete_annotation("a2")
    # The referent is still shared with a1, so the indexes are unchanged.
    assert _extents(small_graphitti) == indexed
    small_graphitti.delete_annotation("a1")
    assert _extents(small_graphitti) == (0, 0, None, None)


def test_bounds_shrink_after_boundary_delete():
    """Deleting the extremal extent tightens the live bounds, so they equal
    the bounds recovery rebuilds from scratch."""
    from repro.core.persistence import rebuild, snapshot
    from repro.datatypes import DnaSequence

    manager = Graphitti("bounds")
    manager.register(DnaSequence("seq1", "ACGT" * 100, domain="chr9"))
    manager.new_annotation("low", keywords=["x"]).mark_sequence("seq1", 30, 50).commit()
    manager.new_annotation("high", keywords=["x"]).mark_sequence("seq1", 90, 110).commit()
    def indexed(instance):
        tree = instance.substructures.interval_family.tree("chr9")
        return len(tree), tree.span().as_tuple()

    assert indexed(manager) == (2, (30, 110))
    manager.delete_annotation("low")
    assert indexed(manager) == (1, (90, 110))
    restored = rebuild(snapshot(manager))
    assert indexed(restored) == (1, (90, 110))


def test_estimates_rank_skewed_constraints():
    manager = Graphitti("stats-est")
    generate_annotation_workload(
        manager, WorkloadConfig(seed=6, sequence_count=10, annotation_count=400, image_count=3)
    )
    explanation = manager.explain(
        QueryBuilder.contents()
        .of_type("dna_sequence")
        .overlaps_interval("genome:chrX", 100, 300)
        .build(),
    )
    rows = dict(explanation["estimated_rows"])
    interval_estimate = rows["interval OVERLAPS genome:chrX[100,300] (>= 1)"]
    type_estimate = rows["type dna_sequence"]
    assert interval_estimate < type_estimate
    # The tiny window must be planned before the broad type constraint.
    assert "1. [interval]" in explanation["plan"]


def test_estimate_zero_for_unknown_domain_and_term(small_graphitti):
    explanation = small_graphitti.explain(
        QueryBuilder.contents().overlaps_interval("nope", 0, 10).refers("no-such-term").build()
    )
    assert [rows for _, rows in explanation["estimated_rows"]] == [0, 0]


def test_type_count_exact(small_graphitti):
    assert small_graphitti.stats_catalogue.type_count("dna") == 2
    assert small_graphitti.stats_catalogue.type_count("image") == 1
    assert small_graphitti.stats_catalogue.type_count("phylogenetic_tree") == 0


def test_catalogue_survives_durability_lifecycle(tmp_path):
    """Checkpoint + crash + recover: catalogue equals a cold rebuild."""
    from repro.datatypes import DnaSequence
    from repro.service import GraphittiService, ServiceConfig

    root = tmp_path / "served"
    service = GraphittiService(
        manager=Graphitti("stats-dur"),
        root=root,
        config=ServiceConfig(checkpoint_on_close=False),
    )
    service.register(DnaSequence("seq1", "ACGT" * 100, domain="chr1"))
    for index in range(8):
        service.commit(
            service.new_annotation(
                f"dur-{index}", keywords=["alpha" if index % 2 else "beta"]
            ).mark_sequence("seq1", index * 10, index * 10 + 5)
        )
    service.checkpoint()
    # Post-checkpoint mutations live only in the WAL.
    for index in range(8, 12):
        service.commit(
            service.new_annotation(f"dur-{index}", keywords=["gamma"]).mark_sequence(
                "seq1", index * 10, index * 10 + 5
            )
        )
    service.delete_annotation("dur-1")
    expected = service.manager.stats_catalogue.counts()
    expected_live = _interned(service.manager)
    # Simulated crash: no close(), no final checkpoint.
    recovered = GraphittiService.recover(root)
    manager = recovered.manager
    assert manager.stats_catalogue.counts() == expected
    cold = StatisticsCatalogue()
    cold.rebuild(manager)
    assert manager.stats_catalogue.counts() == cold.counts()
    assert _interned(manager) == expected_live
    recovered.close()
    service.close()


def test_statistics_exposes_catalogue(small_graphitti):
    stats = small_graphitti.statistics()
    assert stats["catalogue"]["annotations"] == 2
    assert "dna_sequence" in stats["catalogue"]["annotations_by_type"]
    assert "extent_summaries" not in stats

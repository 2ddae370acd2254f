"""Zero-length extents and post-removal bounds: the spatial hot-path audit.

Sharding leans on the spatial substrate twice over — every shard keeps its
own interval trees and R-trees, and the cost-based planner reads their live
bounds — so these tests pin the behaviours the audit focused on:

* **point annotations** (``start == end``) are found by interval-tree
  overlap search even when the query merely *touches* them at an endpoint
  (closed-interval semantics), at the tree, store, and full-query layers;
* **bounds shrink after removal** — ``RTree.bounds()`` and
  ``IntervalTree.span()`` reflect deletions exactly (no stale expanded
  boxes), and the planner's counting walk finds no dead extent.
"""

import random

from repro.core.manager import Graphitti
from repro.datatypes.image import Image
from repro.datatypes.sequence import DnaSequence
from repro.query.parser import parse_query
from repro.spatial.interval import Interval
from repro.spatial.interval_tree import IntervalTree
from repro.spatial.rect import Rect
from repro.spatial.rtree import RTree

# -- interval tree: zero-length extents at touching endpoints ------------------


def test_point_interval_found_at_touching_endpoints():
    tree = IntervalTree(domain="d")
    tree.insert(Interval(5, 5, domain="d", payload="point"))
    tree.insert(Interval(1, 3, domain="d", payload="range"))
    # touching from the right, the left, exactly, and via stabbing
    assert [hit.payload for hit in tree.search_overlap(Interval(5, 9, domain="d"))] == ["point"]
    assert "point" in [hit.payload for hit in tree.search_overlap(Interval(0, 5, domain="d"))]
    assert [hit.payload for hit in tree.search_overlap(Interval(5, 5, domain="d"))] == ["point"]
    assert [hit.payload for hit in tree.stab(5)] == ["point"]


def test_zero_length_query_touches_range_endpoints():
    tree = IntervalTree()
    tree.insert(Interval(10, 20, payload="r"))
    assert [hit.payload for hit in tree.search_overlap(Interval(10, 10))] == ["r"]
    assert [hit.payload for hit in tree.search_overlap(Interval(20, 20))] == ["r"]
    assert tree.search_overlap(Interval(21, 21)) == []


def test_interval_tree_matches_oracle_under_heavy_zero_length_churn():
    rng = random.Random(20260726)
    tree = IntervalTree()
    live: dict[object, Interval] = {}
    for step in range(600):
        if live and rng.random() < 0.4:
            payload = rng.choice(list(live))
            assert tree.remove(live.pop(payload))
        else:
            start = rng.randint(0, 30)
            end = start if rng.random() < 0.5 else start + rng.randint(1, 6)
            interval = Interval(start, end, payload=step)
            live[step] = interval
            tree.insert(interval)
        if rng.random() < 0.4:
            lo = rng.randint(0, 30)
            query = Interval(lo, lo + rng.choice([0, 0, 2, 5]))
            expected = sorted(p for p, iv in live.items() if iv.overlaps(query))
            got = sorted(hit.payload for hit in tree.search_overlap(query))
            assert got == expected
        assert len(tree) == len(live)


def test_interval_span_shrinks_after_remove():
    tree = IntervalTree()
    wide = Interval(0, 100, payload="wide")
    tree.insert(wide)
    tree.insert(Interval(10, 20, payload="core"))
    assert tree.span().as_tuple() == (0, 100)
    assert tree.remove(wide)
    assert tree.span().as_tuple() == (10, 20)


# -- R-tree: bounds shrink after remove ----------------------------------------


def test_rtree_bounds_shrink_after_remove():
    tree = RTree(max_entries=4)
    rects = [
        Rect((float(i), float(i)), (float(i + 1), float(i + 1)), payload=i)
        for i in range(20)
    ]
    for rect in rects:
        tree.insert(rect)
    assert tree.bounds() == Rect((0.0, 0.0), (20.0, 20.0))
    for rect in rects[10:]:
        assert tree.remove(rect)
    assert tree.bounds() == Rect((0.0, 0.0), (10.0, 10.0))
    for rect in rects[1:10]:
        assert tree.remove(rect)
    assert tree.bounds() == Rect((0.0, 0.0), (1.0, 1.0))
    assert tree.remove(rects[0])
    assert tree.bounds() is None


def test_rtree_bounds_exact_under_churn_with_degenerate_rects():
    rng = random.Random(42)
    tree = RTree(max_entries=4)
    live: dict[object, Rect] = {}
    for step in range(400):
        if live and rng.random() < 0.45:
            payload = rng.choice(list(live))
            assert tree.remove(live.pop(payload))
        else:
            x, y = rng.uniform(0, 50), rng.uniform(0, 50)
            width = rng.choice([0.0, rng.uniform(0, 5)])   # degenerate rects too
            height = rng.choice([0.0, rng.uniform(0, 5)])
            rect = Rect((x, y), (x + width, y + height), payload=step)
            live[step] = rect
            tree.insert(rect)
        bounds = tree.bounds()
        if not live:
            assert bounds is None
        else:
            assert bounds.lo == (
                min(rect.lo[0] for rect in live.values()),
                min(rect.lo[1] for rect in live.values()),
            )
            assert bounds.hi == (
                max(rect.hi[0] for rect in live.values()),
                max(rect.hi[1] for rect in live.values()),
            )


# -- end to end: point annotations through the store and query pipeline --------


def _point_instance() -> Graphitti:
    manager = Graphitti("zero-length")
    manager.register(DnaSequence("zseq", "ACGT" * 100, domain="zl:chr1"))
    (
        manager.new_annotation("point-anno", keywords=["pointmark"], body="a point")
        .mark_sequence("zseq", 50, 50)
        .commit()
    )
    (
        manager.new_annotation("range-anno", keywords=["rangemark"], body="a range")
        .mark_sequence("zseq", 10, 40)
        .commit()
    )
    return manager


def test_point_annotation_survives_store_and_query_at_touching_endpoint(plan_order_invariant):
    from repro.query.ast import OverlapConstraint
    from repro.query.executor import QueryExecutor
    from repro.query.parser import parse_query

    manager = _point_instance()
    # store level: overlap window touching the point exactly at its endpoint
    assert manager.search_by_overlap_interval("zl:chr1", 50, 60) == ["point-anno"]
    assert manager.search_by_overlap_interval("zl:chr1", 0, 50) == [
        "point-anno",
        "range-anno",
    ]
    # query level: every plan order agrees with the reference
    query = parse_query("SELECT contents WHERE { INTERVAL OVERLAPS zl:chr1 [50, 50] }")
    assert plan_order_invariant(manager, query).annotation_ids == ["point-anno"]
    assert manager.query(query).annotation_ids == ["point-anno"]
    # probe path: per-candidate verification at touching endpoints
    executor = QueryExecutor(manager)
    for start, end, expected in ((50, 50, {"point-anno"}), (40, 40, {"range-anno"})):
        constraint = OverlapConstraint(domain="zl:chr1", start=start, end=end)
        assert executor._probe(constraint, ["point-anno", "range-anno"]) == expected
        assert executor._evaluate(constraint) == expected


def _window_count(manager, window: str, data_type: str) -> int:
    """The planner's count for *window*, planned beside a TYPE constraint
    every annotation meets (so the walk is bounded but never stopped)."""
    text = f"SELECT contents WHERE {{ {window} TYPE {data_type} }}"
    return dict(manager.explain(text)["estimated_rows"])[parse_query(text).constraints[0].describe()]


def test_estimator_extent_bounds_follow_deletions():
    """The bounds must track the live extents after deletes, and so must
    the planner's count, which walks the same tree."""
    manager = _point_instance()
    tree = manager.substructures.interval_family.tree("zl:chr1")
    assert tree.span().as_tuple() == (10.0, 50.0)
    window = "INTERVAL OVERLAPS zl:chr1 [45, 60]"
    assert _window_count(manager, window, "dna") == 1
    manager.delete_annotation("point-anno")
    assert tree.span().as_tuple() == (10.0, 40.0)
    # a window beyond the live extents now counts (and answers) empty
    assert _window_count(manager, window, "dna") == 0
    assert manager.search_by_overlap_interval("zl:chr1", 45, 60) == []


def test_estimator_region_bounds_follow_deletions():
    manager = Graphitti("zero-length-2d")
    manager.register(Image("zimg", dimension=2, space="zl:atlas", size=(100, 100)))
    (
        manager.new_annotation("far-region", keywords=["far"])
        .mark_region("zimg", (80, 80), (90, 90))
        .commit()
    )
    (
        manager.new_annotation("near-region", keywords=["near"])
        .mark_region("zimg", (5, 5), (10, 10))
        .commit()
    )
    tree = manager.substructures.rtree_family.tree("zl:atlas")
    assert tree.bounds() == Rect((5.0, 5.0), (90.0, 90.0))
    window = "REGION OVERLAPS zl:atlas [70, 70] .. [95, 95]"
    assert _window_count(manager, window, "image") == 1
    manager.delete_annotation("far-region")
    assert tree.bounds() == Rect((5.0, 5.0), (10.0, 10.0))
    assert _window_count(manager, window, "image") == 0

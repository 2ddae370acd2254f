"""Property-based tests for spatial index invariants and round-trips."""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.linear_scan import linear_interval_overlap, linear_region_overlap
from repro.errors import SpatialError
from repro.spatial.interval import Interval
from repro.spatial.interval_tree import IntervalTree
from repro.spatial.rect import Rect, bounding_rect
from repro.spatial.rtree import RTree


@settings(max_examples=40, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.integers(0, 100), st.integers(0, 30), st.integers(0, 1)),
        min_size=1,
        max_size=60,
    )
)
def test_interval_tree_insert_remove_roundtrip(ops):
    tree = IntervalTree()
    inserted = []
    for position, (start, length, should_remove) in enumerate(ops):
        interval = Interval(start, start + length, payload=position)
        tree.insert(interval)
        inserted.append(interval)
    # remove half of them and check size bookkeeping
    for interval in inserted[::2]:
        assert tree.remove(interval)
    assert len(tree) == len(inserted) - len(inserted[::2])


@settings(max_examples=40, deadline=None)
@given(
    intervals=st.lists(st.tuples(st.integers(0, 200), st.integers(0, 40)), min_size=0, max_size=70),
    qstart=st.integers(0, 200),
    qlen=st.integers(0, 40),
)
def test_interval_tree_overlap_is_complete_and_sound(intervals, qstart, qlen):
    items = [Interval(s, s + length, payload=i) for i, (s, length) in enumerate(intervals)]
    tree = IntervalTree.from_intervals(items)
    query = Interval(qstart, qstart + qlen)
    got = {iv.payload for iv in tree.search_overlap(query)}
    expected = {iv.payload for iv in linear_interval_overlap(items, query)}
    assert got == expected


@settings(max_examples=30, deadline=None)
@given(
    rects=st.lists(
        st.tuples(st.integers(0, 200), st.integers(0, 200), st.integers(1, 30), st.integers(1, 30)),
        min_size=1,
        max_size=60,
    ),
)
def test_rtree_insert_remove_size(rects):
    items = [Rect((x, y), (x + w, y + h), payload=i) for i, (x, y, w, h) in enumerate(rects)]
    tree = RTree.from_rects(items, max_entries=6)
    assert len(tree) == len(items)
    for rect in items[::3]:
        assert tree.remove(rect)
    assert len(tree) == len(items) - len(items[::3])


@settings(max_examples=30, deadline=None)
@given(
    rects=st.lists(
        st.tuples(st.integers(0, 200), st.integers(0, 200), st.integers(1, 30), st.integers(1, 30)),
        min_size=1,
        max_size=60,
    ),
    query=st.tuples(st.integers(0, 200), st.integers(0, 200), st.integers(1, 60), st.integers(1, 60)),
)
def test_rtree_bulk_load_matches_scan(rects, query):
    items = [Rect((x, y), (x + w, y + h), payload=i) for i, (x, y, w, h) in enumerate(rects)]
    tree = RTree.bulk_load(items, max_entries=8)
    q = Rect((query[0], query[1]), (query[0] + query[2], query[1] + query[3]))
    got = {rect.payload for rect in tree.search_overlap(q)}
    expected = {rect.payload for rect in linear_region_overlap(items, q)}
    assert got == expected


# -- searches under churn ---------------------------------------------------------
#
# A batch built into the empty tree, then interleaved inserts (into a tree
# that already holds records) and removes on small integer grids, so shared
# keys, duplicate boxes and zero-length extents are common.  Some records
# carry no domain / space inside a named tree, and queries come on the tree's
# domain / space, on none, and on a foreign one.  Every search is checked
# after every step.

_interval_specs = st.tuples(st.integers(0, 40), st.integers(0, 6), st.sampled_from(["chr1", None]))
_interval_queries = st.tuples(st.integers(0, 46), st.integers(0, 8), st.sampled_from(["chr1", None, "chr2"]))


@settings(max_examples=80, deadline=None)
@given(
    batch=st.lists(_interval_specs, max_size=20),
    ops=st.lists(st.tuples(st.booleans(), _interval_specs, st.integers(0, 10**6)), min_size=1, max_size=60),
    queries=st.lists(_interval_queries, min_size=1, max_size=5),
)
def test_interval_tree_search_is_the_sorted_scan_under_churn(batch, ops, queries):
    """``search_overlap`` is the linear scan sorted by ``(start, end)`` -- as
    a list: intervals sharing a key come in insertion order."""
    present = [Interval(start, start + length, domain=domain, payload=f"b{index}")
               for index, (start, length, domain) in enumerate(batch)]
    tree = IntervalTree(domain="chr1")
    tree.insert_many(present)
    for serial, (insert, (start, length, domain), pick) in enumerate(ops):
        if insert or not present:
            interval = Interval(start, start + length, domain=domain, payload=serial)
            present.append(interval)
            tree.insert(interval)
        else:
            assert tree.remove(present.pop(pick % len(present)))
        assert len(tree) == len(present)
        for start, length, domain in queries:
            query = Interval(start, start + length, domain=domain)
            scan = sorted(
                (interval for interval in present if interval.overlaps(query)),
                key=lambda interval: (interval.start, interval.end),
            )
            assert [i.payload for i in tree.search_overlap(query)] == [i.payload for i in scan]


_rect_specs = st.tuples(
    st.integers(0, 30), st.integers(0, 30), st.integers(0, 5), st.integers(0, 5),
    st.sampled_from(["atlas", None]),
)
_rect_queries = st.tuples(
    st.integers(0, 30), st.integers(0, 30), st.integers(0, 12), st.integers(0, 12),
    st.sampled_from(["atlas", None, "other"]),
)


def _rect(spec, payload) -> Rect:
    x, y, width, height, space = spec
    return Rect((x, y), (x + width, y + height), space=space, payload=payload)


def _union_fold(rects: list[Rect]) -> Rect:
    """The bounding box as a ``Rect.union`` fold, one ``Rect`` per step."""
    result = rects[0]
    for rect in rects[1:]:
        result = result.union(rect)
    return result


@settings(max_examples=60, deadline=None)
@given(
    batch=st.lists(_rect_specs, max_size=30),
    ops=st.lists(st.tuples(st.booleans(), _rect_specs, st.integers(0, 10**6)), min_size=1, max_size=60),
    max_entries=st.sampled_from([4, 5, 8]),
    queries=st.lists(_rect_queries, min_size=1, max_size=4),
)
def test_rtree_search_is_the_scan_and_bounds_the_old_fold_under_churn(batch, ops, max_entries, queries):
    """``search_overlap`` returns the linear scan's records (as a multiset)
    and refuses what the scan refuses; ``bounds()`` and ``bounding_rect``
    are the ``Rect.union`` fold over the records."""
    present = [_rect(spec, f"b{index}") for index, spec in enumerate(batch)]
    tree = RTree(max_entries=max_entries, space="atlas")
    tree.insert_many(present)
    for serial, (insert, spec, pick) in enumerate(ops):
        if insert or not present:
            rect = _rect(spec, serial)
            present.append(rect)
            tree.insert(rect)
        else:
            assert tree.remove(present.pop(pick % len(present)))
        assert len(tree) == len(present)
        bounds = tree.bounds()
        if present:
            old = _union_fold(present)
            assert bounds == old == bounding_rect(present) and bounds.space == old.space
            with pytest.raises(SpatialError):
                tree.search_overlap(Rect((0, 0, 0), (50, 50, 50)))
        else:
            assert bounds is None
        for spec in queries:
            query = _rect(spec, None)
            try:
                scan = Counter(rect.payload for rect in present if rect.overlaps(query))
            except SpatialError:
                with pytest.raises(SpatialError):
                    tree.search_overlap(query)
            else:
                assert Counter(rect.payload for rect in tree.search_overlap(query)) == scan

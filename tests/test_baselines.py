"""Tests for the linear-scan references (the spatial tests compare against them)."""

import random

from repro.baselines.linear_scan import (
    LinearIntervalIndex,
    LinearRegionIndex,
    linear_interval_overlap,
    linear_region_overlap,
)
from repro.spatial.interval import Interval
from repro.spatial.interval_tree import IntervalTree
from repro.spatial.rect import Rect
from repro.spatial.rtree import RTree


def test_linear_interval_overlap_matches_tree():
    rng = random.Random(0)
    intervals = [Interval(x := rng.randint(0, 100), x + rng.randint(1, 20)) for _ in range(200)]
    tree = IntervalTree.from_intervals(intervals)
    query = Interval(30, 60)
    expected = sorted((i.start, i.end) for i in linear_interval_overlap(intervals, query))
    actual = sorted((i.start, i.end) for i in tree.search_overlap(query))
    assert expected == actual


def test_linear_interval_index_api():
    index = LinearIntervalIndex()
    index.insert_many([Interval(1, 5), Interval(10, 12)])
    assert len(index.search_overlap(Interval(2, 3))) == 1
    assert index.count_overlap(Interval(0, 100)) == 2
    assert len(index.stab(11)) == 1


def test_linear_region_overlap_matches_rtree():
    rng = random.Random(1)
    rects = [Rect((x := rng.randint(0, 100), y := rng.randint(0, 100)), (x + 5, y + 5)) for _ in range(150)]
    tree = RTree.from_rects(rects)
    query = Rect((20, 20), (60, 60))
    expected = len(linear_region_overlap(rects, query))
    actual = len(tree.search_overlap(query))
    assert expected == actual


def test_linear_region_index_api():
    index = LinearRegionIndex()
    index.insert_many([Rect((0, 0), (2, 2)), Rect((10, 10), (12, 12))])
    assert index.count_overlap(Rect((0, 0), (100, 100))) == 2


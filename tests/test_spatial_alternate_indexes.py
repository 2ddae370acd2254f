"""Tests for the STR bulk load of the R-tree."""

import random

from repro.baselines.linear_scan import linear_region_overlap
from repro.spatial.rect import Rect
from repro.spatial.rtree import RTree


def test_str_bulk_load_correct():
    rng = random.Random(4)
    rects = [Rect((x := rng.uniform(0, 1000), y := rng.uniform(0, 1000)), (x + 5, y + 5), payload=i) for i in range(400)]
    tree = RTree.bulk_load(rects, max_entries=16)
    assert len(tree) == 400
    query = Rect((200, 200), (400, 400))
    expected = {rect.payload for rect in linear_region_overlap(rects, query)}
    actual = {rect.payload for rect in tree.search_overlap(query)}
    assert actual == expected


def test_str_bulk_load_small_input():
    rects = [Rect((0, 0), (1, 1)), Rect((5, 5), (6, 6))]
    tree = RTree.bulk_load(rects, max_entries=16)
    assert len(tree) == 2


def test_str_bulk_load_height_reasonable():
    rng = random.Random(7)
    rects = [Rect((x := rng.uniform(0, 1000), y := rng.uniform(0, 1000)), (x + 1, y + 1)) for _ in range(1000)]
    tree = RTree.bulk_load(rects, max_entries=16)
    # A well-packed tree of 1000/16 leaves should be only a few levels deep.
    assert tree.height() <= 4

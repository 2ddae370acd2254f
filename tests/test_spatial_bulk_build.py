"""A bulk-built index is the index repeated inserts would have built.

Recovery hands each R-tree and interval tree its whole batch at once
(:meth:`RTree.insert_many`, :meth:`IntervalTree.insert_many`).  Here the
bulk-built tree and the insert-built tree are held against each other and
against a linear scan: same answers, same structural invariants, and still
so after a random stream of further inserts and removes.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SpatialError
from repro.spatial.interval import Interval
from repro.spatial.interval_tree import IntervalIndexFamily, IntervalTree, _height
from repro.spatial.rect import Rect, bounding_rect
from repro.spatial.rtree import RTree, RTreeFamily

# -- structural invariants ----------------------------------------------------------


def rtree_leaf_sizes(tree: RTree) -> list[int]:
    """Check every R-tree invariant; returns the leaves' entry counts."""
    leaf_depths = set()
    leaf_sizes = []
    records = 0

    def walk(node, depth):
        nonlocal records
        if node is not tree._root:
            assert tree._min_entries <= len(node.entries) <= tree._max_entries
        elif not node.leaf:
            assert 2 <= len(node.entries) <= tree._max_entries
        if node.leaf:
            leaf_depths.add(depth)
            leaf_sizes.append(len(node.entries))
            records += len(node.entries)
            assert all(entry.rect == entry.record for entry in node.entries)
            return
        for entry in node.entries:
            assert entry.child.parent is node
            assert entry.rect == entry.child.mbr()  # tight, not merely covering
            walk(entry.child, depth + 1)

    assert tree._root.parent is None
    walk(tree._root, 1)
    assert len(leaf_depths) == 1  # balanced
    assert records == len(tree)
    return leaf_sizes


def check_interval_tree(tree: IntervalTree) -> None:
    """AVL balance, key order, and the height / max_end augmentations."""
    stored = 0

    def walk(node, lo, hi):
        nonlocal stored
        if node is None:
            return 0, float("-inf")
        assert (lo is None or lo < node.key) and (hi is None or node.key < hi)
        assert node.intervals and all((i.start, i.end) == node.key for i in node.intervals)
        stored += len(node.intervals)
        left_height, left_end = walk(node.left, lo, node.key)
        right_height, right_end = walk(node.right, node.key, hi)
        assert abs(left_height - right_height) <= 1
        assert node.height == 1 + max(left_height, right_height)
        assert node.max_end == max(node.key[1], left_end, right_end)
        return node.height, node.max_end

    walk(tree._root, None, None)
    assert stored == len(tree)


# -- generated inputs ---------------------------------------------------------------

# Small integer grids: ties on centres, duplicate boxes and shared keys are common.
rect_specs = st.tuples(st.integers(0, 60), st.integers(0, 60), st.integers(0, 12), st.integers(0, 12))
interval_specs = st.tuples(st.integers(0, 80), st.integers(0, 15))


def stream(specs):
    """Further ops: (insert?, spec to insert, which stored record a remove picks)."""
    return st.lists(st.tuples(st.booleans(), specs, st.integers(0, 10**6)), max_size=40)


def make_rect(spec, payload) -> Rect:
    x, y, w, h = spec
    return Rect((x, y), (x + w, y + h), payload=payload)


def make_interval(spec, payload) -> Interval:
    start, length = spec
    return Interval(start, start + length, payload=payload)


def payloads(records) -> list:
    return sorted(record.payload for record in records)


# -- R-tree -------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    specs=st.lists(rect_specs, max_size=150),
    max_entries=st.sampled_from([4, 5, 8, 16]),
    queries=st.lists(rect_specs, min_size=1, max_size=4),
    ops=stream(rect_specs),
)
def test_bulk_built_rtree_is_the_insert_built_rtree(specs, max_entries, queries, ops):
    items = [make_rect(spec, index) for index, spec in enumerate(specs)]
    bulk = RTree.bulk_load(items, max_entries=max_entries)
    grown = RTree.from_rects(items, max_entries=max_entries)
    present = list(items)

    def agree():
        assert len(bulk) == len(grown) == len(present)
        assert bulk.bounds() == grown.bounds() == (bounding_rect(present) if present else None)
        for spec in queries:
            query = make_rect(spec, None)
            overlap = payloads(r for r in present if r.overlaps(query))
            assert payloads(bulk.search_overlap(query)) == payloads(grown.search_overlap(query)) == overlap
            assert bulk.count_overlap(query) == grown.count_overlap(query) == len(overlap)
            inside = payloads(r for r in present if query.contains(r))
            assert payloads(bulk.search_contained_in(query)) == inside
            assert payloads(grown.search_contained_in(query)) == inside
        rtree_leaf_sizes(bulk)
        rtree_leaf_sizes(grown)

    agree()
    for serial, (insert, spec, pick) in enumerate(ops):
        if insert or not present:
            rect = make_rect(spec, len(items) + serial)
            present.append(rect)
            bulk.insert(rect)
            grown.insert(rect)
        else:
            rect = present.pop(pick % len(present))
            assert bulk.remove(rect) and grown.remove(rect)
    agree()


def test_bulk_load_rejects_a_foreign_space_like_insert_does():
    foreign = [Rect((i, i), (i + 1, i + 1), space="other", payload=i) for i in range(20)]
    with pytest.raises(SpatialError):
        RTree(space="atlas").insert(foreign[0])
    with pytest.raises(SpatialError):
        RTree.bulk_load(foreign, space="atlas")
    # One stray rect in an otherwise good batch: refused, and nothing is kept.
    tree = RTree(space="atlas")
    mixed = [Rect((i, i), (i + 1, i + 1), space="atlas", payload=i) for i in range(20)] + foreign[:1]
    with pytest.raises(SpatialError):
        tree.insert_many(mixed)
    assert len(tree) == 0 and tree.bounds() is None
    # A space-less rect is welcome in a named tree, as with insert.
    assert len(RTree.bulk_load([Rect((i, 0), (i + 1, 1)) for i in range(20)], space="atlas")) == 20


@pytest.mark.parametrize("count", [9, 17, 65, 129, 1167])
def test_bulk_load_leaves_no_node_under_filled(count):
    # 17 rects at M = 8 used to pack leaves of 8 / 1 / 8; 1 167 rects at
    # M = 16 left 13 leaves under ``_min_entries``.
    for max_entries in (8, 16):
        items = [
            Rect((i * 7 % 101, i * 13 % 97), (i * 7 % 101 + 3, i * 13 % 97 + 2), payload=i)
            for i in range(count)
        ]
        tree = RTree.bulk_load(items, max_entries=max_entries)
        sizes = rtree_leaf_sizes(tree)
        if count > max_entries:
            assert min(sizes) >= max_entries // 2
            assert max(sizes) - min(sizes) <= 1  # the remainder is dealt evenly


def test_rtree_insert_many_packs_only_an_empty_tree():
    items = [Rect((i, i % 7), (i + 2, i % 7 + 2), payload=i) for i in range(100)]
    family = RTreeFamily(max_entries=8)
    family.insert_many("atlas", items[:60])
    packed_height = family.tree("atlas").height()
    assert packed_height == RTree.bulk_load(items[:60], max_entries=8).height()
    family.insert_many("atlas", items[60:])  # populated now: one by one
    tree = family.tree("atlas")
    rtree_leaf_sizes(tree)
    assert payloads(tree) == list(range(100))
    query = Rect((10, 0), (30, 9))
    assert payloads(tree.search_overlap(query)) == payloads(r for r in items if r.overlaps(query))


# -- interval tree ------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    specs=st.lists(interval_specs, max_size=150),
    queries=st.lists(interval_specs, min_size=1, max_size=4),
    ops=stream(interval_specs),
)
def test_bulk_built_interval_tree_is_the_insert_built_interval_tree(specs, queries, ops):
    items = [make_interval(spec, index) for index, spec in enumerate(specs)]
    bulk = IntervalTree.from_intervals(items)
    grown = IntervalTree()
    for interval in items:
        grown.insert(interval)
    present = list(items)

    def agree():
        assert len(bulk) == len(grown) == len(present)
        assert bulk.span() == grown.span()
        if present:
            assert bulk.span() == Interval(min(i.start for i in present), max(i.end for i in present))
        # In-order payloads equal: same key order, and batch order inside a key.
        assert [i.payload for i in bulk] == [i.payload for i in grown]
        for spec in queries:
            query = make_interval(spec, None)
            overlap = [i.payload for i in present if i.overlaps(query)]
            got = [i.payload for i in bulk.search_overlap(query)]
            assert got == [i.payload for i in grown.search_overlap(query)]
            assert sorted(got) == sorted(overlap)
            assert bulk.count_overlap(query) == grown.count_overlap(query) == len(overlap)
            inside = sorted(i.payload for i in present if query.contains(i))
            assert payloads(bulk.search_contained_in(query)) == inside
            assert payloads(grown.search_contained_in(query)) == inside
        check_interval_tree(bulk)
        check_interval_tree(grown)

    agree()
    for serial, (insert, spec, pick) in enumerate(ops):
        if insert or not present:
            interval = make_interval(spec, len(items) + serial)
            present.append(interval)
            bulk.insert(interval)
            grown.insert(interval)
        else:
            interval = present.pop(pick % len(present))
            assert bulk.remove(interval) and grown.remove(interval)
    agree()


def test_sorted_build_is_perfectly_balanced():
    # 1 000 distinct keys in ascending order — the adversarial order for a BST.
    tree = IntervalTree.from_intervals([Interval(i, i + 5, payload=i) for i in range(1000)])
    assert tree.height() == 10  # ceil(log2(1001))
    check_interval_tree(tree)
    assert _height(tree._root.left) == _height(tree._root.right) == 9


def test_interval_insert_many_checks_the_domain_like_insert_does():
    tree = IntervalTree(domain="chr1")
    batch = [Interval(i, i + 1, domain="chr1", payload=i) for i in range(5)]
    with pytest.raises(SpatialError):
        tree.insert_many(batch + [Interval(9, 10, domain="chr2")])
    assert len(tree) == 0 and tree.span() is None
    tree.insert_many(batch + [Interval(9, 10)])  # domain-less is welcome
    assert len(tree) == 6


def test_interval_insert_many_builds_only_an_empty_tree():
    items = [Interval(i * 3 % 50, i * 3 % 50 + 4, payload=i) for i in range(90)]
    family = IntervalIndexFamily()
    family.insert_many("chr1", items[:50])
    assert family.tree("chr1").height() == 6  # 50 keys packed: ceil(log2(51))
    family.insert_many("chr1", items[50:])  # populated now: AVL inserts
    tree = family.tree("chr1")
    check_interval_tree(tree)
    assert payloads(tree) == list(range(90))

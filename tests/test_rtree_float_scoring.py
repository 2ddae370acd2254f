"""An R-tree insert scores on floats and still builds the tree it always did.

``RTree`` picks a leaf and splits a node by scoring boxes straight from
their corner tuples.  The reference here is the scoring written with
:class:`Rect` methods -- ``enlargement_to_include``, ``area``, ``union`` --
as a subclass kept in this file, with each ancestor's box recomputed after
every insert.  Both trees are driven by the same insert / remove stream and
must hold the same entries, in the same order, under the same boxes.

Integer grids make ties common, so the tie-break key is exercised; 3-D
boxes on a grid of tenths make the order of the area product show
(``0.1 * 0.2 * 0.3`` and ``0.3 * 0.2 * 0.1`` are different floats).  The
streams come from a seeded generator: boxes spread over the grid, where
drawn boxes would bunch at the origin and hide the product order.
"""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SpatialError
from repro.spatial.rect import Rect
from repro.spatial.rtree import RTree, _Entry, _Node


class RectScoredRTree(RTree):
    """Guttman's choice and quadratic split, scored with Rect methods, and
    every ancestor's box recomputed after an insert."""

    def _insert(self, rect):
        leaf = self._choose_leaf(self._root, rect)
        leaf.entries.append(_Entry(rect))
        self._size += 1
        self._handle_overflow(leaf)
        current = leaf
        while current.parent is not None:
            for entry in current.parent.entries:
                if entry.child is current:
                    entry.rect = current.mbr()
                    break
            current = current.parent

    def _choose_leaf(self, node, rect):
        while not node.leaf:
            best, best_key = None, None
            for entry in node.entries:
                key = (entry.rect.enlargement_to_include(rect), entry.rect.area())
                if best_key is None or key < best_key:
                    best, best_key = entry, key
            best.rect = best.rect.union(rect)
            node = best.child
        return node

    def _split(self, node):
        entries = node.entries
        seed_a, seed_b = self._pick_seeds(entries)
        group_a, group_b = [entries[seed_a]], [entries[seed_b]]
        remaining = [entry for position, entry in enumerate(entries) if position not in (seed_a, seed_b)]
        mbr_a, mbr_b = group_a[0].rect, group_b[0].rect
        while remaining:
            if len(group_a) + len(remaining) == self._min_entries:
                group_a.extend(remaining)
                break
            if len(group_b) + len(remaining) == self._min_entries:
                group_b.extend(remaining)
                break
            entry = self._pick_next(remaining, mbr_a, mbr_b)
            remaining.remove(entry)
            enlarge_a = mbr_a.enlargement_to_include(entry.rect)
            enlarge_b = mbr_b.enlargement_to_include(entry.rect)
            if (enlarge_a, mbr_a.area(), len(group_a)) <= (enlarge_b, mbr_b.area(), len(group_b)):
                group_a.append(entry)
                mbr_a = mbr_a.union(entry.rect)
            else:
                group_b.append(entry)
                mbr_b = mbr_b.union(entry.rect)
        node.entries = group_a
        sibling = _Node(leaf=node.leaf)
        sibling.entries = group_b
        if not node.leaf:
            for entry in sibling.entries:
                entry.child.parent = sibling
        return sibling

    @staticmethod
    def _pick_seeds(entries):
        worst_pair, worst_waste = (0, 1), float("-inf")
        for (pos_a, entry_a), (pos_b, entry_b) in itertools.combinations(enumerate(entries), 2):
            waste = entry_a.rect.union(entry_b.rect).area() - entry_a.rect.area() - entry_b.rect.area()
            if waste > worst_waste:
                worst_waste, worst_pair = waste, (pos_a, pos_b)
        return worst_pair

    @staticmethod
    def _pick_next(remaining, mbr_a, mbr_b):
        best_entry, best_difference = remaining[0], float("-inf")
        for entry in remaining:
            difference = abs(
                mbr_a.enlargement_to_include(entry.rect) - mbr_b.enlargement_to_include(entry.rect)
            )
            if difference > best_difference:
                best_difference, best_entry = difference, entry
        return best_entry


def layout(node):
    """The node's entries in order: box corners, then payload or subtree."""
    return [
        (entry.rect.lo, entry.rect.hi, entry.rect.payload if node.leaf else layout(entry.child))
        for entry in node.entries
    ]


def stream(seed: int, dimension: int, step: float, length: int = 150):
    """A seeded insert / remove stream: ``("insert", rect)`` or
    ``("remove", index into the records present)``.  Boxes have integer
    corners and sides on a small grid, scaled by *step*."""
    rng = random.Random(seed)
    present = 0
    for serial in range(length):
        if present and rng.random() < 0.3:
            present -= 1
            yield "remove", rng.randrange(present + 1)
        else:
            present += 1
            corner = [rng.randint(0, 12) for _ in range(dimension)]
            sides = [rng.randint(0, 5) for _ in range(dimension)]
            yield "insert", Rect(
                tuple(value * step for value in corner),
                tuple((value + side) * step for value, side in zip(corner, sides)),
                payload=serial,
            )


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    max_entries=st.sampled_from([4, 5, 8, 16]),
    dimension=st.sampled_from([2, 3]),
    step=st.sampled_from([1, 0.1, 0.3]),
)
def test_float_scored_inserts_build_the_rect_scored_tree(seed, max_entries, dimension, step):
    tree = RTree(max_entries=max_entries)
    reference = RectScoredRTree(max_entries=max_entries)
    present: list[Rect] = []
    for serial, (verb, item) in enumerate(stream(seed, dimension, step)):
        if verb == "insert":
            present.append(item)
            tree.insert(item)
            reference.insert(item)
        else:
            rect = present.pop(item)
            assert tree.remove(rect) and reference.remove(rect)
        if serial % 20 == 19:
            assert layout(tree._root) == layout(reference._root)
    assert layout(tree._root) == layout(reference._root)
    assert len(tree) == len(reference) == len(present)


def test_a_box_of_another_dimension_is_refused_before_anything_changes():
    tree = RTree(max_entries=4)
    flat = [Rect((i, i), (i + 2, i + 1), payload=i) for i in range(3)]
    for rect in flat:
        tree.insert(rect)
    assert tree._root.leaf  # the case no union used to guard
    before = layout(tree._root)
    with pytest.raises(SpatialError):
        tree.insert(Rect((0, 0, 0), (1, 1, 1), payload="cube"))
    assert layout(tree._root) == before and len(tree) == 3
    assert sorted(r.payload for r in tree.search_overlap(Rect((0, 0), (9, 9)))) == [0, 1, 2]
    # Deeper trees refuse it the same way, and a batch with one is refused whole.
    for i in range(3, 40):
        tree.insert(Rect((i, i), (i + 2, i + 1), payload=i))
    before = layout(tree._root)
    with pytest.raises(SpatialError):
        tree.insert(Rect((0,), (1,)))
    with pytest.raises(SpatialError):
        tree.insert_many([Rect((50, 50), (51, 51), payload="ok"), Rect((0, 0, 0), (1, 1, 1))])
    assert layout(tree._root) == before and len(tree) == 40
    assert len(tree.search_overlap(Rect((0, 0), (99, 99)))) == 40

"""R-tree for 2D/3D annotated regions.

The paper stores 2D/3D substructures (image regions referenced against a
shared coordinate system, e.g. a brain atlas at a given resolution) in
R-trees, one per coordinate system.  This module implements a Guttman R-tree
with quadratic node splitting, supporting insertion, deletion, overlap
(window) queries, containment queries, and nearest-neighbour search.
"""

from __future__ import annotations

import itertools
import math
from typing import Any, Iterator

from repro.errors import SpatialError
from repro.spatial.rebuild import rebuild_pays
from repro.spatial.rect import Rect, bounding_rect


class _Entry:
    """An entry in an R-tree node: a box plus, in an inner node, the child it
    bounds.  A leaf entry's box is the stored record itself."""

    __slots__ = ("rect", "child")

    def __init__(self, rect: Rect, child: "_Node | None" = None):
        self.rect = rect
        self.child = child


class _Node:
    """An R-tree node (leaf or internal)."""

    __slots__ = ("leaf", "entries", "parent")

    def __init__(self, leaf: bool):
        self.leaf = leaf
        self.entries: list[_Entry] = []
        self.parent: "_Node | None" = None

    def mbr(self) -> Rect:
        """Minimum bounding rectangle of the node's entries."""
        return bounding_rect([entry.rect for entry in self.entries])


class RTree:
    """Guttman R-tree with quadratic splits.

    Parameters
    ----------
    max_entries:
        Maximum entries per node (``M``); minimum is ``max(2, M // 2)``.
    space:
        Optional coordinate-system name.  When set, inserted rectangles must
        either carry the same space name or none.
    """

    def __init__(self, max_entries: int = 8, space: str | None = None):
        if max_entries < 4:
            raise SpatialError("max_entries must be at least 4")
        self.space = space
        self._max_entries = max_entries
        self._min_entries = max(2, max_entries // 2)
        self._root = _Node(leaf=True)
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def bounds(self) -> Rect | None:
        """Exact minimum bounding rect of every stored rect (None when empty).

        Read from the root's maintained entry MBRs — O(root fan-out), kept
        tight by insert/remove adjustment, so deletions shrink it.
        """
        if self._size == 0:
            return None
        return self._root.mbr()

    @property
    def dimension(self) -> int | None:
        """The dimension of the stored boxes (None while the tree is empty)."""
        return len(self._root.entries[0].rect.lo) if self._size else None

    def __iter__(self) -> Iterator[Rect]:
        yield from self._iterate(self._root)

    def _iterate(self, node: _Node) -> Iterator[Rect]:
        for entry in node.entries:
            if node.leaf:
                yield entry.rect
            else:
                assert entry.child is not None
                yield from self._iterate(entry.child)

    # -- insertion ----------------------------------------------------------

    def insert(self, rect: Rect) -> None:
        """Insert a rectangle record.

        A box in another space than the tree's, or of another dimension than
        the boxes already stored, is refused before anything changes.
        """
        self._refuse_misfits((rect,))
        self._insert(rect)

    def insert_many(self, rects: list[Rect]) -> None:
        """Insert a batch of rectangles.

        The whole batch is checked first, as :meth:`insert` checks one box,
        so a batch with one misfit is refused and the tree left unchanged.
        A batch that fits one leaf, or one too small against the tree for a
        rebuild to pay (:func:`~repro.spatial.rebuild.rebuild_pays`), then
        takes one insert per box; a larger one re-packs the stored boxes and
        the batch together by Sort-Tile-Recursive (:meth:`_str_pack`), which
        on an empty tree is a bulk load.
        """
        rects = list(rects)
        self._refuse_misfits(rects)
        if len(rects) <= self._max_entries or not rebuild_pays(self._size, len(rects)):
            for rect in rects:
                self._insert(rect)
            return
        if self._size:
            rects = [*self._iterate(self._root), *rects]
        self._root = self._str_pack(rects)
        self._size = len(rects)

    def _refuse_misfits(self, rects: "tuple[Rect, ...] | list[Rect]") -> None:
        """Raise :class:`SpatialError` for a box this tree cannot hold: one in
        another space than the tree's, or of another dimension than the
        stored boxes (in an empty tree, than the first box given)."""
        if not rects:
            return
        dimension = self.dimension or len(rects[0].lo)
        for rect in rects:
            if self.space is not None and rect.space not in (None, self.space):
                raise SpatialError(
                    f"rect space {rect.space!r} does not match R-tree space {self.space!r}"
                )
            if len(rect.lo) != dimension:
                raise SpatialError(f"dimension mismatch: {len(rect.lo)} vs {dimension}")

    def _insert(self, rect: Rect) -> None:
        leaf = self._choose_leaf(self._root, rect)
        leaf.entries.append(_Entry(rect))
        self._size += 1
        self._handle_overflow(leaf)

    def _choose_leaf(self, node: _Node, rect: Rect) -> _Node:
        """Descend to the leaf whose path needs the least enlargement, ties
        to the smaller box, widening each chosen entry's box on the way.

        Every stored box is tight, so the widened box is its subtree's exact
        bounding box once *rect* is in the leaf, and a split below leaves it
        so (a split moves records, it adds none): nothing above the leaf is
        adjusted after an insert.

        The candidates are scored on their corner tuples (:func:`_area`,
        :func:`_union_area`): the floats ``enlargement_to_include`` and
        ``area`` would give, with no :class:`Rect` built for them.
        """
        lo, hi = rect.lo, rect.hi
        while not node.leaf:
            best: _Entry | None = None
            best_enlargement = best_area = 0.0
            for entry in node.entries:
                box = entry.rect
                area = _area(box.lo, box.hi)
                enlargement = _union_area(box.lo, box.hi, lo, hi) - area
                # The tuple order (enlargement, area) <, spelled out.
                if (
                    best is None
                    or enlargement < best_enlargement
                    or (enlargement == best_enlargement and area < best_area)
                ):
                    best, best_enlargement, best_area = entry, enlargement, area
            assert best is not None and best.child is not None
            best.rect = best.rect.union(rect)
            node = best.child
        return node

    def _handle_overflow(self, node: _Node) -> None:
        while len(node.entries) > self._max_entries:
            sibling = self._split(node)
            parent = node.parent
            if parent is None:
                new_root = _Node(leaf=False)
                for child in (node, sibling):
                    child.parent = new_root
                    new_root.entries.append(_Entry(child.mbr(), child=child))
                self._root = new_root
                return
            sibling.parent = parent
            for entry in parent.entries:
                if entry.child is node:
                    entry.rect = node.mbr()
                    break
            parent.entries.append(_Entry(sibling.mbr(), child=sibling))
            node = parent

    def _split(self, node: _Node) -> _Node:
        """Quadratic split: pick the two seeds wasting the most area, then
        distribute remaining entries by minimum enlargement.

        Each group's box is kept as corner tuples and its area as a float,
        so scoring builds no :class:`Rect`.
        """
        entries = node.entries
        seed_a, seed_b = self._pick_seeds(entries)
        group_a = [entries[seed_a]]
        group_b = [entries[seed_b]]
        remaining = [entry for position, entry in enumerate(entries) if position not in (seed_a, seed_b)]
        lo_a, hi_a = group_a[0].rect.lo, group_a[0].rect.hi
        lo_b, hi_b = group_b[0].rect.lo, group_b[0].rect.hi
        area_a, area_b = _area(lo_a, hi_a), _area(lo_b, hi_b)
        while remaining:
            # Force assignment when one group must absorb all remaining entries.
            if len(group_a) + len(remaining) == self._min_entries:
                group_a.extend(remaining)
                remaining = []
                break
            if len(group_b) + len(remaining) == self._min_entries:
                group_b.extend(remaining)
                remaining = []
                break
            entry = remaining.pop(self._pick_next(remaining, lo_a, hi_a, area_a, lo_b, hi_b, area_b))
            lo, hi = entry.rect.lo, entry.rect.hi
            enlarge_a = _union_area(lo_a, hi_a, lo, hi) - area_a
            enlarge_b = _union_area(lo_b, hi_b, lo, hi) - area_b
            if (enlarge_a, area_a, len(group_a)) <= (enlarge_b, area_b, len(group_b)):
                group_a.append(entry)
                lo_a, hi_a = _union_corners(lo_a, hi_a, lo, hi)
                area_a = _area(lo_a, hi_a)
            else:
                group_b.append(entry)
                lo_b, hi_b = _union_corners(lo_b, hi_b, lo, hi)
                area_b = _area(lo_b, hi_b)
        node.entries = group_a
        sibling = _Node(leaf=node.leaf)
        sibling.entries = group_b
        if not node.leaf:
            for entry in sibling.entries:
                assert entry.child is not None
                entry.child.parent = sibling
        return sibling

    @staticmethod
    def _pick_seeds(entries: list[_Entry]) -> tuple[int, int]:
        """The first pair, in entry order, whose covering box wastes the most
        area beyond the two boxes' own."""
        corners = [(entry.rect.lo, entry.rect.hi) for entry in entries]
        areas = [_area(lo, hi) for lo, hi in corners]
        worst_pair = (0, 1)
        worst_waste = float("-inf")
        for pos_a, pos_b in itertools.combinations(range(len(entries)), 2):
            lo_a, hi_a = corners[pos_a]
            lo_b, hi_b = corners[pos_b]
            waste = _union_area(lo_a, hi_a, lo_b, hi_b) - areas[pos_a] - areas[pos_b]
            if waste > worst_waste:
                worst_waste = waste
                worst_pair = (pos_a, pos_b)
        return worst_pair

    @staticmethod
    def _pick_next(
        remaining: list[_Entry],
        lo_a: tuple[float, ...],
        hi_a: tuple[float, ...],
        area_a: float,
        lo_b: tuple[float, ...],
        hi_b: tuple[float, ...],
        area_b: float,
    ) -> int:
        """Position of the first remaining entry with the strongest
        preference for one group."""
        best = 0
        best_difference = float("-inf")
        for position, entry in enumerate(remaining):
            lo, hi = entry.rect.lo, entry.rect.hi
            difference = abs(
                (_union_area(lo_a, hi_a, lo, hi) - area_a) - (_union_area(lo_b, hi_b, lo, hi) - area_b)
            )
            if difference > best_difference:
                best_difference = difference
                best = position
        return best

    # -- deletion -----------------------------------------------------------

    def remove(self, rect: Rect) -> bool:
        """Remove one record equal to *rect* (same bounds and payload).

        Returns ``True`` when a record was removed.  Underflowing nodes are
        condensed by re-inserting orphaned records (Guttman's CondenseTree).
        """
        leaf = self._find_leaf(self._root, rect)
        if leaf is None:
            return False
        for position, entry in enumerate(leaf.entries):
            if entry.rect == rect and entry.rect.payload == rect.payload:
                leaf.entries.pop(position)
                self._size -= 1
                self._condense(leaf)
                return True
        return False

    def _find_leaf(self, node: _Node, rect: Rect) -> _Node | None:
        if node.leaf:
            for entry in node.entries:
                if entry.rect == rect and entry.rect.payload == rect.payload:
                    return node
            return None
        for entry in node.entries:
            if entry.rect.overlaps(rect):
                assert entry.child is not None
                found = self._find_leaf(entry.child, rect)
                if found is not None:
                    return found
        return None

    def _condense(self, node: _Node) -> None:
        orphans: list[Rect] = []
        current = node
        while current.parent is not None:
            parent = current.parent
            if len(current.entries) < self._min_entries:
                parent.entries = [entry for entry in parent.entries if entry.child is not current]
                orphans.extend(self._collect_records(current))
            else:
                for entry in parent.entries:
                    if entry.child is current:
                        entry.rect = current.mbr()
                        break
            current = parent
        if not self._root.leaf and len(self._root.entries) == 1:
            only = self._root.entries[0].child
            assert only is not None
            only.parent = None
            self._root = only
        if not self._root.leaf and not self._root.entries:
            self._root = _Node(leaf=True)
        self._size -= len(orphans)
        for record in orphans:
            self.insert(record)

    def _collect_records(self, node: _Node) -> list[Rect]:
        return list(self._iterate(node))

    # -- queries ------------------------------------------------------------

    def search_overlap(self, query: Rect, stop: int | None = None) -> list[Rect]:
        """All stored records whose box overlaps *query*, depth-first in
        entry order.  With *stop*, the walk ends once it holds more than
        *stop* records, and returns that prefix of the answer."""
        return self._search(query, containment=False, stop=stop)

    def search_contained_in(self, query: Rect) -> list[Rect]:
        """All stored records fully contained in *query*."""
        return self._search(query, containment=True)

    def search_point(self, point: tuple[float, ...]) -> list[Rect]:
        """All stored records containing *point*."""
        query = Rect(point, point, space=self.space)
        return self.search_overlap(query)

    def count_overlap(self, query: Rect) -> int:
        """Number of stored records overlapping *query*."""
        return len(self.search_overlap(query))

    def nearest(self, point: tuple[float, ...], count: int = 1) -> list[Rect]:
        """The *count* records nearest to *point* (branch-and-bound search)."""
        if self._size == 0:
            return []
        target = Rect(point, point, space=self.space)
        best: list[tuple[float, int, Rect]] = []
        counter = itertools.count()

        def visit(node: _Node) -> None:
            candidates = []
            for entry in node.entries:
                distance = entry.rect.min_distance(target)
                candidates.append((distance, entry))
            candidates.sort(key=lambda item: item[0])
            for distance, entry in candidates:
                if len(best) >= count and distance > best[-1][0]:
                    continue
                if node.leaf:
                    best.append((distance, next(counter), entry.rect))
                    best.sort(key=lambda item: (item[0], item[1]))
                    del best[count:]
                else:
                    assert entry.child is not None
                    visit(entry.child)

        visit(self._root)
        return [record for _, _, record in best]

    def height(self) -> int:
        """Height of the tree (1 for a single leaf root)."""
        height = 1
        node = self._root
        while not node.leaf:
            height += 1
            assert node.entries[0].child is not None
            node = node.entries[0].child
        return height

    def _search(self, query: Rect, containment: bool, stop: int | None = None) -> list[Rect]:
        """Depth-first walk in entry order that tests each entry's box once.

        The overlap comparison is inlined.  A box of another dimension than
        the query's, or of another space than a query naming a space other
        than the tree's, goes to ``_check_compatible``, which raises
        :class:`SpatialError` for it; stored boxes carry no space or the
        tree's, so a query in the tree's own space skips the space test.
        With *containment*, a leaf record must also lie inside *query*.  With
        *stop*, the walk ends after the first leaf that takes the results past
        *stop* records.
        """
        query_lo, query_hi, space = query.lo, query.hi, query.space
        dimension = len(query_lo)
        axes = range(dimension)
        foreign = space is not None and space != self.space
        results: list[Rect] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            leaf = node.leaf
            children = []
            for entry in node.entries:
                rect = entry.rect
                lo, hi = rect.lo, rect.hi
                if len(lo) != dimension or (foreign and rect.space not in (None, space)):
                    rect._check_compatible(query)
                for axis in axes:
                    if lo[axis] > query_hi[axis] or query_lo[axis] > hi[axis]:
                        break
                else:
                    if not leaf:
                        children.append(entry.child)
                    elif not containment or query.contains(rect):
                        results.append(rect)
            if stop is not None and len(results) > stop:
                return results
            # Reversed onto the stack, so the first child is walked first.
            stack.extend(reversed(children))
        return results

    # -- bulk construction ----------------------------------------------------

    @classmethod
    def from_rects(cls, rects: list[Rect], max_entries: int = 8, space: str | None = None) -> "RTree":
        """Build an R-tree by one-by-one insertion (the tree :meth:`bulk_load`
        is tested against)."""
        tree = cls(max_entries=max_entries, space=space)
        for rect in rects:
            tree.insert(rect)
        return tree

    @classmethod
    def bulk_load(cls, rects: list[Rect], max_entries: int = 8, space: str | None = None) -> "RTree":
        """Build an R-tree by Sort-Tile-Recursive (STR) bulk loading.

        A near-optimal, well-packed tree far faster than repeated insertion;
        see :meth:`insert_many`, which this is on a new tree.
        """
        tree = cls(max_entries=max_entries, space=space)
        tree.insert_many(rects)
        return tree

    def _str_pack(self, rects: list[Rect]) -> _Node:
        """Pack *rects* (more than one leaf's worth; sorted in place) into a
        subtree by Sort-Tile-Recursive and return its root.

        Leaves: sort by x centre, cut into about sqrt(leaf count) vertical
        tiles, sort each tile by y centre, cut it into leaves.  Each upper
        level: sort the nodes below by x centre and cut into runs.  Every cut
        deals its remainder evenly (:meth:`_runs`), so every node but the root
        holds at least ``_min_entries`` — what :meth:`remove` assumes when it
        condenses.
        """
        leaf_sizes = self._runs(len(rects))
        rects.sort(key=lambda rect: rect.center[0])
        nodes: list[_Node] = []
        start = first_leaf = 0
        for leaves_in_tile in _deal(len(leaf_sizes), math.ceil(math.sqrt(len(leaf_sizes)))):
            tile_sizes = leaf_sizes[first_leaf:first_leaf + leaves_in_tile]
            first_leaf += leaves_in_tile
            tile = rects[start:start + sum(tile_sizes)]
            start += len(tile)
            tile.sort(key=lambda rect: rect.center[1 if rect.dimension > 1 else 0])
            offset = 0
            for size in tile_sizes:
                leaf = _Node(leaf=True)
                leaf.entries = [_Entry(rect) for rect in tile[offset:offset + size]]
                offset += size
                nodes.append(leaf)
        while len(nodes) > 1:
            boxed = sorted(((node.mbr(), node) for node in nodes), key=lambda pair: pair[0].center[0])
            nodes = []
            start = 0
            for size in self._runs(len(boxed)):
                parent = _Node(leaf=False)
                for box, child in boxed[start:start + size]:
                    child.parent = parent
                    parent.entries.append(_Entry(box, child=child))
                start += size
                nodes.append(parent)
        return nodes[0]

    def _runs(self, count: int) -> list[int]:
        """Node sizes for packing *count* entries into one level.

        Nodes are filled to three quarters, about what repeated inserts
        leave: a node packed full splits on the first insert that reaches it,
        and the writes replayed after a snapshot load (or served after a
        recovery) all arrive at once — 300 inserts into 1 167 packed rects
        at M = 16 took 216 ms at full fill, 137 ms at 12 of 16, against
        127 ms into the insert-built tree.  One node takes everything that
        fits it (the root), and the group count is capped so that no node
        falls under ``_min_entries``.
        """
        if count <= self._max_entries:
            return [count]
        fill = max(self._min_entries, 3 * self._max_entries // 4)
        return _deal(count, min(math.ceil(count / fill), count // self._min_entries))


def _area(lo: tuple[float, ...], hi: tuple[float, ...]) -> float:
    """:meth:`Rect.area` of the box with corners *lo* and *hi*."""
    result = 1.0
    for low, high in zip(lo, hi):
        result *= high - low
    return result


def _union_area(
    lo: tuple[float, ...],
    hi: tuple[float, ...],
    other_lo: tuple[float, ...],
    other_hi: tuple[float, ...],
) -> float:
    """``rect.union(other).area()`` on corner tuples.

    The same comparisons ``min`` / ``max`` make, with the same argument
    order, and the same products in the same order, so the float is the
    one the :class:`Rect` methods give -- and a tie breaks the same way.
    """
    result = 1.0
    for low, high, other_low, other_high in zip(lo, hi, other_lo, other_hi):
        result *= (other_high if other_high > high else high) - (
            other_low if other_low < low else low
        )
    return result


def _union_corners(
    lo: tuple[float, ...],
    hi: tuple[float, ...],
    other_lo: tuple[float, ...],
    other_hi: tuple[float, ...],
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The corners of ``rect.union(other)``."""
    return (
        tuple(map(min, lo, other_lo)),
        tuple(map(max, hi, other_hi)),
    )


def _deal(count: int, groups: int) -> list[int]:
    """Sizes of *groups* runs sharing *count* items as evenly as possible."""
    base, extra = divmod(count, groups)
    return [base + 1] * extra + [base] * (groups - extra)


class RTreeFamily:
    """A family of R-trees keyed by coordinate-system name.

    Mirrors the paper's optimisation: "regions [of] all brain images of the
    same resolution are referenced with respect to the same brain coordinate
    system, and placed in a single R-tree".
    """

    def __init__(self, max_entries: int = 8):
        self._max_entries = max_entries
        self._trees: dict[str, RTree] = {}

    def __len__(self) -> int:
        return len(self._trees)

    def __contains__(self, space: str) -> bool:
        return space in self._trees

    @property
    def spaces(self) -> tuple[str, ...]:
        """Known coordinate-system names."""
        return tuple(self._trees)

    def tree(self, space: str) -> RTree:
        """The R-tree for *space*, created on first use."""
        if space not in self._trees:
            self._trees[space] = RTree(max_entries=self._max_entries, space=space)
        return self._trees[space]

    def insert(self, space: str, rect: Rect) -> None:
        """Insert a rectangle into the R-tree for *space*."""
        self.tree(space).insert(rect)

    def insert_many(self, space: str, rects: list[Rect]) -> None:
        """Insert a batch into the R-tree for *space* (one STR re-pack when
        the batch is large against that tree; see :meth:`RTree.insert_many`)."""
        self.tree(space).insert_many(rects)

    def search_overlap(self, space: str, query: Rect, stop: int | None = None) -> list[Rect]:
        """Overlap query against one coordinate system; *stop* as in
        :meth:`RTree.search_overlap`."""
        if space not in self._trees:
            return []
        return self._trees[space].search_overlap(query, stop)

    def total_rects(self) -> int:
        """Total number of indexed rectangles across all spaces."""
        return sum(len(tree) for tree in self._trees.values())

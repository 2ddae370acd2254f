"""Augmented interval tree (one per coordinate domain).

The paper keeps "a single interval tree ... per chromosome instead of per
annotated DNA sequence".  This module implements a classic augmented
balanced-BST interval tree: nodes are keyed by interval start and each node
stores the maximum end value of its subtree, giving O(log n + k) stabbing and
overlap queries.  Balancing uses the AVL discipline so adversarially ordered
inserts (e.g. sorted genomic features) stay logarithmic.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator

from repro.errors import SpatialError
from repro.spatial.interval import Interval


class _Node:
    """One AVL node holding all intervals that share a ``(start, end)`` key."""

    __slots__ = ("key", "intervals", "left", "right", "height", "max_end")

    def __init__(self, interval: Interval):
        self.key = (interval.start, interval.end)
        self.intervals: list[Interval] = [interval]
        self.left: _Node | None = None
        self.right: _Node | None = None
        self.height = 1
        self.max_end = interval.end


def _height(node: _Node | None) -> int:
    return node.height if node is not None else 0


def _max_end(node: _Node | None) -> float:
    return node.max_end if node is not None else float("-inf")


def _update(node: _Node) -> None:
    node.height = 1 + max(_height(node.left), _height(node.right))
    node.max_end = max(node.key[1], _max_end(node.left), _max_end(node.right))


def _rotate_right(node: _Node) -> _Node:
    pivot = node.left
    assert pivot is not None
    node.left = pivot.right
    pivot.right = node
    _update(node)
    _update(pivot)
    return pivot


def _rotate_left(node: _Node) -> _Node:
    pivot = node.right
    assert pivot is not None
    node.right = pivot.left
    pivot.left = node
    _update(node)
    _update(pivot)
    return pivot


def _balance(node: _Node) -> _Node:
    _update(node)
    balance = _height(node.left) - _height(node.right)
    if balance > 1:
        assert node.left is not None
        if _height(node.left.left) < _height(node.left.right):
            node.left = _rotate_left(node.left)
        return _rotate_right(node)
    if balance < -1:
        assert node.right is not None
        if _height(node.right.right) < _height(node.right.left):
            node.right = _rotate_right(node.right)
        return _rotate_left(node)
    return node


def _build_balanced(nodes: list[_Node], lo: int, hi: int) -> _Node | None:
    """Link the key-sorted ``nodes[lo:hi]`` into a perfectly balanced subtree.

    The middle node is the root, so sibling subtrees differ by at most one
    node and therefore at most one level — the AVL invariant later
    ``insert``/``remove`` calls rebalance from — and ``height`` / ``max_end``
    are filled in bottom-up on the way out.
    """
    if lo >= hi:
        return None
    mid = (lo + hi) // 2
    node = nodes[mid]
    node.left = _build_balanced(nodes, lo, mid)
    node.right = _build_balanced(nodes, mid + 1, hi)
    _update(node)
    return node


class IntervalTree:
    """Augmented AVL interval tree over one coordinate domain.

    Parameters
    ----------
    domain:
        Optional domain name (e.g. ``"chr7"``).  When set, inserted intervals
        must either carry the same domain or no domain at all.
    """

    def __init__(self, domain: str | None = None):
        self.domain = domain
        self._root: _Node | None = None
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def __iter__(self) -> Iterator[Interval]:
        yield from self._inorder(self._root)

    # -- mutation -----------------------------------------------------------

    def insert(self, interval: Interval) -> None:
        """Insert an interval (duplicates with distinct payloads are kept)."""
        if self.domain is not None and interval.domain not in (None, self.domain):
            raise SpatialError(
                f"interval domain {interval.domain!r} does not match tree domain {self.domain!r}"
            )
        self._root = self._insert(self._root, interval)
        self._size += 1

    def insert_many(self, intervals: list[Interval]) -> None:
        """Insert a batch of intervals.

        An empty tree is built from the sorted batch in one pass
        (:func:`_build_balanced`), after the same domain check :meth:`insert`
        makes; a tree that already holds intervals takes them one by one.
        Intervals sharing a ``(start, end)`` key keep their batch order
        inside the node, exactly as repeated inserts would leave them.
        """
        intervals = list(intervals)
        if self._size:
            for interval in intervals:
                self.insert(interval)
            return
        if self.domain is not None:
            for interval in intervals:
                if interval.domain not in (None, self.domain):
                    raise SpatialError(
                        f"interval domain {interval.domain!r} does not match "
                        f"tree domain {self.domain!r}"
                    )
        nodes: list[_Node] = []
        for interval in sorted(intervals, key=lambda item: (item.start, item.end)):
            if nodes and nodes[-1].key == (interval.start, interval.end):
                nodes[-1].intervals.append(interval)
            else:
                nodes.append(_Node(interval))
        self._root = _build_balanced(nodes, 0, len(nodes))
        self._size = len(intervals)

    def remove(self, interval: Interval) -> bool:
        """Remove one stored interval equal to *interval* (same start/end and
        payload).  Returns ``True`` when something was removed."""
        removed, self._root = self._remove(self._root, interval)
        if removed:
            self._size -= 1
        return removed

    def _insert(self, node: _Node | None, interval: Interval) -> _Node:
        if node is None:
            return _Node(interval)
        key = (interval.start, interval.end)
        if key == node.key:
            node.intervals.append(interval)
            _update(node)
            return node
        if key < node.key:
            node.left = self._insert(node.left, interval)
        else:
            node.right = self._insert(node.right, interval)
        return _balance(node)

    def _remove(self, node: _Node | None, interval: Interval) -> tuple[bool, _Node | None]:
        if node is None:
            return False, None
        key = (interval.start, interval.end)
        if key < node.key:
            removed, node.left = self._remove(node.left, interval)
            return removed, _balance(node) if node else node
        if key > node.key:
            removed, node.right = self._remove(node.right, interval)
            return removed, _balance(node)
        # key matches: remove one matching interval (payload-aware)
        for position, stored in enumerate(node.intervals):
            if stored.payload == interval.payload:
                node.intervals.pop(position)
                break
        else:
            return False, _balance(node)
        if node.intervals:
            return True, _balance(node)
        # node is now empty: splice it out of the BST
        if node.left is None:
            return True, node.right
        if node.right is None:
            return True, node.left
        successor = node.right
        while successor.left is not None:
            successor = successor.left
        node.key = successor.key
        node.intervals = successor.intervals
        successor.intervals = []
        _, node.right = self._remove_node(node.right, successor)
        return True, _balance(node)

    def _remove_node(self, node: _Node | None, target: _Node) -> tuple[bool, _Node | None]:
        if node is None:
            return False, None
        if node is target:
            if node.left is None:
                return True, node.right
            if node.right is None:
                return True, node.left
        if target.key < node.key:
            removed, node.left = self._remove_node(node.left, target)
        else:
            removed, node.right = self._remove_node(node.right, target)
        return removed, _balance(node)

    # -- queries ------------------------------------------------------------

    def search_overlap(self, query: Interval) -> list[Interval]:
        """All stored intervals overlapping *query*, sorted by (start, end)."""
        results: list[Interval] = []
        self._search(self._root, query, results)
        results.sort(key=lambda item: (item.start, item.end))
        return results

    def stab(self, point: float) -> list[Interval]:
        """All stored intervals containing *point*."""
        return self.search_overlap(Interval(point, point, domain=self.domain))

    def search_contained_in(self, query: Interval) -> list[Interval]:
        """All stored intervals fully contained in *query*."""
        return [interval for interval in self.search_overlap(query) if query.contains(interval)]

    def next_after(self, query: Interval) -> Interval | None:
        """The paper's ``next`` operator: the first stored interval strictly
        after *query* in the (start, end) ordering."""
        best: Interval | None = None
        node = self._root
        key = (query.start, query.end)
        while node is not None:
            if node.key > key:
                best = node.intervals[0]
                node = node.left
            else:
                node = node.right
        return best

    def count_overlap(self, query: Interval) -> int:
        """Number of stored intervals overlapping *query*."""
        return len(self.search_overlap(query))

    def span(self) -> Interval | None:
        """Smallest interval covering every stored interval, or None if empty."""
        if self._root is None:
            return None
        node = self._root
        while node.left is not None:
            node = node.left
        return Interval(node.key[0], self._root.max_end, domain=self.domain)

    def height(self) -> int:
        """Tree height (0 when empty); useful for balance assertions."""
        return _height(self._root)

    def _search(self, node: _Node | None, query: Interval, results: list[Interval]) -> None:
        if node is None:
            return
        if _max_end(node) < query.start:
            return
        self._search(node.left, query, results)
        if node.key[0] <= query.end and query.start <= node.key[1]:
            results.extend(
                interval for interval in node.intervals if interval.overlaps(query)
            )
        if node.key[0] <= query.end:
            self._search(node.right, query, results)

    def _inorder(self, node: _Node | None) -> Iterator[Interval]:
        if node is None:
            return
        yield from self._inorder(node.left)
        yield from node.intervals
        yield from self._inorder(node.right)

    # -- bulk construction ----------------------------------------------------

    @classmethod
    def from_intervals(cls, intervals: list[Interval], domain: str | None = None) -> "IntervalTree":
        """Build a balanced tree from a list of intervals (one sorted pass;
        see :meth:`insert_many`)."""
        tree = cls(domain=domain)
        tree.insert_many(intervals)
        return tree


class IntervalIndexFamily:
    """A family of interval trees keyed by domain name.

    The paper's space optimisation ("a single interval tree is created per
    chromosome instead of per annotated DNA sequence") is exactly this
    grouping: referents from many sequences that share a coordinate domain
    live in the same tree.
    """

    def __init__(self) -> None:
        self._trees: dict[str, IntervalTree] = {}

    def __len__(self) -> int:
        return len(self._trees)

    def __contains__(self, domain: str) -> bool:
        return domain in self._trees

    @property
    def domains(self) -> tuple[str, ...]:
        """Known coordinate domains."""
        return tuple(self._trees)

    def tree(self, domain: str) -> IntervalTree:
        """The tree for *domain*, created on first use."""
        if domain not in self._trees:
            self._trees[domain] = IntervalTree(domain=domain)
        return self._trees[domain]

    def insert(self, domain: str, interval: Interval) -> None:
        """Insert an interval into the tree for *domain*."""
        self.tree(domain).insert(interval)

    def insert_many(self, domain: str, intervals: list[Interval]) -> None:
        """Insert a batch into the tree for *domain* (one sorted build when
        that tree is still empty; see :meth:`IntervalTree.insert_many`)."""
        self.tree(domain).insert_many(intervals)

    def search_overlap(self, domain: str, query: Interval) -> list[Interval]:
        """Overlap query against one domain (empty when the domain is unknown)."""
        if domain not in self._trees:
            return []
        return self._trees[domain].search_overlap(query)

    def total_intervals(self) -> int:
        """Total number of indexed intervals across all domains."""
        return sum(len(tree) for tree in self._trees.values())

    def apply(self, fn: Callable[[str, IntervalTree], Any]) -> list[Any]:
        """Apply *fn(domain, tree)* to every tree and collect the results."""
        return [fn(domain, tree) for domain, tree in self._trees.items()]

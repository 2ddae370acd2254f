"""Axis-aligned rectangles / boxes in 2 or 3 dimensions.

A :class:`Rect` is the unit stored in Graphitti's R-trees: an annotated image
region (2D) or volumetric region (3D), expressed in a shared coordinate
system such as a brain atlas space.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.errors import SpatialError


@dataclass(frozen=True)
class Rect:
    """An axis-aligned box: ``lo[i] <= hi[i]`` for every dimension ``i``.

    Parameters
    ----------
    lo, hi:
        Lower and upper corner coordinates.  Both must have the same length
        (2 or 3 in practice, any dimension is supported).
    space:
        Optional name of the coordinate system the box lives in.
    payload:
        Arbitrary payload (typically a referent identifier).
    """

    lo: tuple[float, ...]
    hi: tuple[float, ...]
    space: str | None = field(default=None, compare=False)
    payload: Any = field(default=None, compare=False)

    def __post_init__(self) -> None:
        lo = tuple(float(value) for value in self.lo)
        hi = tuple(float(value) for value in self.hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if len(lo) != len(hi):
            raise SpatialError("lo and hi must have the same dimensionality")
        if not lo:
            raise SpatialError("a rectangle needs at least one dimension")
        for low, high in zip(lo, hi):
            if high < low:
                raise SpatialError(f"upper bound {high} precedes lower bound {low}")

    @classmethod
    def from_points(cls, *points: Sequence[float], space: str | None = None, payload: Any = None) -> "Rect":
        """Bounding box of a set of points."""
        if not points:
            raise SpatialError("at least one point is required")
        dimension = len(points[0])
        lo = tuple(min(point[i] for point in points) for i in range(dimension))
        hi = tuple(max(point[i] for point in points) for i in range(dimension))
        return cls(lo, hi, space=space, payload=payload)

    @property
    def dimension(self) -> int:
        """Number of dimensions."""
        return len(self.lo)

    @property
    def center(self) -> tuple[float, ...]:
        """Center point of the box."""
        return tuple((low + high) / 2.0 for low, high in zip(self.lo, self.hi))

    def extent(self, axis: int) -> float:
        """Length along *axis*."""
        return self.hi[axis] - self.lo[axis]

    def area(self) -> float:
        """Hyper-volume of the box (area in 2D, volume in 3D)."""
        result = 1.0
        for low, high in zip(self.lo, self.hi):
            result *= (high - low)
        return result

    def margin(self) -> float:
        """Sum of the edge lengths (the R*-tree 'margin' measure)."""
        return sum(high - low for low, high in zip(self.lo, self.hi))

    def overlaps(self, other: "Rect") -> bool:
        """True when the closed boxes share at least one point."""
        self._check_compatible(other)
        return all(
            low <= other_high and other_low <= high
            for low, high, other_low, other_high in zip(self.lo, self.hi, other.lo, other.hi)
        )

    def contains(self, other: "Rect") -> bool:
        """True when *other* lies entirely inside this box."""
        self._check_compatible(other)
        return all(
            low <= other_low and other_high <= high
            for low, high, other_low, other_high in zip(self.lo, self.hi, other.lo, other.hi)
        )

    def contains_point(self, point: Sequence[float]) -> bool:
        """True when *point* lies within the closed box."""
        if len(point) != self.dimension:
            raise SpatialError("point dimensionality mismatch")
        return all(low <= value <= high for low, high, value in zip(self.lo, self.hi, point))

    def intersection(self, other: "Rect") -> "Rect | None":
        """The overlapping box, or ``None`` when disjoint.

        This is the paper's ``intersect`` operator for convex 2D/3D regions.
        """
        if not self.overlaps(other):
            return None
        lo = tuple(max(low, other_low) for low, other_low in zip(self.lo, other.lo))
        hi = tuple(min(high, other_high) for high, other_high in zip(self.hi, other.hi))
        return Rect(lo, hi, space=self.space)

    def union(self, other: "Rect") -> "Rect":
        """Smallest box covering both."""
        self._check_compatible(other)
        lo = tuple(min(low, other_low) for low, other_low in zip(self.lo, other.lo))
        hi = tuple(max(high, other_high) for high, other_high in zip(self.hi, other.hi))
        return Rect(lo, hi, space=self.space or other.space)

    def enlargement_to_include(self, other: "Rect") -> float:
        """Increase in area needed to cover *other* (Guttman's insertion metric)."""
        return self.union(other).area() - self.area()

    def overlap_area(self, other: "Rect") -> float:
        """Area of the intersection (0 when disjoint)."""
        shared = self.intersection(other)
        return shared.area() if shared is not None else 0.0

    def min_distance(self, other: "Rect") -> float:
        """Minimum Euclidean distance between the two boxes (0 when overlapping)."""
        self._check_compatible(other)
        total = 0.0
        for low, high, other_low, other_high in zip(self.lo, self.hi, other.lo, other.hi):
            if other_high < low:
                gap = low - other_high
            elif high < other_low:
                gap = other_low - high
            else:
                gap = 0.0
            total += gap * gap
        return total ** 0.5

    def with_payload(self, payload: Any) -> "Rect":
        """Copy carrying *payload*."""
        return Rect(self.lo, self.hi, space=self.space, payload=payload)

    def _check_compatible(self, other: "Rect") -> None:
        if self.dimension != other.dimension:
            raise SpatialError(
                f"dimension mismatch: {self.dimension} vs {other.dimension}"
            )
        if self.space is not None and other.space is not None and self.space != other.space:
            raise SpatialError(
                f"coordinate-space mismatch: {self.space!r} vs {other.space!r}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        space = f" {self.space}" if self.space else ""
        return f"Rect({self.lo} .. {self.hi}{space})"


def bounding_rect(rects: Sequence[Rect]) -> Rect:
    """Smallest box covering every box in *rects*.

    The boxes must share a dimension and a coordinate space (a box naming
    none fits any); the result is in the first space named.  The corners are
    folded per axis over the floats, so only the result is built as a
    :class:`Rect` -- the same box a :meth:`Rect.union` fold would give.
    """
    if not rects:
        raise SpatialError("bounding_rect() of an empty sequence")
    anchor = next((rect for rect in rects if rect.space is not None), rects[0])
    for rect in rects:
        anchor._check_compatible(rect)
    lo = tuple(map(min, zip(*(rect.lo for rect in rects))))
    hi = tuple(map(max, zip(*(rect.hi for rect in rects))))
    return Rect(lo, hi, space=anchor.space)

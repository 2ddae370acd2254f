"""Tests for axis-aligned rectangles/boxes."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import SpatialError
from repro.spatial.rect import Rect, bounding_rect


def test_rect_rejects_inverted():
    with pytest.raises(SpatialError):
        Rect((5, 5), (1, 1))


def test_rect_requires_matching_dims():
    with pytest.raises(SpatialError):
        Rect((0, 0), (1, 1, 1))


def test_dimension_and_center():
    rect = Rect((0, 0), (10, 20))
    assert rect.dimension == 2
    assert rect.center == (5, 10)


def test_area_2d_and_3d():
    assert Rect((0, 0), (2, 3)).area() == 6
    assert Rect((0, 0, 0), (2, 3, 4)).area() == 24


def test_margin():
    assert Rect((0, 0), (2, 3)).margin() == 5


def test_overlaps_and_contains():
    a = Rect((0, 0), (10, 10))
    b = Rect((5, 5), (15, 15))
    c = Rect((2, 2), (3, 3))
    assert a.overlaps(b)
    assert a.contains(c)
    assert not a.contains(b)


def test_overlaps_space_mismatch():
    a = Rect((0, 0), (1, 1), space="x")
    b = Rect((0, 0), (1, 1), space="y")
    with pytest.raises(SpatialError):
        a.overlaps(b)


def test_intersection():
    a = Rect((0, 0), (10, 10))
    b = Rect((5, 5), (15, 15))
    assert a.intersection(b) == Rect((5, 5), (10, 10))
    assert a.intersection(Rect((20, 20), (30, 30))) is None


def test_union_and_enlargement():
    a = Rect((0, 0), (2, 2))
    b = Rect((4, 4), (6, 6))
    assert a.union(b) == Rect((0, 0), (6, 6))
    assert a.enlargement_to_include(b) == Rect((0, 0), (6, 6)).area() - a.area()


def test_overlap_area():
    a = Rect((0, 0), (10, 10))
    b = Rect((5, 5), (15, 15))
    assert a.overlap_area(b) == 25
    assert a.overlap_area(Rect((20, 20), (30, 30))) == 0


def test_min_distance():
    a = Rect((0, 0), (2, 2))
    b = Rect((5, 0), (7, 2))
    assert a.min_distance(b) == 3
    assert a.min_distance(Rect((1, 1), (3, 3))) == 0


def test_from_points():
    rect = Rect.from_points((1, 5), (3, 2), (0, 4))
    assert rect.lo == (0, 2) and rect.hi == (3, 5)


def test_contains_point():
    rect = Rect((0, 0), (10, 10))
    assert rect.contains_point((5, 5))
    assert not rect.contains_point((11, 5))


def test_bounding_rect():
    rects = [Rect((0, 0), (1, 1)), Rect((5, 5), (6, 6))]
    assert bounding_rect(rects) == Rect((0, 0), (6, 6))


def test_bounding_rect_empty():
    with pytest.raises(SpatialError):
        bounding_rect([])


def test_bounding_rect_takes_the_first_named_space_and_refuses_a_mismatch():
    rects = [Rect((0, 0), (1, 1)), Rect((2, 2), (3, 3), space="a"), Rect((1, 1), (2, 2))]
    assert bounding_rect(rects).space == "a"
    with pytest.raises(SpatialError, match="coordinate-space"):
        bounding_rect(rects + [Rect((0, 0), (1, 1), space="b")])
    with pytest.raises(SpatialError, match="dimension"):
        bounding_rect(rects + [Rect((0, 0, 0), (1, 1, 1))])


@given(
    ax=st.integers(-20, 20), ay=st.integers(-20, 20),
    aw=st.integers(0, 20), ah=st.integers(0, 20),
    bx=st.integers(-20, 20), by=st.integers(-20, 20),
    bw=st.integers(0, 20), bh=st.integers(0, 20),
)
def test_overlap_symmetry(ax, ay, aw, ah, bx, by, bw, bh):
    a = Rect((ax, ay), (ax + aw, ay + ah))
    b = Rect((bx, by), (bx + bw, by + bh))
    assert a.overlaps(b) == b.overlaps(a)


@given(
    ax=st.integers(-20, 20), ay=st.integers(-20, 20),
    aw=st.integers(1, 20), ah=st.integers(1, 20),
    bx=st.integers(-20, 20), by=st.integers(-20, 20),
    bw=st.integers(1, 20), bh=st.integers(1, 20),
)
def test_intersection_area_le_both(ax, ay, aw, ah, bx, by, bw, bh):
    a = Rect((ax, ay), (ax + aw, ay + ah))
    b = Rect((bx, by), (bx + bw, by + bh))
    shared = a.intersection(b)
    if shared is not None:
        assert shared.area() <= a.area()
        assert shared.area() <= b.area()

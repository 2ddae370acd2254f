"""A malformed spatial extent is refused whatever the data and the plan.

An interval ending before it starts, a box whose corners differ in length or
whose lower corner lies above its upper one, and a box whose dimension is not
its space's are all refused with :class:`SpatialError` -- also when another
step of the query (an empty keyword) would have ended execution before the
spatial step ran.
"""

import pytest

from repro.core.manager import Graphitti
from repro.datatypes import DnaSequence, Image
from repro.errors import SpatialError
from repro.query import QueryBuilder, parse_query

EMPTY = 'CONTENT CONTAINS "zzz"'  # matches nothing, and the planner knows it


@pytest.fixture
def manager():
    graphitti = Graphitti("malformed")
    graphitti.register(DnaSequence("seq1", "ACGT" * 50, domain="chr1"))
    graphitti.register(Image("img1", dimension=2, space="atlas", size=(100, 100)))
    (
        graphitti.new_annotation("a1", keywords=["site"], body="a marked site")
        .mark_sequence("seq1", 10, 40)
        .mark_region("img1", (10, 10), (40, 40))
        .commit()
    )
    return graphitti


@pytest.mark.parametrize("prefix", ["", EMPTY])
def test_an_interval_ending_before_it_starts_is_refused(manager, prefix):
    with pytest.raises(SpatialError, match="precedes start"):
        manager.query(f"SELECT contents WHERE {{ {prefix} INTERVAL OVERLAPS chr1 [9, 3] }}")
    with pytest.raises(SpatialError, match="precedes start"):
        QueryBuilder.contents().contains("zzz").overlaps_interval("chr1", 9, 3)


@pytest.mark.parametrize("prefix", ["", EMPTY])
def test_a_box_with_its_lower_corner_above_its_upper_is_refused(manager, prefix):
    with pytest.raises(SpatialError, match="precedes lower bound"):
        manager.query(f"SELECT contents WHERE {{ {prefix} REGION OVERLAPS atlas [50, 1] .. [40, 50] }}")
    with pytest.raises(SpatialError, match="precedes lower bound"):
        QueryBuilder.contents().contains("zzz").overlaps_region("atlas", (50, 1), (40, 50))


def test_a_box_whose_corners_differ_in_length_is_refused():
    with pytest.raises(SpatialError, match="same dimensionality"):
        QueryBuilder.contents().contains("zzz").overlaps_region("atlas", (1, 1), (5, 5, 5))
    with pytest.raises(SpatialError, match="at least one dimension"):
        QueryBuilder.contents().contains("zzz").overlaps_region("atlas", (), ())


@pytest.mark.parametrize("prefix", ["", EMPTY])
def test_a_box_of_another_dimension_than_its_space_is_refused(manager, prefix):
    text = f"SELECT contents WHERE {{ {prefix} REGION OVERLAPS atlas [1, 1, 1] .. [50, 50, 50] }}"
    parse_query(text)  # well-formed on its own: the space's dimension decides
    with pytest.raises(SpatialError, match="dimension"):
        manager.query(text)
    query = QueryBuilder.contents().contains("zzz").overlaps_region("atlas", (1, 1, 1), (50, 50, 50)).build()
    with pytest.raises(SpatialError, match="dimension"):
        manager.query(query)


def test_a_box_in_a_space_with_no_regions_is_not_refused(manager):
    # No rect fixes the space's dimension, so there is nothing to refuse:
    # the search finds nothing, whichever step runs first.
    for prefix in ("", EMPTY):
        text = f"SELECT contents WHERE {{ {prefix} REGION OVERLAPS elsewhere [1, 1, 1] .. [5, 5, 5] }}"
        assert manager.query(text).annotation_ids == []


def test_well_formed_extents_still_match(manager):
    assert manager.query("SELECT contents WHERE { INTERVAL OVERLAPS chr1 [3, 9] }").annotation_ids == []
    assert manager.query("SELECT contents WHERE { INTERVAL OVERLAPS chr1 [40, 40] }").annotation_ids == ["a1"]
    text = "SELECT contents WHERE { REGION OVERLAPS atlas [40, 1] .. [50, 10] }"
    assert manager.query(text).annotation_ids == ["a1"]

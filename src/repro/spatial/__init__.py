"""Spatial sub-structure indexes.

Graphitti stores "the annotated substructures of the primary data ... in a
collection of interval trees for 1D data (e.g. sequences) and a collection of
R-trees for 2D and 3D data (e.g., image regions)".  This package implements
both index families from scratch, the coordinate-system bookkeeping that
keeps "the number of index structures small" (one interval tree per
chromosome, one R-tree per shared image coordinate system), and the SUB-X
operators the paper defines (``ifOverlap``, ``next``, ``intersect``).
"""

from repro.spatial.interval import Interval, merge_intervals, total_coverage
from repro.spatial.interval_tree import IntervalIndexFamily, IntervalTree
from repro.spatial.rect import Rect, bounding_rect
from repro.spatial.rtree import RTree, RTreeFamily
from repro.spatial.coordinate import (
    CoordinateKind,
    CoordinateSystem,
    CoordinateSystemRegistry,
)
from repro.spatial.operators import (
    Substructure,
    are_consecutive,
    are_disjoint,
    if_overlap,
    intersect,
    next_substructure,
)

__all__ = [
    "Interval",
    "IntervalTree",
    "IntervalIndexFamily",
    "Rect",
    "RTree",
    "RTreeFamily",
    "CoordinateKind",
    "CoordinateSystem",
    "CoordinateSystemRegistry",
    "Substructure",
    "if_overlap",
    "intersect",
    "next_substructure",
    "are_consecutive",
    "are_disjoint",
    "merge_intervals",
    "total_coverage",
    "bounding_rect",
]

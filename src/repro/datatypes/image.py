"""Image data objects with annotated regions.

Images are the archetypal 2D/3D data type.  A mark on an image selects a
rectangular (2D) or box (3D) region, indexed in an R-tree.  The paper's
optimisation "regions [of] all brain images of the same resolution are
referenced with respect to the same brain coordinate system, and placed in a
single R-tree" is modelled by :attr:`Image.coordinate_space`: many images can
share a coordinate space so their region marks land in one R-tree.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.datatypes.base import DataObject, DataType, SubstructureRef
from repro.errors import MarkError
from repro.spatial.rect import Rect


class ImageRegion:
    """A named region within an image (pre-segmentation or user mark)."""

    __slots__ = ("lo", "hi", "name")

    def __init__(self, lo: Sequence[float], hi: Sequence[float], name: str | None = None):
        self.lo = tuple(float(value) for value in lo)
        self.hi = tuple(float(value) for value in hi)
        if len(self.lo) != len(self.hi):
            raise MarkError("region lo and hi must have equal dimensionality")
        self.name = name


class Image(DataObject):
    """A 2D or 3D image registered to a (possibly shared) coordinate space.

    Parameters
    ----------
    object_id:
        Stable id.
    dimension:
        2 for planar images, 3 for volumetric stacks.
    space:
        Name of the shared coordinate space (e.g. ``"mouse-atlas:25um"``).
        Defaults to the object id (one R-tree per image).
    size:
        Optional per-axis extent of the image.
    """

    data_type = DataType.IMAGE

    def __init__(
        self,
        object_id: str,
        dimension: int = 2,
        space: str | None = None,
        size: Sequence[float] | None = None,
        metadata: dict | None = None,
    ):
        super().__init__(object_id, metadata)
        if dimension not in (2, 3):
            raise MarkError("images must be 2D or 3D")
        self.dimension = dimension
        self._space = space
        self.size = tuple(float(value) for value in size) if size is not None else None

    @property
    def coordinate_space(self) -> str:
        """The shared coordinate space this image's regions are indexed in."""
        return self._space if self._space is not None else self.object_id

    @property
    def coordinate_domain(self) -> str | None:
        return self.coordinate_space

    def mark_region(self, lo: Sequence[float], hi: Sequence[float], label: str | None = None) -> SubstructureRef:
        """Mark a rectangular/box region ``[lo, hi]``."""
        if len(lo) != self.dimension or len(hi) != self.dimension:
            raise MarkError(
                f"region dimensionality {len(lo)} does not match image dimension {self.dimension}"
            )
        rect = Rect(lo, hi, space=self.coordinate_space)
        return SubstructureRef(
            object_id=self.object_id,
            data_type=self.data_type,
            descriptor={"lo": list(rect.lo), "hi": list(rect.hi)},
            rect=rect,
            label=label,
        )

    def mark_regions(self, regions: Iterable[ImageRegion]) -> list[SubstructureRef]:
        """Mark several pre-defined regions."""
        return [self.mark_region(region.lo, region.hi, label=region.name) for region in regions]

    def describe(self) -> str:
        return f"{self.dimension}D image {self.object_id} (space {self.coordinate_space})"

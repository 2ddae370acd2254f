"""Multiple sequence alignment data objects.

An alignment is a matrix of aligned rows (gapped sequences) over a shared set
of columns.  A mark on an alignment selects a *column block* (a contiguous
range of alignment columns), indexed as a 1D interval in the alignment's own
coordinate domain.  This is the "multiple sequence alignment structures"
data type listed in the paper's annotation tab.
"""

from __future__ import annotations

from repro.datatypes.base import DataObject, DataType, SubstructureRef
from repro.errors import MarkError
from repro.spatial.interval import Interval


class MultipleSequenceAlignment(DataObject):
    """A gapped multiple sequence alignment.

    Parameters
    ----------
    object_id:
        Stable id.
    rows:
        Mapping of row name -> aligned (gapped) sequence string.  All rows
        must have equal length (the alignment width).
    gap:
        The gap character (default ``'-'``).
    """

    data_type = DataType.ALIGNMENT

    def __init__(self, object_id: str, rows: dict[str, str], gap: str = "-", metadata: dict | None = None):
        super().__init__(object_id, metadata)
        if not rows:
            raise MarkError("alignment must have at least one row")
        widths = {len(sequence) for sequence in rows.values()}
        if len(widths) != 1:
            raise MarkError("all alignment rows must have equal length")
        self.rows = dict(rows)
        self.gap = gap
        self.width = widths.pop()

    @property
    def depth(self) -> int:
        """Number of rows."""
        return len(self.rows)

    def column(self, index: int) -> dict[str, str]:
        """The residues in alignment column *index*, keyed by row name."""
        if not 0 <= index < self.width:
            raise MarkError(f"column {index} out of bounds for width {self.width}")
        return {name: sequence[index] for name, sequence in self.rows.items()}

    def column_conservation(self, index: int) -> float:
        """Fraction of the most common (non-gap) residue in a column."""
        residues = [residue for residue in self.column(index).values() if residue != self.gap]
        if not residues:
            return 0.0
        most_common = max(set(residues), key=residues.count)
        return residues.count(most_common) / len(residues)

    def conserved_columns(self, threshold: float = 0.9) -> list[int]:
        """Indices of columns whose conservation meets *threshold*."""
        return [index for index in range(self.width) if self.column_conservation(index) >= threshold]

    def mark_columns(self, start: int, end: int, label: str | None = None) -> SubstructureRef:
        """Mark the column block ``[start, end]`` (inclusive)."""
        if start < 0 or end >= self.width:
            raise MarkError(f"column block [{start}, {end}] out of bounds for width {self.width}")
        if end < start:
            raise MarkError("column block end precedes start")
        interval = Interval(start, end, domain=self.coordinate_domain)
        block = {name: sequence[start : end + 1] for name, sequence in self.rows.items()}
        return SubstructureRef(
            object_id=self.object_id,
            data_type=self.data_type,
            descriptor={"start": start, "end": end, "block": block},
            interval=interval,
            label=label,
        )

    def describe(self) -> str:
        return f"alignment {self.object_id} ({self.depth} rows x {self.width} cols)"

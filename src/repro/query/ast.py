"""Abstract syntax tree for the Graphitti query language.

A :class:`Query` is a return specification plus a conjunction of
:class:`Constraint` objects.  Each constraint targets one kind of data
element (annotation content, ontology, 1D substructure, 2D/3D substructure, a
data type, or an a-graph path), which is exactly the per-type separation the
paper's planner exploits.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import SpatialError


class ReturnKind(enum.Enum):
    """What a query returns (the three result kinds in the paper)."""

    CONTENTS = "contents"        # (b) fragments of / whole annotation contents
    REFERENTS = "referents"      # (a) collection of heterogeneous substructures
    GRAPH = "graph"              # (c) connection subgraphs


class Target(enum.Enum):
    """Which data element a constraint is evaluated against."""

    CONTENT = "content"
    ONTOLOGY = "ontology"
    INTERVAL = "interval"
    REGION = "region"
    TYPE = "type"
    PATH = "path"
    COMPOSITE = "composite"


class Constraint:
    """Base class for query constraints."""

    target: Target

    def describe(self) -> str:
        """Human-readable one-line description (used in plan explanations)."""
        raise NotImplementedError


@dataclass
class KeywordConstraint(Constraint):
    """Annotation content contains the keyword(s)."""

    keyword: str
    mode: str = "and"
    target: Target = field(default=Target.CONTENT, init=False)

    def describe(self) -> str:
        # The mode changes the rows: plan fingerprints and the result key of
        # a built Query are made from this text, so a non-default mode must
        # show in it.
        suffix = "" if self.mode == "and" else f" ({self.mode})"
        return f"content CONTAINS {self.keyword!r}{suffix}"


@dataclass
class OntologyConstraint(Constraint):
    """Annotation points at an ontology term (optionally with descendants)."""

    term: str
    ontology: str | None = None
    include_descendants: bool = True
    target: Target = field(default=Target.ONTOLOGY, init=False)

    def describe(self) -> str:
        suffix = "+desc" if self.include_descendants else ""
        where = f"@{self.ontology}" if self.ontology else ""
        return f"referent REFERS {self.term!r}{where}{suffix}"


@dataclass
class OverlapConstraint(Constraint):
    """A referent's 1D extent overlaps ``[start, end]`` in a coordinate domain."""

    domain: str
    start: float
    end: float
    min_count: int = 1
    target: Target = field(default=Target.INTERVAL, init=False)

    def __post_init__(self) -> None:
        # Refused here, so whether a query is refused never depends on which
        # step of its plan runs first (or on the data).
        if self.end < self.start:
            raise SpatialError(f"interval end {self.end} precedes start {self.start}")

    def describe(self) -> str:
        return f"interval OVERLAPS {self.domain}[{self.start},{self.end}] (>= {self.min_count})"


@dataclass
class RegionConstraint(Constraint):
    """A referent's 2D/3D extent overlaps a box in a coordinate space."""

    space: str
    lo: tuple[float, ...]
    hi: tuple[float, ...]
    min_count: int = 1
    target: Target = field(default=Target.REGION, init=False)

    def __post_init__(self) -> None:
        # The checks Rect makes, made where the query is built (see
        # OverlapConstraint); a box whose dimension differs from its space's
        # is refused by the planner, which knows the space.
        if len(self.lo) != len(self.hi):
            raise SpatialError("lo and hi must have the same dimensionality")
        if not self.lo:
            raise SpatialError("a rectangle needs at least one dimension")
        for low, high in zip(self.lo, self.hi):
            if high < low:
                raise SpatialError(f"upper bound {high} precedes lower bound {low}")

    def describe(self) -> str:
        return f"region OVERLAPS {self.space}{self.lo}..{self.hi} (>= {self.min_count})"


@dataclass
class TypeConstraint(Constraint):
    """Annotation has at least one referent of the given data type."""

    data_type: str
    target: Target = field(default=Target.TYPE, init=False)

    def describe(self) -> str:
        return f"type {self.data_type}"


@dataclass
class PathConstraint(Constraint):
    """Two annotations must be connected by a path in the a-graph."""

    from_keyword: str
    to_keyword: str
    max_length: int = 6
    target: Target = field(default=Target.PATH, init=False)

    def describe(self) -> str:
        return f"path {self.from_keyword!r} ~> {self.to_keyword!r} (<= {self.max_length})"


@dataclass
class NotConstraint(Constraint):
    """Negation: annotations that do *not* satisfy the inner constraint."""

    inner: Constraint
    target: Target = field(default=Target.COMPOSITE, init=False)

    def describe(self) -> str:
        return f"NOT ({self.inner.describe()})"


@dataclass
class OrConstraint(Constraint):
    """Disjunction: annotations satisfying at least one sub-constraint."""

    parts: tuple[Constraint, ...]
    target: Target = field(default=Target.COMPOSITE, init=False)

    def describe(self) -> str:
        return "ANY (" + " | ".join(part.describe() for part in self.parts) + ")"


@dataclass
class Query:
    """A parsed/assembled query: a return spec plus a conjunction of constraints."""

    return_kind: ReturnKind = ReturnKind.CONTENTS
    constraints: list[Constraint] = field(default_factory=list)
    limit: int | None = None

    def add(self, constraint: Constraint) -> "Query":
        """Append a constraint (returns self for chaining)."""
        self.constraints.append(constraint)
        return self

    def targets_present(self) -> list[Target]:
        """The distinct data-element targets this query touches."""
        seen: list[Target] = []
        for constraint in self.constraints:
            if constraint.target not in seen:
                seen.append(constraint.target)
        return seen

    def describe(self) -> str:
        """Human-readable multi-line description of the whole query."""
        lines = [f"SELECT {self.return_kind.value}", "WHERE {"]
        for constraint in self.constraints:
            lines.append(f"  {constraint.describe()}")
        lines.append("}")
        if self.limit is not None:
            lines.append(f"LIMIT {self.limit}")
        return "\n".join(lines)

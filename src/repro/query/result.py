"""Query result model.

A :class:`QueryResult` holds the collated output of a query in whichever of
the three forms the paper describes: annotation contents, heterogeneous
substructures (referents), or connection subgraphs.  It also records which
annotations survived each subquery step, so callers (and the planner
benchmarks) can inspect how the candidate set shrank.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.agraph.connection import ConnectionSubgraph
from repro.query.ast import ReturnKind


@dataclass
class QueryResult:
    """The collated result of executing a query plan."""

    return_kind: ReturnKind
    annotation_ids: list[str] = field(default_factory=list)
    referents: list[Any] = field(default_factory=list)
    subgraphs: list[ConnectionSubgraph] = field(default_factory=list)
    #: Per-step execution detail: constraint label, surviving candidates,
    #: the planner's estimated rows, how the step ran ("materialize" or
    #: "probe" — the adaptive semi-join path), and the constraint's plan
    #: position.  ``steps`` is derived from this.
    step_details: list[dict[str, Any]] = field(default_factory=list)
    fragments: list[Any] = field(default_factory=list)
    #: Fingerprint of the plan that produced this result (see
    #: :meth:`repro.query.planner.QueryPlan.fingerprint`): which constraint
    #: order ran.
    plan_fingerprint: str = ""
    #: Set by the network sharded service when the merge ran without every
    #: shard (opt-in partial results while a worker is dead or restarting).
    #: A degraded result is complete for the shards listed as present but may
    #: be missing any row owned by ``missing_shards``.
    degraded: bool = False
    #: Shard indices that did not contribute to a degraded merge.
    missing_shards: list[int] = field(default_factory=list)
    #: The query's ``LIMIT`` (None without one): with ``return_kind`` it is
    #: the page's shape, all a sharded merge needs to know of the query.
    limit: int | None = None
    #: One entry per referent: the position in ``annotation_ids`` of the
    #: annotation whose collation introduced it (non-decreasing; empty
    #: unless the page is REFERENTS).
    referent_sources: list[int] = field(default_factory=list)

    def copy(self) -> "QueryResult":
        """An independent shallow copy (fresh page lists, shared elements).

        The serving layer's result cache hands copies to every caller so a
        client that consumes its result in place (pops ids, truncates pages,
        rewrites step details) can never corrupt the cached entry another
        reader is about to receive.  Elements (fragments, referents,
        subgraphs) are shared and must still be treated as read-only.
        """
        return QueryResult(
            return_kind=self.return_kind,
            annotation_ids=list(self.annotation_ids),
            referents=list(self.referents),
            subgraphs=list(self.subgraphs),
            step_details=[dict(detail) for detail in self.step_details],
            fragments=list(self.fragments),
            plan_fingerprint=self.plan_fingerprint,
            degraded=self.degraded,
            missing_shards=list(self.missing_shards),
            limit=self.limit,
            referent_sources=list(self.referent_sources),
        )

    @property
    def count(self) -> int:
        """Number of primary results (shape depends on the return kind)."""
        if self.return_kind is ReturnKind.GRAPH:
            return len(self.subgraphs)
        if self.return_kind is ReturnKind.REFERENTS:
            return len(self.referents)
        return len(self.annotation_ids)

    def is_empty(self) -> bool:
        """True when the query produced no primary results."""
        return self.count == 0

    def record_step(
        self,
        label: str,
        survivors: int,
        estimated: int | None = None,
        mode: str = "materialize",
        position: int | None = None,
    ) -> None:
        """Record the number of annotation candidates after a subquery step.

        *position* is the constraint's index in the plan's ordered list (the
        adaptive executor may execute steps out of plan order).
        """
        self.step_details.append(
            {
                "label": label,
                "survivors": survivors,
                "estimated": estimated,
                "mode": mode,
                "position": position,
            }
        )

    @property
    def steps(self) -> list[tuple[str, int]]:
        """``(label, surviving candidates)`` per executed step (derived)."""
        return [(detail["label"], detail["survivors"]) for detail in self.step_details]

    def actual_rows(self) -> dict[int, int]:
        """Plan position -> surviving candidates, for ``QueryPlan.explain``."""
        return {
            detail["position"]: detail["survivors"]
            for detail in self.step_details
            if detail.get("position") is not None
        }

    def explain_steps(self) -> str:
        """Human-readable trace of candidate-set sizes per subquery step."""
        lines = []
        for detail in self.step_details:
            line = f"  after {detail['label']}: {detail['survivors']} candidates"
            if detail.get("estimated") is not None:
                line += f" (est~{detail['estimated']}, {detail['mode']})"
            lines.append(line)
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible representation."""
        return {
            "return_kind": self.return_kind.value,
            "count": self.count,
            "plan_fingerprint": self.plan_fingerprint,
            "annotation_ids": list(self.annotation_ids),
            "referent_keys": [
                referent.referent_id if hasattr(referent, "referent_id") else str(referent)
                for referent in self.referents
            ],
            "subgraphs": [subgraph.to_dict() for subgraph in self.subgraphs],
            "steps": list(self.steps),
            "step_details": [dict(detail) for detail in self.step_details],
            "degraded": self.degraded,
            "missing_shards": list(self.missing_shards),
        }

"""System-administration facilities (the paper's admin tab).

"The Graphitti system ... displays three tabbed panels for creating
annotations, querying annotations and system administration."  This module is
the programmatic form of that third tab: integrity checks over the wired
substrates, statistics, index-economy reporting, orphan detection, and a
consistency validator that the tests and examples use to assert the instance
is internally sound after a batch of commits.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any

from repro.agraph.agraph import NodeKind
from repro.agraph.multigraph import OUT
from repro.errors import AGraphError
from repro.xmlstore.text_index import InvertedIndex


@dataclass
class IntegrityReport:
    """The result of a full integrity check over a Graphitti instance."""

    ok: bool = True
    errors: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    checks_run: int = 0

    def fail(self, message: str) -> None:
        """Record a hard integrity error."""
        self.ok = False
        self.errors.append(message)

    def warn(self, message: str) -> None:
        """Record a non-fatal warning."""
        self.warnings.append(message)

    def summary(self) -> str:
        """Human-readable one-line summary."""
        status = "OK" if self.ok else "FAILED"
        return f"integrity {status}: {self.checks_run} checks, {len(self.errors)} errors, {len(self.warnings)} warnings"


class Administrator:
    """Administrative operations over a :class:`~repro.core.manager.Graphitti`.

    The administrator never mutates annotations; it inspects the wired
    substrates and reports.  It is deliberately read-only so it is safe to run
    at any time (the "system administration" panel in the paper).
    """

    def __init__(self, manager):
        self._manager = manager

    # -- integrity ------------------------------------------------------------

    def check_integrity(self) -> IntegrityReport:
        """Run every cross-substrate consistency check.

        Verifies that, for every committed annotation, (a) its content
        document is in the collection, holds the lower-cased searchable text
        of its row and is indexed under exactly that text's terms, (b) its
        content node is in the a-graph, (c) each referent is indexed, and (d)
        every referenced data object is registered; then that every a-graph
        edge fits ``EDGE_TYPES`` and that the edges are exactly the sum of
        the annotations' derived edges.
        """
        report = IntegrityReport()
        manager = self._manager
        derived: Counter = Counter()
        contents = manager.contents
        fresh = InvertedIndex()
        for annotation in manager.annotations():
            report.checks_run += 1
            annotation_id = annotation.annotation_id
            derived.update(annotation.agraph_edges())
            text = annotation.searchable_text().lower()
            fresh.add_document(annotation_id, text)
            if annotation_id not in contents:
                report.fail(f"annotation {annotation_id!r} has no content document")
            elif contents.text(annotation_id) != text:
                report.fail(f"annotation {annotation_id!r}: its document's text is not its row's")
            elif set(contents.indexed_terms(annotation_id)) != set(fresh.document_terms(annotation_id)):
                report.fail(f"annotation {annotation_id!r}: its index terms are not its text's")
            if annotation_id not in manager.agraph:
                report.fail(f"annotation {annotation_id!r} has no a-graph content node")
            elif manager.agraph.graph.kind(annotation_id) != NodeKind.CONTENT.value:
                report.fail(f"annotation {annotation_id!r} node is not a content node")
            for referent in annotation.referents:
                referent_id = referent.referent_id
                if referent_id not in manager.substructures:
                    report.fail(f"referent {referent_id!r} of {annotation_id!r} is not indexed")
                if referent.ref.object_id not in manager.registry:
                    if getattr(manager, "catalogue_only", False):
                        report.warn(
                            f"catalogue-only instance: data object {referent.ref.object_id!r} not reconstructed"
                        )
                    else:
                        report.fail(
                            f"annotation {annotation_id!r} references unregistered object {referent.ref.object_id!r}"
                        )
        self._check_agraph_consistency(report, derived)
        self._check_index_consistency(report)
        return report

    def _check_agraph_consistency(self, report: IntegrityReport, derived: Counter) -> None:
        manager = self._manager
        report.checks_run += 1
        for content_id in manager.agraph.contents():
            if not manager.has_annotation(content_id):
                report.fail(f"a-graph content node {content_id!r} has no annotation")
        for referent_id in manager.agraph.referents():
            if referent_id not in manager.substructures:
                report.warn(f"a-graph referent node {referent_id!r} is not in the substructure store")
        # Count ``(label, source, target)`` straight from the OUT buckets:
        # every edge once, and no Edge value built.
        live: Counter = Counter()
        for source, buckets in manager.agraph.graph.adjacency.items():
            for (label, direction), targets in buckets.items():
                if direction == OUT:
                    for target in targets:
                        live[label, source, target] += 1
        for key, count in live.items():
            try:
                manager.agraph.check_edge(*key)
            except AGraphError as exc:
                report.fail(str(exc))
        for key, count in (live - derived).items():
            report.fail(f"a-graph edge {key!r}: {count} more than the annotations derive")
        for key, count in (derived - live).items():
            report.fail(f"a-graph edge {key!r}: {count} fewer than the annotations derive")

    def _check_index_consistency(self, report: IntegrityReport) -> None:
        manager = self._manager
        report.checks_run += 1
        indexed = manager.substructures.total_indexed_intervals() + manager.substructures.total_indexed_regions()
        spatial_referents = sum(
            1 for referent in manager.substructures.all_referents() if referent.ref.is_spatial
        )
        if indexed != spatial_referents:
            report.fail(
                f"indexed extents ({indexed}) != spatial referents ({spatial_referents})"
            )

    # -- reporting ------------------------------------------------------------

    def orphan_objects(self) -> list[str]:
        """Registered data objects that no annotation references."""
        referenced = set()
        for annotation in self._manager.annotations():
            referenced.update(annotation.object_ids())
        return sorted(set(self._manager.registry.object_ids()) - referenced)

    def orphan_ontology_terms(self) -> list[str]:
        """Ontology nodes in the a-graph that nothing points at."""
        orphans = []
        for term_id in self._manager.agraph.ontology_nodes():
            if self._manager.agraph.graph.in_degree(term_id) == 0:
                orphans.append(term_id)
        return sorted(orphans)

    def index_economy(self) -> dict[str, Any]:
        """The paper's "keep the number of index structures small" metric.

        Reports how many interval trees / R-trees exist relative to the number
        of data objects that could have had their own index.
        """
        interval_trees, rtrees = self._manager.substructures.index_count()
        sequence_like = 0
        image_like = 0
        for obj in self._manager.registry:
            if obj.data_type.is_sequence or obj.data_type.value == "multiple_sequence_alignment":
                sequence_like += 1
            elif obj.data_type.is_spatial_2d:
                image_like += 1
        return {
            "interval_trees": interval_trees,
            "sequence_like_objects": sequence_like,
            "interval_tree_sharing_ratio": round(sequence_like / interval_trees, 2) if interval_trees else 0.0,
            "rtrees": rtrees,
            "image_objects": image_like,
            "rtree_sharing_ratio": round(image_like / rtrees, 2) if rtrees else 0.0,
        }

    def annotation_leaderboard(self, top: int = 5) -> list[tuple[str, int]]:
        """Data objects ranked by how many referents annotate them."""
        counts: dict[str, int] = {}
        for referent in self._manager.substructures.all_referents():
            counts[referent.ref.object_id] = counts.get(referent.ref.object_id, 0) + 1
        ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
        return ranked[:top]

    def creator_activity(self) -> dict[str, int]:
        """Number of annotations per creator."""
        activity: dict[str, int] = {}
        for annotation in self._manager.annotations():
            creator = annotation.content.dublin_core.creator or "(unknown)"
            activity[creator] = activity.get(creator, 0) + 1
        return activity

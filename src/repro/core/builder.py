"""Fluent annotation builder.

Reproduces the paper's annotation-tab workflow programmatically: the user
searches for data, drags referents into the central panel (here: ``mark_*``
calls), attaches ontology references (``refer_ontology``), writes the content
XML (the Dublin Core / body arguments), then commits.  A :class:`Graphitti`
hands out :class:`AnnotationBuilder` instances from
:meth:`~repro.core.manager.Graphitti.new_annotation`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable

from repro.core.annotation import Annotation, AnnotationContent
from repro.core.dublin_core import DublinCore
from repro.datatypes.base import DataType, SubstructureRef
from repro.errors import AnnotationError


class AnnotationBuilder:
    """Accumulates referents and content, then commits via the manager."""

    def __init__(self, manager, annotation_id: str, title: str = "", creator: str = "",
                 keywords: Iterable[str] = (), body: str = "", description: str = ""):
        self._manager = manager
        dublin_core = DublinCore(title=title, creator=creator, subject=list(keywords),
                                 description=description, identifier=annotation_id)
        self._annotation = Annotation(annotation_id, AnnotationContent(dublin_core, body=body))

    # -- content ---------------------------------------------------------------

    @property
    def content(self) -> AnnotationContent:
        """The annotation content being built."""
        return self._annotation.content

    def add_keyword(self, keyword: str) -> "AnnotationBuilder":
        """Add a Dublin Core subject keyword to the content."""
        self._annotation.content.add_keyword(keyword)
        return self

    def set_body(self, body: str) -> "AnnotationBuilder":
        """Set the free-text body of the annotation content."""
        self._annotation.content.body = body
        return self

    def set_tag(self, name: str, value: str) -> "AnnotationBuilder":
        """Set a user-defined content tag (the 'other user-defined tags')."""
        self._annotation.content.user_tags[name] = value
        return self

    def refer_ontology(self, *term_ids: str) -> "AnnotationBuilder":
        """Make the content itself point at one or more ontology terms."""
        for term_id in term_ids:
            resolved = self._manager.resolve_ontology_term(term_id)
            self._annotation.content.point_to(resolved)
        return self

    # -- referents -------------------------------------------------------------

    def add_referent(self, ref: SubstructureRef, ontology_terms: Iterable[str] = ()) -> "AnnotationBuilder":
        """Attach a pre-built substructure reference as a referent.

        The annotation holds a copy of *ref*.  A ref read back from a
        committed annotation is the store's canonical object, which a move
        rewrites in place; holding that object would move this referent's
        extent too, without re-indexing it.
        """
        ref = replace(ref, descriptor=dict(ref.descriptor))
        return self._attach(ref, ontology_terms)

    def _attach(self, ref: SubstructureRef, ontology_terms: Iterable[str]) -> "AnnotationBuilder":
        """Attach a ref no one else holds (a fresh mark) as a referent."""
        resolved = [self._manager.resolve_ontology_term(term) for term in ontology_terms]
        self._annotation.add_referent(ref, ontology_terms=resolved)
        return self

    def mark_sequence(self, object_id: str, start: int, end: int, ontology_terms: Iterable[str] = (), label: str | None = None) -> "AnnotationBuilder":
        """Mark a residue interval on a registered sequence."""
        obj = self._manager.data_object(object_id)
        ref = obj.mark(start, end, label=label)
        return self._attach(ref, ontology_terms)

    def mark_alignment_columns(self, object_id: str, start: int, end: int, ontology_terms: Iterable[str] = ()) -> "AnnotationBuilder":
        """Mark a column block on a registered alignment."""
        obj = self._manager.data_object(object_id)
        ref = obj.mark_columns(start, end)
        return self._attach(ref, ontology_terms)

    def mark_region(self, object_id: str, lo, hi, ontology_terms: Iterable[str] = (), label: str | None = None) -> "AnnotationBuilder":
        """Mark a 2D/3D region on a registered image."""
        obj = self._manager.data_object(object_id)
        ref = obj.mark_region(lo, hi, label=label)
        return self._attach(ref, ontology_terms)

    def mark_record_block(self, object_id: str, row_keys: Iterable[str], ontology_terms: Iterable[str] = ()) -> "AnnotationBuilder":
        """Mark a block of rows on a registered relational record."""
        obj = self._manager.data_object(object_id)
        ref = obj.mark_block(row_keys)
        return self._attach(ref, ontology_terms)

    def mark_clade(self, object_id: str, clade_name: str, ontology_terms: Iterable[str] = ()) -> "AnnotationBuilder":
        """Mark a clade on a registered phylogenetic tree."""
        obj = self._manager.data_object(object_id)
        ref = obj.mark_clade(clade_name)
        return self._attach(ref, ontology_terms)

    def mark_clade_by_leaves(self, object_id: str, leaf_names: Iterable[str], ontology_terms: Iterable[str] = ()) -> "AnnotationBuilder":
        """Mark the smallest clade covering the named leaves."""
        obj = self._manager.data_object(object_id)
        ref = obj.mark_clade_by_leaves(list(leaf_names))
        return self._attach(ref, ontology_terms)

    def mark_subgraph(self, object_id: str, nodes: Iterable[str], ontology_terms: Iterable[str] = ()) -> "AnnotationBuilder":
        """Mark an induced subgraph on a registered interaction graph."""
        obj = self._manager.data_object(object_id)
        ref = obj.mark_subgraph(nodes)
        return self._attach(ref, ontology_terms)

    def mark_neighborhood(self, object_id: str, node: str, radius: int = 1, ontology_terms: Iterable[str] = ()) -> "AnnotationBuilder":
        """Mark a node's neighbourhood subgraph on an interaction graph."""
        obj = self._manager.data_object(object_id)
        ref = obj.mark_neighborhood(node, radius=radius)
        return self._attach(ref, ontology_terms)

    # -- commit -----------------------------------------------------------------

    def build(self) -> Annotation:
        """Return the assembled :class:`Annotation` without committing."""
        if not self._annotation.referents and not self._annotation.content.ontology_terms:
            raise AnnotationError("an annotation must have at least one referent or ontology reference")
        return self._annotation

    def commit(self) -> Annotation:
        """Commit the annotation through the manager and return it (a second
        commit is refused like any commit of a committed id)."""
        annotation = self.build()
        self._manager.commit(annotation)
        return annotation

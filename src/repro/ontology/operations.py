"""The OntoQuest operation set.

Section II of the paper lists the ontology operations Graphitti relies on:

* ``CI : C -> I+`` — all instances of a concept,
* ``CRI : C x R -> I+`` — all instances of a concept by relation R,
* ``CmRI : C x R+ -> I+`` — instances of a concept restricted to a set of
  relation types,
* ``mCmRI : C+ x R+ -> I+`` — all instances reachable from any concept in a
  set using only edges from R+,
* ``SubTree(X, RI)`` — the subtree under X restricted to edge relation RI,
* ``SubTree(X, RI) - SubTree(Y, RI)`` — if Y is a descendant of X, the
  subtree under X minus the subtree under Y.

All operations are implemented on top of :class:`~repro.ontology.model.Ontology`
with optional memoisation (the cache is invalidated explicitly by the caller
when the ontology changes; Graphitti ontologies are effectively read-only
once loaded, matching OntoQuest's usage).
"""

from __future__ import annotations

from typing import Iterable

from repro.errors import OntologyError, UnknownTermError
from repro.ontology.model import INSTANCE_OF, IS_A, PART_OF, Ontology


class OntologyOperations:
    """OntoQuest-style operations over one ontology.

    Parameters
    ----------
    ontology:
        The ontology to operate on.
    cache:
        When True (default), CI results and concept expansions are memoised
        per (concept, relations) key.  Call :meth:`invalidate_cache` after
        mutating the ontology.
    """

    #: Hierarchical predicates considered when walking "down" from a concept
    #: to its sub-concepts before collecting instances.
    DEFAULT_HIERARCHY = (IS_A, PART_OF)

    def __init__(self, ontology: Ontology, cache: bool = True):
        self.ontology = ontology
        self._cache_enabled = cache
        self._ci_cache: dict[tuple[str, tuple[str, ...]], frozenset[str]] = {}
        self._expansions: dict[tuple[str, tuple[str, ...]], frozenset[str]] = {}

    def invalidate_cache(self) -> None:
        """Drop memoised results (call after mutating the ontology)."""
        self._ci_cache.clear()
        self._expansions.clear()

    # -- instance-returning operations -------------------------------------------------

    def ci(self, concept_id: str) -> set[str]:
        """``CI: C -> I+`` — the set of all instances of *concept_id*.

        Instances of every sub-concept (via the default hierarchy relations)
        are included, which is the standard ontological reading of "all
        instances of a concept".
        """
        return self._instances(concept_id, self.DEFAULT_HIERARCHY)

    def cri(self, concept_id: str, relation: str) -> set[str]:
        """``CRI: C x R -> I+`` — instances of *concept_id* by relation *relation*.

        The sub-concept closure is restricted to *relation* only; instances
        remain attached via ``instance_of``.
        """
        return self._instances(concept_id, (relation,))

    def cmri(self, concept_id: str, relations: Iterable[str]) -> set[str]:
        """``CmRI: C x R+ -> I+`` — instances of a concept restricted to a set
        of relation types."""
        relation_tuple = tuple(relations)
        if not relation_tuple:
            raise OntologyError("CmRI requires at least one relation type")
        return self._instances(concept_id, relation_tuple)

    def mcmri(self, concept_ids: Iterable[str], relations: Iterable[str]) -> set[str]:
        """``mCmRI: C+ x R+ -> I+`` — all instances reachable from any concept
        in the set using only edges from the relation set."""
        relation_tuple = tuple(relations)
        concept_tuple = tuple(concept_ids)
        if not concept_tuple:
            raise OntologyError("mCmRI requires at least one concept")
        result: set[str] = set()
        for concept_id in concept_tuple:
            result.update(self._instances(concept_id, relation_tuple))
        return result

    def _instances(self, concept_id: str, relations: tuple[str, ...]) -> set[str]:
        key = (concept_id, relations)
        if self._cache_enabled and key in self._ci_cache:
            return set(self._ci_cache[key])
        concept = self.ontology.term(concept_id)
        if concept.is_instance:
            raise OntologyError(f"{concept_id!r} is an instance, not a concept")
        concepts = {concept_id} | self.ontology.descendants(concept_id, relations)
        instances: set[str] = set()
        for current in concepts:
            instances.update(self.ontology.subjects(current, INSTANCE_OF))
        if self._cache_enabled:
            self._ci_cache[key] = frozenset(instances)
        return instances

    # -- subtree operations ---------------------------------------------------------------

    def subtree(self, root_id: str, relation: str) -> set[str]:
        """``SubTree(X, RI)`` — the terms in the subtree under *root_id*
        restricted to the edge relation *relation* (root included)."""
        self.ontology.term(root_id)
        return {root_id} | self.ontology.descendants(root_id, (relation,))

    def subtree_difference(self, root_id: str, excluded_id: str, relation: str) -> set[str]:
        """``SubTree(X, RI) - SubTree(Y, RI)`` — the subtree under X minus the
        subtree under Y, valid only when Y is a descendant of X."""
        parent_tree = self.subtree(root_id, relation)
        if excluded_id not in parent_tree or excluded_id == root_id:
            raise OntologyError(
                f"{excluded_id!r} is not a proper descendant of {root_id!r} under {relation!r}"
            )
        excluded_tree = self.subtree(excluded_id, relation)
        return parent_tree - excluded_tree

    def subtree_edges(self, root_id: str, relation: str) -> list[tuple[str, str]]:
        """The ``(child, parent)`` edges of ``SubTree(root_id, relation)``."""
        members = self.subtree(root_id, relation)
        edges: list[tuple[str, str]] = []
        for member in members:
            for parent in self.ontology.objects(member, relation):
                if parent in members:
                    edges.append((member, parent))
        return sorted(edges)

    # -- term resolution helpers used by the query layer ------------------------------------

    def resolve_term(self, text: str) -> str:
        """Resolve a term id or (synonym-aware) name to a term id."""
        if text in self.ontology:
            return text
        matches = self.ontology.find_by_name(text)
        if not matches:
            raise UnknownTermError(f"ontology {self.ontology.name!r} has no term named {text!r}")
        if len(matches) > 1:
            raise OntologyError(
                f"ontology term name {text!r} is ambiguous: {[term.term_id for term in matches]!r}"
            )
        return matches[0].term_id

    def concept_and_descendants(self, text: str, relations: Iterable[str] | None = None) -> set[str]:
        """Resolve *text* and return the concept plus all hierarchical descendants.

        This is the expansion used when a query condition says "annotated
        with ontology term T": any descendant of T also satisfies it.
        """
        predicates = tuple(relations) if relations is not None else self.DEFAULT_HIERARCHY
        key = (text, predicates)
        expansion = self._expansions.get(key) if self._cache_enabled else None
        if expansion is None:
            term_id = self.resolve_term(text)
            expansion = frozenset({term_id} | self.ontology.descendants(term_id, predicates))
            if self._cache_enabled:
                self._expansions[key] = expansion
        return set(expansion)

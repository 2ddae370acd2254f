"""Property tests: the indexed multigraph agrees with a naive reference model.

The indexed :class:`LabeledMultigraph` maintains one ``(label, direction)``
adjacency map, a kind index, and an incremental union-find component index.
These tests drive it through interleaved ``add_node`` / ``add_edge`` /
``remove_node`` / ``remove_edge`` sequences and check every observable against
a deliberately dumb reference model (a node dict plus a flat edge list,
re-derived per query), so any index that drifts out of sync is caught.  A node
keeps its kind: ``add_node`` of an existing id with another kind is refused
and changes nothing.  The component index is additionally checked after
*every* step, on a copy, so components stay pending across steps exactly as
they do between two quiesce points of the serving layer.

Also holds the regression tests for the PR's bugfixes: ``connect()`` must
validate an explicit hub up front, and a ``NOT`` constraint must not
materialize the full annotation universe when a candidate set already exists.
"""

import copy
from collections import Counter, deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.agraph.agraph import ANNOTATES, AGraph
from repro.agraph.multigraph import LabeledMultigraph
from repro.errors import AGraphError, UnknownNodeError

KINDS = ("content", "referent", "ontology")
LABELS = ("annotates", "refers_to", "relates")


class ReferenceModel:
    """Flat node dict + edge list; every query recomputed from scratch."""

    def __init__(self):
        self.nodes: dict[int, str] = {}
        self.edges: list[tuple[int, int, str]] = []

    def add_node(self, node, kind):
        self.nodes[node] = kind

    def add_edge(self, source, target, label):
        self.edges.append((source, target, label))

    def remove_node(self, node):
        del self.nodes[node]
        self.edges = [e for e in self.edges if e[0] != node and e[1] != node]

    def remove_edge(self, source, target, label):
        if (source, target, label) in self.edges:
            self.edges.remove((source, target, label))

    def successors(self, node, label=None):
        return Counter(
            t for s, t, lbl in self.edges if s == node and (label is None or lbl == label)
        )

    def predecessors(self, node, label=None):
        return Counter(
            s for s, t, lbl in self.edges if t == node and (label is None or lbl == label)
        )

    def degree(self, node):
        return sum(1 for s, _, _ in self.edges if s == node) + sum(
            1 for _, t, _ in self.edges if t == node
        )

    def neighbors(self, node):
        out = {t for s, t, _ in self.edges if s == node}
        inc = {s for s, t, _ in self.edges if t == node}
        return out | inc

    def labels(self):
        return {lbl for _, _, lbl in self.edges}

    def nodes_of_kind(self, kind):
        return {n for n, k in self.nodes.items() if k == kind}

    def components(self):
        seen, parts = set(), []
        for start in self.nodes:
            if start in seen:
                continue
            part = {start}
            queue = deque([start])
            while queue:
                current = queue.popleft()
                for neighbor in self.neighbors(current):
                    if neighbor not in part:
                        part.add(neighbor)
                        queue.append(neighbor)
            seen |= part
            parts.append(part)
        return parts


#: One mutation: ("node", id, kind) | ("edge", s, t, label) | ("remove", id)
#: | ("unedge", s, t, label): one copy | ("remove_root", id): remove the current
#: union-find root of id's component | ("readd", id, kind, neighbor): remove id
#: and add it straight back, wired to neighbor | ("quiesce",).
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("node"), st.integers(0, 11), st.sampled_from(KINDS)),
        st.tuples(
            st.just("edge"), st.integers(0, 11), st.integers(0, 11), st.sampled_from(LABELS)
        ),
        st.tuples(st.just("remove"), st.integers(0, 11)),
        st.tuples(
            st.just("unedge"),
            st.integers(0, 11),
            st.integers(0, 11),
            st.sampled_from(LABELS),
        ),
        st.tuples(st.just("remove_root"), st.integers(0, 11)),
        st.tuples(
            st.just("readd"), st.integers(0, 11), st.sampled_from(KINDS), st.integers(0, 11)
        ),
        st.tuples(st.just("quiesce")),
    ),
    max_size=60,
)


def _apply(ops, after_step=None):
    graph = LabeledMultigraph()
    model = ReferenceModel()
    for op in ops:
        _step(graph, model, op)
        if after_step is not None:
            after_step(graph, model)
    return graph, model


def _step(graph, model, op):
    if op[0] == "node":
        _, node, kind = op
        if model.nodes.get(node, kind) != kind:
            before = graph.to_dict()
            with pytest.raises(AGraphError):
                graph.add_node(node, kind=kind)
            assert graph.to_dict() == before
        else:
            graph.add_node(node, kind=kind)
            model.add_node(node, kind)
    elif op[0] == "edge":
        _, source, target, label = op
        if source in model.nodes and target in model.nodes:
            graph.add_edge(source, target, label=label)
            model.add_edge(source, target, label)
    elif op[0] == "unedge":
        _, source, target, label = op
        if source in model.nodes and target in model.nodes:
            graph.remove_edge(source, target, label)
            model.remove_edge(source, target, label)
    elif op[0] == "quiesce":
        graph.rebuild_components()
    elif op[0] == "readd":
        _, node, kind, neighbor = op
        if node in model.nodes:
            graph.remove_node(node)
            model.remove_node(node)
            graph.add_node(node, kind=kind)
            model.add_node(node, kind)
            if neighbor in model.nodes:
                graph.add_edge(node, neighbor, label=LABELS[0])
                model.add_edge(node, neighbor, LABELS[0])
    else:
        node = op[1]
        if op[0] == "remove_root" and node in model.nodes:
            # The root as the union-find holds it right now (it may be a
            # node removed earlier whose component is still pending).
            node = graph._find(node)
        if node in model.nodes:
            graph.remove_node(node)
            model.remove_node(node)


@settings(max_examples=120, deadline=None)
@given(ops=_ops)
def test_adjacency_agrees_with_reference(ops):
    graph, model = _apply(ops)
    assert set(graph.node_ids()) == set(model.nodes)
    assert graph.edge_count == len(model.edges)
    assert graph.labels() == model.labels()
    for node in model.nodes:
        assert Counter(graph.successors(node)) == model.successors(node)
        assert Counter(graph.predecessors(node)) == model.predecessors(node)
        for label in LABELS:
            assert Counter(graph.successors(node, label=label)) == model.successors(node, label)
            assert Counter(graph.predecessors(node, label=label)) == model.predecessors(node, label)
        assert graph.degree(node) == model.degree(node)
        assert graph.out_degree(node) + graph.in_degree(node) == model.degree(node)
        assert graph.neighbors_undirected(node) == model.neighbors(node)
        assert Counter(graph.iter_neighbors(node)).keys() == model.neighbors(node)
    for kind in KINDS:
        assert set(graph.nodes_of_kind(kind)) == model.nodes_of_kind(kind)


def _assert_components_agree(graph, model):
    expected = {frozenset(part) for part in model.components()}
    assert {frozenset(part) for part in graph.components()} == expected
    assert graph.component_count == len(expected)
    for node in model.nodes:
        members = graph.component_members(node)
        assert members in expected or frozenset(members) in expected
        assert graph.component_size(node) == len(members)
        root = graph.component_root(node)
        assert root in members
    for a in model.nodes:
        for b in model.nodes:
            same = any(a in part and b in part for part in expected)
            assert graph.same_component(a, b) == same


@settings(max_examples=120, deadline=None)
@given(ops=_ops)
def test_component_index_agrees_with_reference(ops):
    graph, model = _apply(ops)
    _assert_components_agree(graph, model)


@settings(max_examples=120, deadline=None)
@given(ops=_ops)
def test_component_index_agrees_after_every_step(ops):
    """Component reads re-derive pending components, so each step is checked
    on a copy: the driven graph keeps its pending set until a ``quiesce``."""
    _apply(ops, after_step=lambda graph, model: _assert_components_agree(copy.deepcopy(graph), model))


def test_splitting_the_big_component():
    """A 300-node chain cut in the middle, with further edits while pending."""
    graph, model = LabeledMultigraph(), ReferenceModel()
    for node in range(300):
        _step(graph, model, ("node", node, KINDS[0]))
        if node:
            _step(graph, model, ("edge", node - 1, node, LABELS[0]))
    _step(graph, model, ("node", 1000, KINDS[1]))  # a clean singleton
    _assert_components_agree(copy.deepcopy(graph), model)
    _step(graph, model, ("unedge", 149, 150, LABELS[0]))  # split: pending
    assert graph.components_stale
    _step(graph, model, ("edge", 1000, 299, LABELS[1]))  # clean joins pending
    _step(graph, model, ("remove_root", 10))
    _assert_components_agree(copy.deepcopy(graph), model)
    assert graph.components_stale  # the copy re-derived, not the graph
    assert graph.rebuild_components() is True
    _assert_components_agree(graph, model)
    left = next(node for node in (140, 141) if node in model.nodes)
    right = next(node for node in (160, 161) if node in model.nodes)
    assert not graph.same_component(left, right)


@settings(max_examples=80, deadline=None)
@given(ops=_ops)
def test_edge_lookups_agree_with_reference(ops):
    graph, model = _apply(ops)
    expected_pairs = Counter((s, t) for s, t, _ in model.edges)
    for (source, target), count in expected_pairs.items():
        assert len(graph.edges_between(source, target)) == count
        assert graph.has_edge(source, target)
        found = graph.find_edge(source, target)
        assert found is not None and {found.source, found.target} <= {source, target}
        # An edge in the asked direction wins over one the other way.
        assert (found.source, found.target) == (source, target)
    for node_a in model.nodes:
        for node_b in model.nodes:
            if (node_a, node_b) not in expected_pairs:
                assert not graph.has_edge(node_a, node_b)


@settings(max_examples=80, deadline=None)
@given(ops=_ops)
def test_bidirectional_path_is_shortest(ops):
    """path() (bidirectional BFS) returns paths as short as a one-sided BFS."""
    graph, model = _apply(ops)
    agraph = AGraph()
    agraph._graph = graph  # drive the primitive over the generated graph

    def naive_distance(source, target):
        if source == target:
            return 0
        seen = {source: 0}
        queue = deque([source])
        while queue:
            current = queue.popleft()
            for neighbor in model.neighbors(current):
                if neighbor not in seen:
                    seen[neighbor] = seen[current] + 1
                    if neighbor == target:
                        return seen[neighbor]
                    queue.append(neighbor)
        return None

    nodes = sorted(model.nodes)[:6]
    for source in nodes:
        for target in nodes:
            expected = naive_distance(source, target)
            path = agraph.path(source, target)
            if expected is None:
                assert path is None
            else:
                assert path is not None
                assert len(path) - 1 == expected
                assert path[0] == source and path[-1] == target
                for left, right in zip(path, path[1:]):
                    assert right in model.neighbors(left)


# -- regression: satellite bugfixes -------------------------------------------


def test_connect_rejects_unknown_hub():
    """An explicitly passed unknown hub must fail fast, not crash in path()."""
    g = AGraph()
    g.add_content("c1")
    g.add_content("c2")
    g.add_referent("r1")
    g.link(ANNOTATES, "c1", "r1")
    g.link(ANNOTATES, "c2", "r1")
    with pytest.raises(UnknownNodeError):
        g.connect("c1", "c2", hub="ghost")


def test_not_constraint_restricts_to_candidates(small_graphitti, monkeypatch):
    """With candidates available, NOT must not materialize the universe."""
    from repro.query.ast import KeywordConstraint
    from repro.query.builder import QueryBuilder
    from repro.query.executor import QueryExecutor

    query = (
        QueryBuilder.contents()
        .overlaps_interval("chr1", 0, 200)
        .exclude(KeywordConstraint("kinase"))
        .build()
    )
    executor = QueryExecutor(small_graphitti)
    universe_calls = []
    original = QueryExecutor._all_annotation_ids

    def counting(self):
        universe_calls.append(1)
        return original(self)

    monkeypatch.setattr(QueryExecutor, "_all_annotation_ids", counting)
    result = executor.execute(query)
    # a1 and a2 both overlap chr1[0,200]; only a2 mentions "kinase".
    assert result.annotation_ids == ["a1"]
    assert not universe_calls


def test_not_constraint_alone_still_uses_universe(small_graphitti):
    from repro.query.ast import KeywordConstraint
    from repro.query.builder import QueryBuilder

    query = QueryBuilder.contents().exclude(KeywordConstraint("kinase")).build()
    result = small_graphitti.query(query)
    assert result.annotation_ids == ["a1"]

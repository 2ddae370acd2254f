"""Component-local a-graph maintenance.

A removal marks only the component it touched as pending; the next quiesce
point re-derives that component from its own adjacency.  These tests read the
graph's work counter (``rederived_nodes``, surfaced in
``statistics()["agraph"]``) to pin the *cost* — a delete pays for the
component it split, not for the graph — and compare the live partition with
a from-scratch BFS and with snapshot rebuild + WAL replay to pin the result.
"""

from repro.agraph.multigraph import LabeledMultigraph
from repro.datatypes import DnaSequence
from repro.service import GraphittiService, ServiceConfig
from repro.workloads import run_churn_workload, seed_churn_corpus

BIG = 1000  # nodes in the big component
SMALL = 200  # two-node components beside it


def bfs_partition(graph):
    """The graph's components by a from-scratch BFS (never reads the index)."""
    seen, parts = set(), set()
    for start in graph.node_ids():
        if start in seen:
            continue
        part, frontier = {start}, [start]
        while frontier:
            for neighbor in graph.neighbors_undirected(frontier.pop()):
                if neighbor not in part:
                    part.add(neighbor)
                    frontier.append(neighbor)
        seen |= part
        parts.add(frozenset(part))
    return parts


def index_partition(graph):
    return {frozenset(part) for part in graph.components()}


def assert_index_matches_bfs(graph):
    expected = bfs_partition(graph)
    assert index_partition(graph) == expected
    assert graph.component_count == len(expected)
    for part in expected:
        first = next(iter(part))
        assert graph.component_size(first) == len(part)
        assert all(graph.same_component(first, other) for other in part)


def big_and_small():
    """A 1000-node chain ``b0 - b1 - ...`` beside 200 pairs ``s<i>a - s<i>b``."""
    graph = LabeledMultigraph()
    for index in range(BIG):
        graph.add_node(f"b{index}")
        if index:
            graph.add_edge(f"b{index - 1}", f"b{index}", "next")
    for index in range(SMALL):
        graph.add_node(f"s{index}a")
        graph.add_node(f"s{index}b")
        graph.add_edge(f"s{index}a", f"s{index}b", "pair")
    return graph


# -- the work counter, graph level ------------------------------------------------


def test_small_component_delete_costs_at_most_its_size():
    graph = big_and_small()
    assert graph.rederived_nodes == 0  # adds never re-derive
    graph.remove_node("s7a")
    assert graph.components_stale is True
    assert graph.rebuild_components() is True
    assert graph.rederived_nodes <= 2
    assert graph.components_stale is False
    assert graph.rebuild_components() is False  # nothing pending: no work
    assert graph.rederived_nodes <= 2
    assert_index_matches_bfs(graph)


def test_big_component_delete_costs_at_most_its_size_and_splits_it():
    graph = big_and_small()
    graph.remove_node("b400")
    graph.rebuild_components()
    assert graph.rederived_nodes <= BIG
    assert graph.component_size("b0") == 400
    assert graph.component_size("b999") == 599
    assert not graph.same_component("b399", "b401")
    assert_index_matches_bfs(graph)


def test_cascade_inside_one_component_is_one_pass():
    graph = big_and_small()
    for index in range(100, 600, 5):  # 100 removals, one component
        graph.remove_node(f"b{index}")
    assert graph.rebuild_components() is True
    assert graph.rederived_nodes <= BIG  # once, not once per removal
    assert_index_matches_bfs(graph)


def test_from_scratch_build_is_the_same_routine_over_every_node():
    graph = big_and_small()
    graph.remove_node("b400")
    graph.remove_edges("s3a", "s3b")
    local = index_partition(graph)  # the two pending components, re-derived
    before = graph.rederived_nodes
    graph._rebuild_components()
    assert graph.rederived_nodes - before == graph.node_count
    assert index_partition(graph) == local
    assert graph.components_stale is False


# -- pending components stay correct under further mutation -----------------------


def test_removing_the_current_root():
    graph = big_and_small()
    root = graph.component_root("b500")
    graph.remove_node(root)
    survivor = "b500" if root != "b500" else "b501"
    # Finds still resolve through the removed root until the quiesce point.
    graph.add_node("late")
    graph.add_edge("late", survivor, "next")
    assert_index_matches_bfs(graph)
    assert root not in graph.component_members(survivor)


def test_remove_then_readd_same_id_before_the_quiesce_point():
    graph = big_and_small()
    graph.remove_node("b400")
    graph.add_node("b400")  # same id, back before rebuild_components()
    graph.add_edge("b400", "s0a", "next")
    assert graph.rebuild_components() is True
    assert graph.component_members("b400") == {"b400", "s0a", "s0b"}
    assert graph.component_size("b0") == 400
    assert_index_matches_bfs(graph)
    # ... and the same without any edge: the id is a singleton, not lost.
    graph.remove_node("b10")
    graph.add_node("b10")
    graph.rebuild_components()
    assert graph.component_members("b10") == {"b10"}
    assert_index_matches_bfs(graph)


def test_add_edge_between_a_pending_and_a_clean_component():
    graph = big_and_small()
    graph.remove_node("b400")  # the big component is pending
    graph.add_edge("s1a", "b0", "bridge")  # clean pair joins it
    graph.add_edge("b999", "s2a", "bridge")
    assert graph.components_stale is True  # the merge is pending too
    graph.rebuild_components()
    assert graph.component_members("s1b") >= {"s1a", "b0", "b399"}
    assert graph.component_members("s2b") >= {"s2a", "b999", "b401"}
    assert not graph.same_component("s1a", "s2a")
    assert_index_matches_bfs(graph)


def test_a_pending_component_absorbed_by_a_clean_one_stays_pending():
    graph = big_and_small()
    graph.remove_edges("s5a", "s5b")  # the pair is pending (and split)
    graph.add_edge("s5b", "b0", "bridge")  # ... and absorbed by the clean chain
    assert graph.components_stale is True
    graph.rebuild_components()
    assert graph.component_members("s5a") == {"s5a"}
    assert graph.component_size("s5b") == BIG + 1
    assert_index_matches_bfs(graph)


def test_remove_edges_splits_only_when_the_last_parallel_edge_goes():
    graph = big_and_small()
    graph.add_edge("b400", "b399", "back")  # parallel, opposite direction
    assert graph.remove_edges("b399", "b400") == 1
    graph.rebuild_components()
    assert graph.same_component("b0", "b999")
    assert graph.remove_edges("b400", "b399", label="back") == 1
    graph.rebuild_components()
    assert not graph.same_component("b0", "b999")
    assert graph.remove_edges("b0", "b1", label="absent") == 0
    assert graph.components_stale is False  # nothing removed, nothing pending
    assert_index_matches_bfs(graph)


# -- the work counter, through the service ----------------------------------------


def rederived(service):
    return service.statistics()["agraph"]["rederived_nodes"]


def hot_service():
    """250 annotations on ``hot`` and 250 on ``warm`` share one ontology term
    (one component of 1 001 nodes: contents + referents + the term), beside
    200 two-node annotations on ``cold``."""
    service = GraphittiService(config=ServiceConfig(cache_capacity=0))
    for object_id in ("hot", "warm", "cold"):
        service.register(DnaSequence(object_id, "ACGT" * 1000, domain=f"cl:{object_id}"))
    builders = [
        service.new_annotation(f"big-{index}", keywords=["big"], body=f"big {index}")
        .refer_ontology("GO:shared")
        .mark_sequence("hot" if index % 2 else "warm", index * 7, index * 7 + 5)
        for index in range(500)
    ]
    builders += [
        service.new_annotation(f"small-{index}", keywords=["small"], body=f"small {index}")
        .mark_sequence("cold", index * 11, index * 11 + 5)
        for index in range(SMALL)
    ]
    service.bulk_commit(builders)
    return service


def test_service_deletes_pay_for_their_component_only():
    service = hot_service()
    graph = service.manager.agraph.graph
    assert graph.component_size("big-0") == 1001
    assert graph.component_size("small-0") == 2
    assert rederived(service) == 0

    service.delete_annotation("small-3")
    assert rederived(service) <= 2

    before = rederived(service)
    service.delete_annotation("big-4")
    assert 0 < rederived(service) - before <= 1001

    # The cascade removes 250 annotations of one component: one pass over
    # it at the op's quiesce point, not one per cascaded delete.
    before = rederived(service)
    cascaded = service.delete_object("hot")
    assert len(cascaded) == 250
    assert 0 < rederived(service) - before <= 1001
    assert graph.components_stale is False
    assert_index_matches_bfs(graph)


# -- live partition == snapshot rebuild + WAL replay ------------------------------


def test_live_partition_equals_checkpoint_plus_recover(tmp_path):
    root = tmp_path / "svc"
    config = ServiceConfig(checkpoint_on_close=False)
    service = GraphittiService.open(root, config=config)
    corpus = seed_churn_corpus(service, objects=6, annotations=120, tag="cl")
    # Bystanders tying many churn annotations' objects into larger components.
    service.bulk_commit(
        [
            service.new_annotation(f"tie-{index}", keywords=["tie"], body=f"tie {index}")
            .refer_ontology(f"GO:tie{index % 3}")
            .mark_sequence(corpus["object_ids"][index % 6], index * 9, index * 9 + 4)
            for index in range(60)
        ]
    )
    service.checkpoint()
    summary = run_churn_workload(service, corpus, operations=200, seed=5)
    assert not summary["errors"]
    assert summary["deletes"] and summary["object_deletes"] and summary["rewires"]

    graph = service.manager.agraph.graph
    assert graph.components_stale is False  # every op ended at a quiesce point
    live = index_partition(graph)
    assert live == bfs_partition(graph)
    service.close()  # no closing checkpoint: recovery replays the whole stream

    replayed = GraphittiService.recover(root, config=config)
    assert replayed.recovery_info["replayed"] > 200
    assert replayed.manager.agraph.graph.components_stale is False
    assert index_partition(replayed.manager.agraph.graph) == live
    replayed.checkpoint()
    replayed.close()

    rebuilt = GraphittiService.recover(root, config=config)  # snapshot alone
    assert rebuilt.recovery_info["replayed"] == 0
    assert index_partition(rebuilt.manager.agraph.graph) == live
    rebuilt.close()

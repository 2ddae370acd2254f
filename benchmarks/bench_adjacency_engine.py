"""PERF-7: indexed adjacency engine vs. the pre-refactor traversal path.

Measures the four hot-path workloads the indexed-adjacency refactor targets,
on the same >=10k-node / >=30k-edge a-graph, against the faithful
pre-refactor engine kept in :mod:`repro.baselines.unindexed_multigraph`:

* ``path()``        — label-indexed zero-copy BFS vs. list-concatenating BFS
* ``connect()``     — one BFS tree serving all terminals vs. a BFS per terminal
* component grouping — union-find component roots vs. a BFS sweep per seed
* path-constraint   — two multi-source bounded BFS sweeps vs. one BFS per
                      (source, target) pair

``python -m benchmarks.bench_adjacency_engine`` prints the comparison table,
writes ``BENCH_adjacency_engine.json`` via the harness, and exits non-zero if
any workload falls below the 3x speedup floor.  Set ``BENCH_SMOKE=1`` for a
fast CI-sized run (the floor still applies).
"""

from __future__ import annotations

import os
import random

import pytest

from benchmarks._harness import format_row, sample_stats, speedup, time_samples, write_results
from repro.agraph.agraph import ANNOTATES, REFERS_TO, SAME_OBJECT, AGraph
from repro.baselines.unindexed_multigraph import UnindexedMultigraph, mirror_agraph

#: Minimum acceptable speedup of the indexed engine over the pre-refactor one.
SPEEDUP_FLOOR = 3.0

_SMOKE = bool(os.environ.get("BENCH_SMOKE"))

#: (contents in the big cluster, referents in it, small clusters, terms).
SCALE = (700, 350, 60, 80) if _SMOKE else (4000, 2000, 400, 500)


def build_workload(seed: int = 11):
    """One large annotation cluster + many small ones, ontology-decorated.

    The big cluster models the densely cross-annotated core the paper's
    path/connect queries traverse; the small clusters model the independent
    result pages the executor groups by connected component.
    """
    big_contents, big_referents, small_clusters, term_count = SCALE
    rng = random.Random(seed)
    g = AGraph()
    terms = [f"t{i}" for i in range(term_count)]
    for term in terms:
        g.add_ontology_node(term)

    referents = [f"r{i}" for i in range(big_referents)]
    for referent in referents:
        g.add_referent(referent)
    for index in range(1, big_referents):
        g.link(SAME_OBJECT, referents[index - 1], referents[index])
    contents = []
    for index in range(big_contents):
        content = f"c{index}"
        g.add_content(content)
        contents.append(content)
        for _ in range(rng.randint(2, 4)):
            g.link(ANNOTATES, content, rng.choice(referents))
        g.link(REFERS_TO, content, rng.choice(terms))
    for index, referent in enumerate(referents):
        g.link(REFERS_TO, referent, terms[index % term_count])

    cluster_seeds = []
    for cluster in range(small_clusters):
        local_refs = [f"s{cluster}_r{i}" for i in range(5)]
        for referent in local_refs:
            g.add_referent(referent)
        for index in range(1, 5):
            g.link(SAME_OBJECT, local_refs[index - 1], local_refs[index])
        for index in range(10):
            content = f"s{cluster}_c{index}"
            g.add_content(content)
            for _ in range(rng.randint(2, 3)):
                g.link(ANNOTATES, content, rng.choice(local_refs))
            if index == 0:
                cluster_seeds.append(content)
    return g, contents, cluster_seeds


def _component_seeds(contents, cluster_seeds, count=200):
    seeds = list(cluster_seeds)
    seeds.extend(contents[: max(0, count - len(seeds))])
    return seeds[:count]


def _path_endpoints(contents):
    return contents[0], contents[-1]


def _workloads(g: AGraph, mirror: UnindexedMultigraph, contents, cluster_seeds):
    """(name, indexed_fn, baseline_fn) triples over identical inputs."""
    source, target = _path_endpoints(contents)
    terminals = contents[:12]
    seeds = _component_seeds(contents, cluster_seeds)
    path_sources = contents[:6]
    path_targets = contents[-6:]

    def grouped_indexed():
        by_root: dict = {}
        for seed in seeds:
            by_root.setdefault(g.component_root(seed), []).append(seed)
        return by_root

    return [
        (
            "path",
            lambda: g.path(source, target),
            lambda: mirror.path(source, target),
        ),
        (
            "connect",
            lambda: g.connect(*terminals),
            lambda: mirror.connect_nodes(*terminals),
        ),
        (
            "component_grouping",
            grouped_indexed,
            lambda: mirror.group_by_component(seeds),
        ),
        (
            "path_constraint",
            lambda: _indexed_path_eval(g, path_sources, path_targets, 6),
            lambda: mirror.pairwise_path_eval(path_sources, path_targets, 6),
        ),
    ]


def _indexed_path_eval(g: AGraph, sources, targets, bound):
    """The executor's two-sweep evaluation, inlined for the benchmark."""
    from_sources = g.multi_source_distances(sources, max_depth=bound)
    from_targets = g.multi_source_distances(targets, max_depth=bound)
    graph = g.graph
    return {
        node
        for node, source_distance in from_sources.items()
        if (target_distance := from_targets.get(node)) is not None
        and source_distance + target_distance <= bound
        and graph.kind(node) == "content"
    }


# -- pytest-benchmark entry points --------------------------------------------


@pytest.fixture(scope="module")
def engines():
    g, contents, cluster_seeds = build_workload()
    return g, mirror_agraph(g), contents, cluster_seeds


@pytest.mark.parametrize("workload", ["path", "connect", "component_grouping", "path_constraint"])
def test_indexed_engine(benchmark, engines, workload):
    g, mirror, contents, cluster_seeds = engines
    table = {name: fn for name, fn, _ in _workloads(g, mirror, contents, cluster_seeds)}
    benchmark(table[workload])


@pytest.mark.parametrize("workload", ["path", "component_grouping"])
def test_unindexed_engine(benchmark, engines, workload):
    g, mirror, contents, cluster_seeds = engines
    table = {name: fn for name, _, fn in _workloads(g, mirror, contents, cluster_seeds)}
    benchmark(table[workload])


# -- report -------------------------------------------------------------------


def report() -> tuple[str, bool]:
    g, contents, cluster_seeds = build_workload()
    mirror = mirror_agraph(g)
    lines = [
        "PERF-7  indexed adjacency engine vs pre-refactor traversal "
        f"({g.node_count} nodes, {g.edge_count} edges{', smoke' if _SMOKE else ''})"
    ]
    widths = [20, 14, 14, 10]
    lines.append(format_row(["workload", "indexed (ms)", "baseline (ms)", "speedup"], widths))
    rows = []
    ok = True
    for name, indexed_fn, baseline_fn in _workloads(g, mirror, contents, cluster_seeds):
        indexed_result, baseline_result = indexed_fn(), baseline_fn()
        if name == "path_constraint":
            # Sanity: the two-sweep evaluation never loses a pairwise result.
            assert baseline_result <= indexed_result, "two-sweep eval lost results"
        indexed_samples = time_samples(indexed_fn, repeat=5)
        baseline_samples = time_samples(baseline_fn, repeat=2)
        indexed_time = min(indexed_samples)
        baseline_time = min(baseline_samples)
        factor = speedup(baseline_time, indexed_time)
        ok = ok and factor >= SPEEDUP_FLOOR
        row = {
            "workload": name,
            "indexed_seconds": indexed_time,
            "baseline_seconds": baseline_time,
            "speedup": factor,
        }
        row.update(sample_stats(baseline_samples, prefix="baseline"))
        row.update(sample_stats(indexed_samples, prefix="indexed"))
        rows.append(row)
        lines.append(
            format_row(
                [name, f"{indexed_time * 1e3:.3f}", f"{baseline_time * 1e3:.3f}", f"{factor:.1f}x"],
                widths,
            )
        )
    path = write_results(
        "adjacency_engine",
        rows,
        nodes=g.node_count,
        edges=g.edge_count,
        smoke=_SMOKE,
        speedup_floor=SPEEDUP_FLOOR,
    )
    lines.append(f"results written to {path}")
    if not ok:
        lines.append(f"FAIL: at least one workload is below the {SPEEDUP_FLOOR:.0f}x floor")
    return "\n".join(lines), ok


if __name__ == "__main__":
    text, ok = report()
    print(text)
    raise SystemExit(0 if ok else 1)

"""Writes ``agraph_golden.jsonl``: what ``connect`` and ``path`` returned at 9c41433.

The a-graph is the e2e benchmark's FULL corpus (``benchmarks/e2e/corpus.py``)
ingested into a bare :class:`~repro.Graphitti`, then 300 writes of a seeded
``Schedule`` (commits, edits, referent moves and deletes), so the graph has
lost and regained edges the way a served one does.  Each row is one call and
what it returned: ``connect`` rows hold the ``ConnectionSubgraph.to_dict()``,
``path`` rows the node-id list (or ``null``).  Which of several equally short
paths a call returns depends on the order the graph stores a node's
neighbours in, so the rows pin that order too::

    git archive 9c41433 | tar -x -C /tmp/agraph && cd /tmp/agraph
    PYTHONPATH=src python <this file> <repo>/tests/fixtures

Rows, by ``op``:

* ``connect`` -- 2 to 5 contents drawn from one connected component, the
  first of them the anchor, or with a ``hub`` drawn from the same component;
* ``path`` -- two nodes of one component, two nodes drawn from the whole
  graph (mostly unconnected), and pairs restricted to one edge label.

Every other draw is from the largest component (a few hundred nodes joined
through shared ontology terms), the rest from a component drawn at random.

Every choice is drawn from sorted id lists, so the rows do not depend on the
interpreter's hash seed.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd()))

from benchmarks.e2e.corpus import FULL, Corpus, Schedule  # noqa: E402
from benchmarks.e2e.driver import apply_op, ingest  # noqa: E402
from repro import Graphitti  # noqa: E402

WRITES = 300
LABELS = ("annotates", "refers_to", "same_object")


def build_instance() -> Graphitti:
    """The FULL corpus, ingested, then :data:`WRITES` seeded writes."""
    corpus = Corpus(FULL)
    manager = Graphitti("agraph-golden")
    ingest(manager, corpus)
    schedule = Schedule(corpus, random.Random("agraph-golden:writes"))
    for _ in range(WRITES):
        apply_op(manager, schedule.write_op())
    return manager


def calls(manager: Graphitti) -> list[dict]:
    """The seeded calls, without their results."""
    agraph = manager.agraph
    rng = random.Random("agraph-golden:calls")
    nodes = sorted(agraph.graph.node_ids())
    contents = sorted(agraph.contents())
    groups, seen = [], set()
    for content in contents:
        if content in seen:
            continue
        members = agraph.connected_component(content)
        seen |= members
        group = sorted(members.intersection(contents))
        if len(group) >= 2:
            groups.append((group, sorted(members)))
    largest = max(groups, key=lambda group: len(group[1]))

    def draw(index: int) -> tuple[list, list]:
        return largest if index % 2 else rng.choice(groups)

    rows: list[dict] = []
    for index in range(120):
        group, members = draw(index)
        terminals = rng.sample(group, rng.randint(2, min(5, len(group))))
        hub = rng.choice(members) if index % 3 == 0 else None
        rows.append({"op": "connect", "terminals": terminals, "hub": hub})
    for index in range(200):
        if index % 3 == 2:
            pair = rng.sample(nodes, 2)
        else:
            pair = rng.sample(draw(index)[1], 2)
        rows.append({"op": "path", "nodes": pair, "labels": None})
    for index in range(40):
        pair = rng.sample(draw(index)[1], 2)
        rows.append({"op": "path", "nodes": pair, "labels": [rng.choice(LABELS)]})
    return rows


def answer(manager: Graphitti, call: dict):
    """What the a-graph returns for *call*."""
    agraph = manager.agraph
    if call["op"] == "connect":
        return agraph.connect(*call["terminals"], hub=call["hub"]).to_dict()
    return agraph.path(*call["nodes"], labels=call["labels"])


def main(out: Path) -> None:
    manager = build_instance()
    with (out / "agraph_golden.jsonl").open("w", encoding="utf-8") as handle:
        for call in calls(manager):
            row = {**call, "result": answer(manager, call)}
            handle.write(json.dumps(row, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main(Path(sys.argv[1]))

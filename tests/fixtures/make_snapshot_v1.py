"""Writes ``snapshot_v1.json`` and what recovering it gave, at commit d5983d2.

The pair pins the v1 snapshot format (every content document dumped, no
checksum) and the instance its own code recovered from it::

    git archive d5983d2 | tar -x -C /tmp/v1 && cd /tmp/v1
    PYTHONPATH=src python <this file> <repo>/tests/fixtures

The instance: a small e2e corpus (intervals, regions, shared hot sites,
ontology terms) under a schedule of commits, edits, moves and deletes; a
churn corpus under updates, moves, rewires, delete+recommit and cascading
object deletes; one hand-built annotation with user tags (one of them
empty), a label, residue descriptors and content and referent ontology
terms, edited and moved after its commit; and one document no annotation
owns.
"""

from __future__ import annotations

import json
import random
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path.cwd()))

from benchmarks.e2e.corpus import Corpus, Scale, Schedule  # noqa: E402
from benchmarks.e2e.driver import apply_op, ingest, service_config  # noqa: E402
from benchmarks.e2e.oracle import pages, probe_texts  # noqa: E402
from repro.core.annotation import Referent  # noqa: E402
from repro.service import GraphittiService  # noqa: E402
from repro.service.durability import SNAPSHOT_FILE, recover_manager  # noqa: E402
from repro.workloads import run_churn_workload, seed_churn_corpus  # noqa: E402
from repro.xmlstore.document import XmlDocument, XmlElement  # noqa: E402

SCALE = Scale(
    annotations=30,
    sequences=10,
    sequence_length=600,
    images=3,
    vocabulary=40,
    hot_sites=8,
    ingest_batch=15,
    warmup_ops=0,
    blocks=1,
)

ORPHAN = "curator-note"


def build(root: Path) -> None:
    corpus = Corpus(SCALE)
    service = GraphittiService.open(root, config=service_config())
    try:
        ingest(service, corpus)
        for op in Schedule(corpus, random.Random("snapshot-v1")).mixed(30, 1, iter(())):
            apply_op(service, op)
        churn = seed_churn_corpus(service, objects=3, annotations=16, tag="v1")
        summary = run_churn_workload(service, churn, operations=50)
        assert summary["errors"] == [], summary["errors"]

        leaf, other = corpus.leaf_terms[0], corpus.leaf_terms[1]
        builder = (
            service.new_annotation(
                "hand-1",
                title="Catalytic loop — résumé",
                creator="curator@example.org",
                keywords=["catalytic", "loop"],
                body="hand-built record with every searchable part",
                description="label, descriptors, tags and terms",
            )
            .mark_sequence("seq00", 40, 52, ontology_terms=[leaf], label="catalytic loop")
            .mark_region("img00", (10.5, 20.0), (30.25, 44.0), label="stained patch")
            .refer_ontology(other)
        )
        builder.set_tag("lab_protocol", "v2.3")
        builder.set_tag("reviewed_by", "")
        builder.set_tag("note", "naïve ünïcode")
        service.commit(builder.build())
        hand = service.annotation("hand-1")
        region = next(r.referent_id for r in hand.referents if r.ref.rect is not None)
        service.update_annotation(
            "hand-1",
            {
                "user_tags": {"lab_protocol": "v2.4", "reviewed_by": "", "note": "naïve ünïcode"},
                "body": "hand-built record, edited after commit",
                "move_referents": {region: {"lo": [11.5, 21.0], "hi": [31.25, 45.0]}},
                "add_referents": [Referent(ref=service.data_object("seq01").mark(5, 25))],
            },
        )

        note = XmlElement("note", attributes={"lang": "en"}, text="free-standing curator remark")
        note.add("ref", text="no annotation owns this", target="seq02")
        service.manager.contents.add(XmlDocument(note), doc_id=ORPHAN)
        service.checkpoint()
    finally:
        service.close()


def expected(root: Path) -> dict:
    corpus = Corpus(SCALE)
    manager, _ = recover_manager(root)
    contents = manager.contents
    statistics = manager.statistics()
    document_ids = list(contents.document_ids())
    keywords = sorted(contents._index.terms()) + ["catalytic loop", "curator remark", "naïve"]
    hits = {keyword: contents.search_keyword(keyword) for keyword in keywords}
    probes = {text: pages(manager.query(text)) for text in probe_texts(corpus)}
    documents = {doc_id: contents.get(doc_id).to_dict() for doc_id in document_ids}
    return json.loads(
        json.dumps(
            {
                "statistics": statistics,
                "document_ids": document_ids,
                "search_keyword": {keyword: ids for keyword, ids in hits.items() if ids},
                "probes": probes,
                "documents": documents,
            }
        )
    )


def main(out: Path) -> None:
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch) / "root"
        build(root)
        (out / "snapshot_v1.json").write_bytes((root / SNAPSHOT_FILE).read_bytes())
        (out / "snapshot_v1_expected.json").write_text(
            json.dumps(expected(root), sort_keys=True) + "\n", encoding="utf-8"
        )


if __name__ == "__main__":
    main(Path(sys.argv[1]))

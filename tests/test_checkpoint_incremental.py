"""Incremental checkpoints write exactly the file a full encode writes.

A checkpoint encodes only the rows written since the previous checkpoint and
copies every other record's bytes from the snapshot it replaces.  Over
generated histories of commits, bulk commits, every kind of update (a move of
a referent two annotations share included), deletes, cascading object
deletes, compactions and checkpoints, every checkpoint's file is pinned
byte-identical to a full encode of the same state, each record
byte-identical to ``encode_annotation`` of its row, and recovering the root
gives back the live instance.
"""

from __future__ import annotations

import json
import random
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.annotation import Referent
from repro.core.persistence import encode_annotation, snapshot
from repro.datatypes import DnaSequence, Image
from repro.service import GraphittiService, ServiceConfig
from repro.service.durability import (
    SNAPSHOT_FILE,
    peek_snapshot_wal_seq,
    recover_manager,
    write_snapshot_file,
)

CONFIG = ServiceConfig(durability="never", checkpoint_on_close=False)
LENGTH = 300
TERMS = ("go:1", "go:2", "so:7")
STEPS = (
    "commit", "share", "bulk_commit", "content", "terms", "add_referent",
    "remove_referent", "move_shared", "delete_annotation", "delete_object",
    "compact", "checkpoint",
)


def plain(value):
    return json.loads(json.dumps(value))


def full_encode(service: GraphittiService, root: Path) -> bytes:
    """The file a full encode of *service*'s state writes for its snapshot."""
    payload = snapshot(service.manager)
    payload["wal_seq"] = peek_snapshot_wal_seq(root / SNAPSHOT_FILE)
    target = root.parent / "full.json"
    write_snapshot_file(target, payload)
    return target.read_bytes()


def assert_records_are_the_annotation_codecs(manager) -> None:
    """Each record a snapshot encodes from the columns is, byte for byte,
    what ``encode_annotation`` makes of the row materialized as an object."""
    for record in snapshot(manager)["annotations"]:
        annotation_id = record["annotation_id"]
        row = manager.columns.materialize(
            annotation_id, manager.idspace.slot(annotation_id), manager.substructures.columns
        )
        assert json.dumps(record) == json.dumps(encode_annotation(row))


def assert_checkpoint_is_a_full_encode(service: GraphittiService, root: Path) -> None:
    assert (root / SNAPSHOT_FILE).read_bytes() == full_encode(service, root)
    assert_records_are_the_annotation_codecs(service.manager)
    recovered, info = recover_manager(root)
    assert info["replayed"] == 0
    live = service.manager
    assert plain(snapshot(recovered)) == plain(snapshot(live))
    assert recovered.annotation_ids() == live.annotation_ids()
    report = recovered.check_integrity()
    assert report.ok, report.errors


class History:
    """Applies generated steps to a served root, tracking what is valid."""

    def __init__(self, service: GraphittiService, rng: random.Random):
        self.service = service
        self.rng = rng
        self.serial = 0
        self.objects: list[str] = []
        for _ in range(3):
            self.add_object()
        service.register(Image("ci-img", dimension=2, space="ci:atlas", size=(100, 100)))

    def add_object(self) -> None:
        self.serial += 1
        object_id = f"ci-seq-{self.serial}"
        residues = "".join(self.rng.choice("ACGT") for _ in range(LENGTH))
        self.service.register(DnaSequence(object_id, residues, domain="ci:chr1",
                                          offset=self.serial * LENGTH))
        self.objects.append(object_id)

    def live(self) -> list[str]:
        return sorted(self.service.manager.annotation_ids())

    def extent(self) -> tuple[int, int]:
        start = self.rng.randrange(0, LENGTH - 40)
        return start, start + self.rng.randrange(1, 39)

    def builder(self):
        self.serial += 1
        rng = self.rng
        builder = self.service.new_annotation(
            f"ci-{self.serial}",
            title=f"note {self.serial}",
            keywords=rng.sample(["kinase", "loop", "site", "motif"], rng.randrange(0, 3)),
            body=rng.choice(["", f"body {self.serial}"]),
        )
        if rng.random() < 0.3:
            builder.refer_ontology(rng.choice(TERMS))
        if rng.random() < 0.2:
            low = rng.randrange(0, 50)
            builder.mark_region("ci-img", (low, low), (low + 10, low + 5))
        else:
            object_id = rng.choice(self.objects)
            start, end = self.extent()
            builder.mark_sequence(object_id, start, end,
                                  ontology_terms=rng.sample(TERMS, rng.randrange(0, 2)))
        return builder

    def shared_referents(self) -> list[tuple[str, str]]:
        """``(annotation id, referent id)`` for every referent two annotations hold."""
        holders: dict[str, list[str]] = {}
        for annotation_id in self.live():
            for referent in self.service.annotation(annotation_id).referents:
                holders.setdefault(referent.referent_id, []).append(annotation_id)
        return [(ids[0], referent_id) for referent_id, ids in sorted(holders.items())
                if len(ids) >= 2]

    def step(self, kind: str) -> str:
        """Apply one *kind* of step; returns the kind applied (a commit
        stands in for a step that needs an annotation when there is none)."""
        service, rng = self.service, self.rng
        live = self.live()
        if not live and kind not in ("checkpoint", "compact", "bulk_commit"):
            kind = "commit"
        if kind == "commit":
            service.commit(self.builder())
        elif kind == "share":
            annotation = service.annotation(rng.choice(live))
            self.serial += 1
            service.commit(
                service.new_annotation(f"ci-{self.serial}", title="sharer")
                .add_referent(annotation.referents[0].ref)
            )
        elif kind == "bulk_commit":
            service.bulk_commit([self.builder().build() for _ in range(rng.randrange(1, 4))])
        elif kind == "content":
            service.update_annotation(rng.choice(live), {
                "title": f"edited {rng.random():.3f}", "body": rng.choice(["", "rewritten"]),
                "user_tags": {"curator": rng.choice(["ann", "bo"])},
            })
        elif kind == "terms":
            service.update_annotation(rng.choice(live), {
                "ontology_terms": rng.sample(TERMS, rng.randrange(1, 3)),
                "keywords": rng.sample(["kinase", "loop", "site"], rng.randrange(0, 3)),
            })
        elif kind == "add_referent":
            object_id = rng.choice(self.objects)
            start, end = self.extent()
            ref = service.data_object(object_id).mark(start, end)
            service.update_annotation(rng.choice(live), {"add_referents": [Referent(ref=ref)]})
        elif kind == "remove_referent":
            for annotation_id in live:
                referents = service.annotation(annotation_id).referents
                if len(referents) >= 2:
                    service.update_annotation(annotation_id, {
                        "remove_referents": [rng.choice(referents).referent_id]})
                    return kind
        elif kind == "move_shared":
            shared = self.shared_referents()
            if not shared:
                return kind
            annotation_id, referent_id = rng.choice(shared)
            referent = next(item for item in service.annotation(annotation_id).referents
                            if item.referent_id == referent_id)
            if referent.ref.rect is not None:
                low = rng.randrange(0, 80)
                extent = {"lo": [low, low], "hi": [low + 7, low + 3]}
            else:
                start, end = self.extent()
                extent = {"start": start, "end": end}
            service.update_annotation(annotation_id, {"move_referents": {referent_id: extent}})
        elif kind == "delete_annotation":
            service.delete_annotation(rng.choice(live))
        elif kind == "delete_object":
            service.delete_object(rng.choice(self.objects), cascade=True)
            self.objects = [o for o in self.objects if o in service.manager.registry]
            self.add_object()
        elif kind == "compact":
            service.compact()
        else:
            service.checkpoint()
        return kind


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1),
       steps=st.lists(st.sampled_from(STEPS), min_size=5, max_size=40))
def test_every_checkpoint_writes_the_full_encode_and_recovers_the_live_instance(seed, steps):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "root"
        service = GraphittiService.open(root, config=CONFIG)
        try:
            history = History(service, random.Random(seed))
            for kind in [*steps, "checkpoint"]:
                kind = history.step(kind)
                if kind in ("checkpoint", "compact"):  # compact checkpoints too
                    assert_checkpoint_is_a_full_encode(service, root)
        finally:
            service.close()


def test_a_checkpoint_encodes_the_edited_rows_and_the_sharers_of_a_moved_referent(tmp_path):
    service = GraphittiService.open(tmp_path / "root", config=CONFIG)
    try:
        service.register(DnaSequence("ci-seq", "ACGT" * 100, domain="ci:chr1"))
        for serial in range(12):
            service.commit(
                service.new_annotation(f"ci-{serial}", title=f"note {serial}")
                .mark_sequence("ci-seq", serial * 10, serial * 10 + 5)
            )
        shared = service.annotation("ci-0").referents[0]
        service.commit(service.new_annotation("ci-sharer", title="sharer").add_referent(shared.ref))
        service.checkpoint()
        before = service.statistics()["service"]
        edited = ["ci-0", "ci-3", "ci-7", "ci-11"]  # k = 4, none of them the sharer
        service.update_annotation(
            "ci-0", {"move_referents": {shared.referent_id: {"start": 200, "end": 230}}}
        )
        for annotation_id in edited[1:]:
            service.update_annotation(annotation_id, {"body": "edited"})
        service.checkpoint()
        after = service.statistics()["service"]
        encoded = after["checkpoint_rows_encoded"] - before["checkpoint_rows_encoded"]
        copied = after["checkpoint_rows_copied"] - before["checkpoint_rows_copied"]
        assert encoded == len(edited) + 1
        assert copied == service.annotation_count - encoded
    finally:
        service.close()

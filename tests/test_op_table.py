"""The op table is the one declaration of the service surface.

Four proofs: every verb exists, with a compatible signature, on every class
that carries the surface; a *seventh* durable op added as one row plus one
apply function works through emit, WAL, replay, replication, shard routing
and wire dispatch with no other source edit (``approve`` is optional); every
row's ``approve`` column refuses without mutating; and the six real WAL ops
still write the bytes the parent commit wrote.
"""

import inspect
from pathlib import Path

import pytest

from repro.core.annotation import Referent
from repro.core.persistence import decode_annotation, encode_annotation
from repro.datatypes.sequence import DnaSequence
from repro.errors import AnnotationError, GraphittiError
from repro.net import NetworkShardedGraphittiService, ShardClient
from repro.ontology.model import Ontology
from repro.replica import ReplicatedGraphittiService, ReplicationConfig
from repro.service import GraphittiService, ServiceConfig, ops, read_segmented_records
from repro.service.wal import WAL_OPS
from repro.shard import ShardedGraphittiService

SURFACES = (
    GraphittiService,
    ShardedGraphittiService,
    ReplicatedGraphittiService,
    NetworkShardedGraphittiService,
    ShardClient,
)

#: Public ``GraphittiService`` methods that are not verbs: they build, open or
#: retire an instance rather than act on one.
LIFECYCLE = {"open", "recover", "close", "fence", "new_annotation"}

GOLDEN_WAL = Path(__file__).parent / "fixtures" / "wal_golden.jsonl"


# -- (1) one surface, everywhere ---------------------------------------------------


def _signature(cls, op):
    attribute = inspect.getattr_static(cls, op.name)
    assert isinstance(attribute, property) == op.is_property, (cls.__name__, op.name)
    return inspect.signature(attribute.fget if op.is_property else attribute)


def _accepts_the_same_calls(reference, candidate):
    """*candidate* takes every call *reference* takes (extras need defaults)."""
    wanted = list(reference.parameters.values())[1:]
    offered = list(candidate.parameters.values())[1:]
    for position, parameter in enumerate(wanted):
        if position >= len(offered):
            return False
        twin = offered[position]
        if (twin.name, twin.kind, twin.default) != (
            parameter.name,
            parameter.kind,
            parameter.default,
        ):
            return False
    return all(
        extra.default is not inspect.Parameter.empty
        or extra.kind in (inspect.Parameter.VAR_POSITIONAL, inspect.Parameter.VAR_KEYWORD)
        for extra in offered[len(wanted):]
    )


@pytest.mark.parametrize("cls", SURFACES, ids=lambda cls: cls.__name__)
def test_every_verb_is_a_real_attribute_with_the_service_signature(cls):
    for op in ops.OPS.values():
        assert op.name in dir(cls), f"{cls.__name__} lacks {op.name}"
        reference = _signature(GraphittiService, op)
        assert _accepts_the_same_calls(reference, _signature(cls, op)), (
            f"{cls.__name__}.{op.name}{_signature(cls, op)} does not accept "
            f"GraphittiService's {reference}"
        )


def test_every_public_service_method_is_a_row_or_lifecycle():
    public = {
        name
        for name, attribute in vars(GraphittiService).items()
        if not name.startswith("_") and not isinstance(attribute, property)
    }
    rows = {op.name for op in ops.OPS.values() if not op.is_property}
    assert public == rows | LIFECYCLE


def test_generated_methods_carry_the_prototype():
    method = ShardedGraphittiService.delete_annotation
    assert method.__name__ == "delete_annotation"
    assert method.__qualname__ == "ShardedGraphittiService.delete_annotation"
    assert method.__doc__ == ops.delete_annotation.proto.__doc__
    assert list(inspect.signature(method).parameters) == ["self", "annotation_id"]


def test_readme_service_surface_table_matches_the_table():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    for op in ops.OPS.values():
        row = f"| `{op.name}` | {op.kind} | {op.routing} | {op.wal_op or '—'} |"
        assert row in readme, f"README Service surface is missing: {row}"


# -- (2) the seventh op: one row + one apply function -------------------------------


def _apply_retitle(manager, payload):
    return manager.update_annotation(payload["annotation_id"], {"title": payload["title"]})


@pytest.fixture
def retitle():
    def retitle(self, annotation_id: str, title: str):
        """Replace an annotation's title."""

    row = ops.add_op(
        ops.Op(
            "retitle",
            ops.WRITE,
            ops.OWNER,
            ops.Codec(encode=encode_annotation, decode=decode_annotation),
            retitle,
            wal_op="retitle",
            apply=_apply_retitle,
        )
    )
    yield row
    ops.remove_op("retitle")


def _seed(service, annotation_id="t1"):
    service.register(DnaSequence("chr1", "ACGT" * 25, domain="seventh:chr1"))
    return (
        service.new_annotation(annotation_id=annotation_id, title="before", keywords=["seventh"])
        .mark_sequence("chr1", 5, 40)
        .commit()
    )


def _title(service, annotation_id="t1"):
    return service.annotation(annotation_id).content.dublin_core.title


def test_seventh_op_emits_and_replays(tmp_path, retitle):
    service = GraphittiService.open(tmp_path, config=ServiceConfig(checkpoint_on_close=False))
    _seed(service)
    updated = service.retitle("t1", title="after")
    assert updated.content.dublin_core.title == "after"
    records, torn = read_segmented_records(tmp_path / "wal.jsonl")
    assert not torn
    assert records[-1]["op"] == "retitle"
    assert records[-1]["payload"] == {"annotation_id": "t1", "title": "after"}
    # No checkpoint ran: the reopened instance gets the title from WAL replay.
    service.close()
    recovered = GraphittiService.recover(tmp_path)
    assert recovered.recovery_info["replayed"] == len(records)
    assert _title(recovered) == "after"
    recovered.close()


def test_seventh_op_ships_to_followers(tmp_path, retitle):
    manual = ReplicationConfig(auto_ship=False)
    with ReplicatedGraphittiService.open(tmp_path, replicas=1, replication=manual) as service:
        _seed(service)
        service.retitle("t1", "after")
        service.ship()
        (follower,) = service.followers
        assert follower.applied_seq == service.last_acked_seq
        assert _title(follower.service) == "after"


def test_seventh_op_routes_to_the_owning_shard(retitle):
    with ShardedGraphittiService(shards=3, name="seventh") as service:
        _seed(service)
        epochs = [shard.manager.mutation_epoch for shard in service.shards]
        service.retitle("t1", "after")
        bumped = [
            index
            for index, shard in enumerate(service.shards)
            if shard.manager.mutation_epoch != epochs[index]
        ]
        assert bumped == [service._owning_shard("t1")]
        assert _title(service) == "after"
        with pytest.raises(AnnotationError):
            service.retitle("no-such-annotation", "x")


def test_seventh_op_crosses_the_wire(tmp_path, retitle):
    service = NetworkShardedGraphittiService.open(
        tmp_path, shards=2, worker_mode="thread", start_monitor=False
    )
    try:
        _seed(service)
        assert service.retitle("t1", "after").content.dublin_core.title == "after"
        assert _title(service) == "after"
        owner = service._owning_shard("t1")
        records, _ = read_segmented_records(tmp_path / f"shard-{owner:02d}" / "wal.jsonl")
        assert records[-1]["op"] == "retitle"
    finally:
        service.close()


def test_removing_the_row_removes_every_trace(retitle):
    assert all(hasattr(cls, "retitle") for cls in SURFACES)
    assert "retitle" in WAL_OPS
    ops.remove_op("retitle")
    try:
        assert not any(hasattr(cls, "retitle") for cls in SURFACES)
        assert "retitle" not in WAL_OPS and "retitle" not in ops.OPS
    finally:
        ops.add_op(retitle)  # the fixture's teardown removes it again


def _approvals(service):
    """Row name -> (accepted args, refused args) on a service :func:`_seed` filled."""
    fresh = service.new_annotation(annotation_id="t2").mark_sequence("chr1", 50, 60).build()
    moved = {service.annotation("t1").referents[0].referent_id: {"start": 6, "end": 30}}
    return {
        "register_ontology": ((Ontology("fresh"),), (Ontology("go"),)),
        "register": ((DnaSequence("chr2", "ACGT"),), (DnaSequence("chr1", "ACGT"),)),
        "commit": ((fresh,), (service.annotation("t1"),)),
        "bulk_commit": (([fresh],), ([fresh, fresh],)),
        "delete_annotation": (("t1",), ("no-such-annotation",)),
        "update_annotation": (("t1", {"title": "x", "move_referents": moved}), ("t1", {"colour": 1})),
        "delete_object": (("chr1",), ("chr1", False)),
    }


def test_approve_is_read_only_for_every_row(tmp_path):
    service = GraphittiService.open(tmp_path, config=ServiceConfig(checkpoint_on_close=False))
    service.register_ontology(Ontology("go"))
    _seed(service)
    approvals = _approvals(service)
    assert set(approvals) == {op.name for op in ops.OPS.values() if op.approve is not None}
    manager, wal = service.manager, tmp_path / "wal.jsonl"
    before = (manager.mutation_epoch, service.statistics(), wal.read_bytes())
    for name, (accepted, refused) in approvals.items():
        row = ops.OPS[name]
        row.approve(manager, *accepted)
        with pytest.raises(GraphittiError):
            row.approve(manager, *refused)
        # The verb over the surface asks the same column under a read view.
        service.approve(name, *accepted)
    assert (manager.mutation_epoch, service.statistics(), wal.read_bytes()) == before
    service.close()


# -- (3) the durable format did not move ---------------------------------------------


def test_wal_ops_order_is_the_parents():
    assert tuple(WAL_OPS) == (
        "register_ontology",
        "register",
        "commit",
        "delete_annotation",
        "update_annotation",
        "delete_object",
    )


def test_every_wal_payload_is_byte_identical_to_the_parents(tmp_path):
    """The six real ops, scripted; the golden file is the parent commit's WAL."""
    service = GraphittiService.open(tmp_path, config=ServiceConfig(checkpoint_on_close=False))
    ontology = Ontology("go")
    ontology.add_concept("GO:1", "alpha")
    ontology.add_concept("GO:2", "beta", synonyms=("b",))
    service.register_ontology(ontology)
    service.register(DnaSequence("chr1", "ACGT" * 10, domain="g:chr1"), source="golden")
    service.register(DnaSequence("chr2", "TTGA" * 10, domain="g:chr2"))
    first = (
        service.new_annotation(
            annotation_id="a1", title="first", creator="ann", keywords=["k1", "k2"], body="body text"
        )
        .mark_sequence("chr1", 2, 9, ontology_terms=["GO:1"])
        .commit()
    )
    service.bulk_commit(
        [
            service.new_annotation(annotation_id="a2", title="second", keywords=["k2"]).mark_sequence(
                "chr1", 12, 20
            ),
            service.new_annotation(annotation_id="a3", title="third").mark_sequence(
                "chr2", 1, 5, ontology_terms=["GO:2"]
            ),
        ]
    )
    extra = service.data_object("chr1").mark(22, 30)
    service.update_annotation(
        "a1",
        {
            "title": "first (revised)",
            "keywords": ["k1", "k9"],
            "add_referents": [Referent(ref=extra, ontology_terms=["GO:2"])],
            "move_referents": {first.referents[0].referent_id: {"start": 3, "end": 9}},
        },
    )
    service.delete_annotation("a2")
    service.delete_object("chr2", cascade=True)
    service.close()
    written = (tmp_path / "wal.jsonl").read_text(encoding="utf-8")
    assert written == GOLDEN_WAL.read_text(encoding="utf-8")
    assert {line.split('"op":"')[1].split('"')[0] for line in written.splitlines()} == set(WAL_OPS)

"""A write one deployment refuses is refused by every deployment, whole.

One table of bad writes runs against a single service, four threaded
shards, a primary with one follower, and two network workers.  Each write
must raise the same error class everywhere and leave the live annotation
ids, every shard's WAL sequence and the integrity check exactly as they
were: the op table's ``approve`` column runs on every shard before any
shard applies.
"""

import pytest

from repro.core.annotation import Annotation, AnnotationContent
from repro.core.dublin_core import DublinCore
from repro.datatypes.sequence import DnaSequence
from repro.errors import AnnotationError, GraphittiError, ServiceError, UnknownObjectError
from repro.net import NetworkShardedGraphittiService
from repro.ontology.model import Ontology
from repro.replica import ReplicatedGraphittiService, ReplicationConfig
from repro.service import GraphittiService
from repro.shard import ShardedGraphittiService
from repro.shard.router import shard_for_key

KEYWORD = "approval"

# obj-0 and obj-4 route to different shards both four and two ways.
assert shard_for_key("obj-0", 4) != shard_for_key("obj-4", 4)
assert shard_for_key("obj-0", 2) != shard_for_key("obj-4", 2)


def _sequence(object_id):
    return DnaSequence(object_id, "ACGT" * 25, domain=f"approval:{object_id}")


OBJECTS = {f"obj-{index}": _sequence(f"obj-{index}") for index in range(8)}
GHOST = _sequence("ghost")  # never registered


def _ontology():
    ontology = Ontology("approval-go")
    ontology.add_concept("AP:1", "alpha")
    return ontology


def _annotation(annotation_id, *marks):
    """A built annotation with a caller-chosen id, past any builder probe."""
    dublin_core = DublinCore(identifier=annotation_id, subject=[KEYWORD])
    annotation = Annotation(annotation_id, AnnotationContent(dublin_core=dublin_core))
    for obj, start, end in marks:
        annotation.add_referent(obj.mark(start, end))
    return annotation


def _open(kind, root):
    if kind == "service":
        return GraphittiService.open(root)
    if kind == "sharded":
        return ShardedGraphittiService.open(root, shards=4)
    if kind == "replicated":
        return ReplicatedGraphittiService.open(
            root, replicas=1, replication=ReplicationConfig(auto_ship=False)
        )
    return NetworkShardedGraphittiService.open(
        root, shards=2, worker_mode="thread", start_monitor=False
    )


@pytest.fixture(scope="module", params=["service", "sharded", "replicated", "net"])
def deployment(request, tmp_path_factory):
    service = _open(request.param, tmp_path_factory.mktemp(request.param))
    service.register_ontology(_ontology())
    for obj in OBJECTS.values():
        service.register(obj)
    for index in range(4):
        service.new_annotation(f"seed-{index}", keywords=[KEYWORD]).mark_sequence(
            f"obj-{index}", 1, 20
        ).commit()
    # Lives on obj-0's shard but also marks obj-4, whose own shard holds nothing.
    service.new_annotation("cross", keywords=[KEYWORD]).mark_sequence(
        "obj-0", 30, 40
    ).mark_sequence("obj-4", 5, 15).commit()
    yield service
    service.close()


def _wal_seqs(service):
    if isinstance(service, ReplicatedGraphittiService):
        return [service.last_acked_seq]
    return [shard.last_wal_seq for shard in getattr(service, "shards", (service,))]


def _state(service):
    return sorted(service.search_by_keyword(KEYWORD)), service.annotation_count, _wal_seqs(service)


def _seed_referent(service):
    return service.annotation("seed-0").referents[0].referent_id


#: (case id, expected error class, the write).
CASES = [
    ("duplicate-id-on-another-shard", AnnotationError,
     lambda service: service.commit(_annotation("seed-0", (OBJECTS["obj-4"], 50, 60)))),
    ("commit-unregistered-object", UnknownObjectError,
     lambda service: service.commit(_annotation("fresh-0", (GHOST, 1, 10)))),
    ("bulk-one-bad-member", UnknownObjectError,
     lambda service: service.bulk_commit([
         _annotation(f"bulk-{index}", (GHOST if index == 5 else obj, 60, 70))
         for index, obj in enumerate(OBJECTS.values())
     ])),
    ("bulk-duplicate-across-shards", AnnotationError,
     lambda service: service.bulk_commit([
         _annotation("twin", (OBJECTS["obj-0"], 60, 70)),
         _annotation("other", (OBJECTS["obj-1"], 60, 70)),
         _annotation("twin", (OBJECTS["obj-4"], 60, 70)),
     ])),
    ("update-unknown-key", AnnotationError,
     lambda service: service.update_annotation("seed-0", {"colour": "red"})),
    ("update-remove-missing-referent", AnnotationError,
     lambda service: service.update_annotation("seed-0", {"remove_referents": ["nope"]})),
    ("update-wrong-dimension-move", AnnotationError,
     lambda service: service.update_annotation(
         "seed-0", {"move_referents": {_seed_referent(service): {"lo": [1, 1], "hi": [2, 2]}}})),
    ("update-drops-last-referent-and-term", AnnotationError,
     lambda service: service.update_annotation(
         "seed-0", {"title": "gone", "remove_referents": [_seed_referent(service)]})),
    ("delete-unknown-annotation", AnnotationError,
     lambda service: service.delete_annotation("no-such-annotation")),
    ("delete-object-referenced-on-another-shard", AnnotationError,
     lambda service: service.delete_object("obj-4", cascade=False)),
    ("duplicate-register", UnknownObjectError,
     lambda service: service.register(_sequence("obj-1"))),
    ("duplicate-register-ontology", GraphittiError,
     lambda service: service.register_ontology(_ontology())),
]


@pytest.mark.parametrize(
    "expected, write", [case[1:] for case in CASES], ids=[case[0] for case in CASES]
)
def test_refused_writes_apply_nothing_in_every_deployment(deployment, expected, write):
    before = _state(deployment)
    with pytest.raises(GraphittiError) as refused:
        write(deployment)
    assert type(refused.value) is expected
    assert _state(deployment) == before
    assert deployment.check_integrity().ok


@pytest.mark.parametrize("retire", ["close", "fence"])
def test_a_closed_or_fenced_service_hands_out_no_ids(tmp_path, retire):
    service = GraphittiService.open(tmp_path)
    service.close() if retire == "close" else service.fence()
    with pytest.raises(ServiceError):
        service.reserve_annotation_id()
    with pytest.raises(ServiceError):
        service.new_annotation()
    with pytest.raises(ServiceError):
        service.approve("delete_annotation", "anything")
    service.close()


def test_a_replicated_deployment_approves_where_it_writes(tmp_path):
    manual = ReplicationConfig(auto_ship=False)
    with ReplicatedGraphittiService.open(tmp_path, replicas=1, replication=manual) as service:
        service.approve("register", _sequence("obj-0"))
        service.mark_primary_dead()
        # Writes are refused until failover, so approval is refused too.
        with pytest.raises(ServiceError):
            service.approve("register", _sequence("obj-0"))

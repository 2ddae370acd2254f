"""Routing, shard-id codec, and manifest tests for :mod:`repro.shard.router`."""

import json

import pytest

from repro.core.annotation import Annotation, AnnotationContent
from repro.core.dublin_core import DublinCore
from repro.datatypes.base import DataType, SubstructureRef
from repro.errors import ServiceError
from repro.service.wal import write_json_atomic
from repro.shard.router import (
    MANIFEST_FILE,
    ROUTING_SCHEME,
    read_manifest,
    shard_for_annotation,
    shard_for_key,
    shard_from_annotation_id,
    shard_namespace,
)


def _annotation(annotation_id: str, object_ids: list[str]) -> Annotation:
    content = AnnotationContent(dublin_core=DublinCore(identifier=annotation_id))
    annotation = Annotation(annotation_id, content)
    for object_id in object_ids:
        annotation.add_referent(
            SubstructureRef(object_id=object_id, data_type=DataType.DNA, descriptor={})
        )
    return annotation


def test_key_routing_is_deterministic_and_in_range():
    for count in (1, 2, 4, 7):
        for key in ("chr1", "obj-42", "x", "a-very-long-object-identifier"):
            index = shard_for_key(key, count)
            assert 0 <= index < count
            assert index == shard_for_key(key, count)  # stable across calls


def test_key_routing_spreads_over_shards():
    indexes = {shard_for_key(f"obj{i}", 4) for i in range(64)}
    assert indexes == {0, 1, 2, 3}


def test_annotation_routes_by_first_referent_object():
    annotation = _annotation("a1", ["objA", "objB"])
    assert shard_for_annotation(annotation, 4) == shard_for_key("objA", 4)


def test_same_object_annotations_colocate():
    first = _annotation("a1", ["shared-object"])
    second = _annotation("a2", ["shared-object"])
    assert shard_for_annotation(first, 4) == shard_for_annotation(second, 4)


def test_referent_free_annotation_routes_by_id():
    annotation = _annotation("bare-1", [])
    assert shard_for_annotation(annotation, 4) == shard_for_key("bare-1", 4)


def test_shard_id_codec_round_trips():
    for index in (0, 3, 11):
        generated = f"anno-{shard_namespace(index)}-000042"
        assert shard_from_annotation_id(generated) == index


def test_foreign_ids_do_not_decode():
    for foreign in ("anno-000042", "my-annotation", "anno-sx-1", "crash-17"):
        assert shard_from_annotation_id(foreign) is None


def test_manifest_round_trip(tmp_path):
    payload = {"version": 1, "shards": 4, "routing": ROUTING_SCHEME, "checkpoints": 2}
    path = write_json_atomic(tmp_path / MANIFEST_FILE, payload)
    assert path.name == MANIFEST_FILE
    assert read_manifest(tmp_path) == payload
    # the manifest bytes: indented, keys sorted
    assert path.read_text() == json.dumps(payload, indent=2, sort_keys=True)
    # write-temp + rename: no temp file left behind
    assert list(tmp_path.glob("*.tmp")) == []


def test_manifest_absent_reads_none(tmp_path):
    assert read_manifest(tmp_path) is None


def test_manifest_with_foreign_routing_scheme_is_rejected(tmp_path):
    (tmp_path / MANIFEST_FILE).write_text(
        json.dumps({"version": 1, "shards": 2, "routing": "consistent-hash:v9"})
    )
    with pytest.raises(ServiceError):
        read_manifest(tmp_path)

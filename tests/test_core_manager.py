"""Tests for the Graphitti manager facade."""

import pytest

from repro import Graphitti
from repro.datatypes import DnaSequence, Image
from repro.errors import AnnotationError, GraphittiError, UnknownObjectError
from repro.ontology.builtin import build_protein_ontology


def test_register_ontology_and_resolve():
    g = Graphitti()
    g.register_ontology(build_protein_ontology())
    assert g.resolve_ontology_term("Protease") == "protein:protease"
    assert g.resolve_ontology_term("protein:TP53") == "protein:TP53"


def test_register_duplicate_ontology():
    g = Graphitti()
    g.register_ontology(build_protein_ontology())
    with pytest.raises(GraphittiError):
        g.register_ontology(build_protein_ontology())


def test_unknown_ontology():
    g = Graphitti()
    with pytest.raises(GraphittiError):
        g.ontology("missing")


def test_register_object_records_metadata():
    g = Graphitti()
    g.register(DnaSequence("s", "ACGT", domain="chr1"), organism="test")
    meta = g.object_metadata("s")
    assert meta["data_type"] == "dna_sequence"
    assert meta["domain"] == "chr1"
    assert meta["metadata"]["organism"] == "test"


def test_register_stores_raw_bytes():
    g = Graphitti()
    g.register(DnaSequence("s", "ACGT"), raw=b"\x00\x01")
    assert g.object_metadata("s")["raw"] == b"\x00\x01"


def test_a_refused_register_leaves_no_half_registered_object():
    g = Graphitti()
    seq = DnaSequence("s", "ACGT")
    epoch = g.mutation_epoch
    with pytest.raises(AnnotationError):
        g.register(seq, bad=object())
    with pytest.raises(AnnotationError):
        g.register(seq, raw="not bytes")
    assert "s" not in g.registry and g.mutation_epoch == epoch
    with pytest.raises(UnknownObjectError):
        g.object_metadata("s")
    g.register(seq, tags=["a", {"b": None}])  # the retry is not "already registered"
    assert g.object_metadata("s")["metadata"] == {"tags": ["a", {"b": None}]}


def test_object_metadata_returns_a_copy():
    g = Graphitti()
    g.register(DnaSequence("s", "ACGT"), organism="test")
    g.object_metadata("s")["domain"] = "elsewhere"
    assert g.object_metadata("s")["domain"] == "s"


def test_object_metadata_unknown():
    g = Graphitti()
    with pytest.raises(UnknownObjectError):
        g.object_metadata("ghost")


def test_coordinate_system_registered():
    g = Graphitti()
    g.register(Image("img", dimension=2, space="atlas"))
    assert "atlas" in g.coordinate_systems


def test_new_annotation_generates_id():
    g = Graphitti()
    g.register(DnaSequence("s", "ACGT", domain="chr1"))
    builder = g.new_annotation().mark_sequence("s", 0, 2)
    annotation = builder.commit()
    assert annotation.annotation_id.startswith("anno-")


def test_new_annotation_duplicate_id():
    g = Graphitti()
    g.register(DnaSequence("s", "ACGT", domain="chr1"))
    g.new_annotation("a1").mark_sequence("s", 0, 2).commit()
    with pytest.raises(AnnotationError):
        g.new_annotation("a1")


def test_commit_unregistered_object():
    g = Graphitti()
    g.register(DnaSequence("s", "ACGT", domain="chr1"))
    builder = g.new_annotation("a1").mark_sequence("s", 0, 2)
    annotation = builder.build()
    # forge a referent on an unregistered object
    from repro.datatypes.base import DataType, SubstructureRef
    from repro.spatial.interval import Interval

    annotation.add_referent(
        SubstructureRef("ghost", DataType.DNA, interval=Interval(0, 1, domain="d"))
    )
    with pytest.raises(UnknownObjectError):
        g.commit(annotation)


def test_empty_annotation_rejected():
    g = Graphitti()
    with pytest.raises(AnnotationError):
        g.new_annotation("a1").commit()


def test_commit_wires_agraph(small_graphitti):
    g = small_graphitti
    # a1 and a2 both mark seq1[10,40] -> shared referent -> related
    assert g.related_annotations("a1") == ["a2"]
    assert g.agraph.node_count > 0


def test_search_by_keyword(small_graphitti):
    assert small_graphitti.search_by_keyword("protease") == ["a1"]
    assert small_graphitti.search_by_keyword("kinase") == ["a2"]


def test_search_by_ontology(small_graphitti):
    assert "a1" in small_graphitti.search_by_ontology("protein:protease")


def test_search_by_overlap_interval(small_graphitti):
    hits = small_graphitti.search_by_overlap_interval("chr1", 20, 25)
    assert set(hits) == {"a1", "a2"}


def test_search_by_overlap_region(small_graphitti):
    hits = small_graphitti.search_by_overlap_region("atlas:25um", (15, 15), (20, 20))
    assert "a1" in hits


def test_path_between_annotations(small_graphitti):
    path = small_graphitti.path_between_annotations("a1", "a2")
    assert path is not None
    assert path[0] == "a1" and path[-1] == "a2"


def test_connect_annotations(small_graphitti):
    subgraph = small_graphitti.connect_annotations("a1", "a2")
    assert subgraph.is_connected


def test_correlated_data(small_graphitti):
    correlated = small_graphitti.correlated_data("a1")
    shared = [others for others in correlated.values() if "a2" in others]
    assert shared


def test_witness_structure(small_graphitti):
    witness = small_graphitti.witness_structure("a1")
    assert witness["annotation"] == "a1"
    assert len(witness["referents"]) == 2


def test_statistics(small_graphitti):
    stats = small_graphitti.statistics()
    assert stats["annotations"] == 2
    assert stats["data_objects"] == 3
    assert stats["interval_trees"] >= 1


def test_unknown_annotation(small_graphitti):
    with pytest.raises(AnnotationError):
        small_graphitti.annotation("ghost")

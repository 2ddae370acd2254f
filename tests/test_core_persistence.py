"""Tests for whole-instance persistence (snapshot / save / load)."""

import pytest

from repro.core.persistence import rebuild, snapshot
from repro.datatypes import DnaSequence
from repro.errors import UnknownObjectError
from repro.query.builder import QueryBuilder


def test_snapshot_structure(small_graphitti):
    payload = snapshot(small_graphitti)
    assert payload["name"] == small_graphitti.name
    assert len(payload["annotations"]) == small_graphitti.annotation_count
    assert "object_metadata" in payload
    assert "contents" in payload


def test_roundtrip_preserves_statistics(influenza):
    reloaded = rebuild(snapshot(influenza))
    original_stats = influenza.statistics()
    reloaded_stats = reloaded.statistics()
    for key in ("annotations", "referents", "agraph_nodes", "agraph_edges"):
        assert reloaded_stats[key] == original_stats[key]


def test_roundtrip_preserves_queries(neuroscience):
    reloaded = rebuild(snapshot(neuroscience))
    original = set(neuroscience.search_by_keyword("cerebellum"))
    restored = set(reloaded.search_by_keyword("cerebellum"))
    assert original == restored


def test_roundtrip_preserves_relatedness(influenza):
    reloaded = rebuild(snapshot(influenza))
    assert reloaded.related_annotations("flu-a1") == influenza.related_annotations("flu-a1")


def test_roundtrip_preserves_paths(neuroscience):
    reloaded = rebuild(snapshot(neuroscience))
    original = neuroscience.path_between_annotations("neuro-a1", "neuro-a2")
    restored = reloaded.path_between_annotations("neuro-a1", "neuro-a2")
    assert (original is None) == (restored is None)
    assert len(original) == len(restored)


def test_roundtrip_preserves_ontology(influenza):
    reloaded = rebuild(snapshot(influenza))
    assert set(reloaded.ontologies()) == set(influenza.ontologies())
    assert reloaded.resolve_ontology_term("Hemagglutinin") == "flu:HA"


def test_reloaded_is_catalogue_only(influenza):
    reloaded = rebuild(snapshot(influenza))
    assert reloaded.catalogue_only is True
    report = reloaded.check_integrity()
    assert report.ok
    assert report.warnings  # data objects not reconstructed -> warnings


def test_reloaded_query_graph(neuroscience):
    reloaded = rebuild(snapshot(neuroscience))
    result = reloaded.query(QueryBuilder.graph().refers("alpha-synuclein").build())
    assert result.count >= 1


def test_metadata_preserved(influenza):
    reloaded = rebuild(snapshot(influenza))
    meta = reloaded.object_metadata("HA_chicken")
    assert meta["data_type"] == "dna_sequence"


def test_a_loaded_metadata_row_refuses_a_second_registration(influenza):
    reloaded = rebuild(snapshot(influenza))  # rows loaded, registry not hydrated
    before = reloaded.object_metadata("HA_chicken")
    with pytest.raises(UnknownObjectError):
        reloaded.register(DnaSequence("HA_chicken", "ACGT"))
    assert "HA_chicken" not in reloaded.registry
    assert reloaded.object_metadata("HA_chicken") == before


def test_roundtrip_preserves_dublin_core_and_provenance(small_graphitti):
    """Snapshot round-trips must carry the full annotation content: every
    Dublin Core element, the body, and user-defined (provenance) tags."""
    g = small_graphitti
    builder = g.new_annotation(
        "dc-rich",
        title="A fully described annotation",
        creator="curator@example.org",
        keywords=["provenance", "metadata"],
        body="The body text must survive the round trip.",
        description="Asserting lossless content persistence.",
    )
    content = builder.content
    content.dublin_core.publisher = "The Annotation Lab"
    content.dublin_core.contributor = ["reviewer-1", "reviewer-2"]
    content.dublin_core.date = "2008-04-07"
    content.dublin_core.source = "doi:10.1109/ICDE.2008.4497601"
    content.dublin_core.coverage = "segment 4"
    content.dublin_core.rights = "CC-BY"
    content.dublin_core.relation = "flu-a1"
    builder.set_tag("lab_protocol", "v2.3")
    builder.set_tag("reviewed_by", "pi")
    builder.mark_sequence("seq1", 12, 48).commit()

    reloaded = rebuild(snapshot(g))
    original = g.annotation("dc-rich").content
    restored = reloaded.annotation("dc-rich").content
    assert restored.dublin_core.to_dict() == original.dublin_core.to_dict()
    assert restored.body == original.body
    assert restored.user_tags == original.user_tags
    assert restored.ontology_terms == original.ontology_terms
    # The restored creator/title are searchable again (they reached the
    # rebuilt content collection, not just the annotation object).
    assert "dc-rich" in reloaded.search_by_keyword("provenance")


def test_annotation_codec_roundtrip(small_graphitti):
    """encode/decode (the WAL record codec) must be lossless on its own."""
    from repro.core.persistence import decode_annotation, encode_annotation

    original = small_graphitti.annotation("a1")
    decoded = decode_annotation(encode_annotation(original))
    assert decoded.annotation_id == original.annotation_id
    assert decoded.content.dublin_core.to_dict() == original.content.dublin_core.to_dict()
    assert decoded.content.body == original.content.body
    assert decoded.content.user_tags == original.content.user_tags
    assert [r.referent_id for r in decoded.referents] == [r.referent_id for r in original.referents]
    assert [r.ref.to_dict() for r in decoded.referents] == [r.ref.to_dict() for r in original.referents]
    assert [r.ontology_terms for r in decoded.referents] == [
        r.ontology_terms for r in original.referents
    ]


def test_decode_tolerates_legacy_payload():
    """Records written before the full-content codec still decode."""
    from repro.core.persistence import decode_annotation

    legacy = {
        "annotation_id": "old-1",
        "keywords": ["legacy"],
        "content_ontology_terms": ["term:x"],
        "referents": [],
    }
    annotation = decode_annotation(legacy)
    assert annotation.content.keywords() == ["legacy"]
    assert annotation.content.ontology_terms == ["term:x"]

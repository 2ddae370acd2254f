"""A cached page equals a fresh page, after every step of generated histories.

Random histories of writes run through a :class:`GraphittiService` and a bare
:class:`Graphitti` side by side: commits on shared extents with ontology
terms, field edits, moves, added and removed referents, content-term edits,
deletes, and batch commits of several annotations.  After every step
each text of a fixed pool is served by the service (through its result
cache, which a write empties only where it reaches) and must equal the bare
instance's fresh page.  The pool covers every constraint kind, every return
kind, LIMIT, MINCOUNT, ANY, NOT and PATH.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.manager import Graphitti
from repro.core.persistence import encode_referent
from repro.core.annotation import Referent
from repro.datatypes.image import Image
from repro.datatypes.sequence import DnaSequence
from repro.errors import GraphittiError
from repro.net.codec import encode_query_result
from repro.ontology.model import IS_A, Ontology
from repro.service import GraphittiService

SEQ_SITES = [(0, 10), (5, 25), (40, 60), (100, 130), (200, 220)]
BOX_SITES = [((0.0, 0.0), (10.0, 10.0)), ((5.0, 5.0), (30.0, 30.0)), ((50.0, 50.0), (70.0, 70.0))]
WORDS = ["alpha", "beta", "gamma", "delta"]
TERMS = ["T0", "T1", "T2", "T3"]

POOL = [
    'SELECT contents WHERE { CONTENT CONTAINS "alpha" }',
    'SELECT referents WHERE { CONTENT CONTAINS "beta gamma" }',
    'SELECT graph WHERE { CONTENT CONTAINS "gamma" }',
    'SELECT contents WHERE { REFERENT REFERS "T1" }',
    'SELECT contents WHERE { REFERENT REFERS "T0" IN onto NODESC }',
    'SELECT referents WHERE { REFERENT REFERS "T0" } LIMIT 2',
    'SELECT contents WHERE { INTERVAL OVERLAPS g:chr1 [8, 30] }',
    'SELECT referents WHERE { INTERVAL OVERLAPS g:chr1 [0, 60] MINCOUNT 2 }',
    'SELECT contents WHERE { INTERVAL OVERLAPS g:chr2 [0, 300] } LIMIT 3',
    'SELECT contents WHERE { REGION OVERLAPS atlas [0, 0] .. [12, 12] }',
    'SELECT referents WHERE { REGION OVERLAPS atlas [0, 0] .. [80, 80] MINCOUNT 2 }',
    'SELECT contents WHERE { TYPE image }',
    'SELECT contents WHERE { TYPE dna CONTENT CONTAINS "delta" }',
    'SELECT contents WHERE { ANY { CONTENT CONTAINS "alpha" REFERENT REFERS "T2" } }',
    'SELECT contents WHERE { ANY { INTERVAL OVERLAPS g:chr1 [100, 110] '
    'REGION OVERLAPS atlas [50, 50] .. [55, 55] } }',
    'SELECT contents WHERE { NOT { CONTENT CONTAINS "alpha" } }',
    'SELECT contents WHERE { CONTENT CONTAINS "beta" NOT { REFERENT REFERS "T1" } }',
    'SELECT contents WHERE { INTERVAL OVERLAPS g:chr1 [0, 250] NOT { CONTENT CONTAINS "gamma" } '
    'ANY { CONTENT CONTAINS "alpha" CONTENT CONTAINS "delta" } }',
    'SELECT contents WHERE { PATH "alpha" TO "beta" MAXLEN 4 }',
    'SELECT graph WHERE { PATH "gamma" TO "delta" MAXLEN 6 } LIMIT 4',
    'SELECT contents WHERE { CONTENT CONTAINS "alpha" ANY { PATH "beta" TO "delta" MAXLEN 4 '
    'TYPE image } }',
    'SELECT contents WHERE { }',
    'SELECT referents WHERE { CONTENT CONTAINS "g:chr1" REFERENT REFERS "T3" }',
]


def _ontology() -> Ontology:
    ontology = Ontology("onto")
    ontology.add_concept("T0", "root")
    for term, parent in (("T1", "T0"), ("T2", "T0"), ("T3", "T1")):
        ontology.add_concept(term, term.lower())
        ontology.add_relation(term, IS_A, parent)
    return ontology


def _set_up(target) -> None:
    target.register_ontology(_ontology())
    target.register(DnaSequence("s1", "ACGT" * 100, domain="g:chr1"))
    target.register(DnaSequence("s2", "ACGT" * 100, domain="g:chr2"))
    target.register(Image("img", dimension=2, space="atlas"))


_TERMS = st.lists(st.sampled_from(TERMS), max_size=1)
_SEQ_MARK = st.tuples(st.sampled_from(["s1", "s2"]), st.sampled_from(SEQ_SITES), _TERMS)
_BOX_MARK = st.tuples(st.sampled_from(BOX_SITES), _TERMS)
_SPEC = st.fixed_dictionaries(
    {
        "keywords": st.lists(st.sampled_from(WORDS), min_size=1, max_size=2, unique=True),
        "terms": _TERMS,
        "seq": st.lists(_SEQ_MARK, max_size=2, unique_by=lambda mark: mark[:2]),
        "boxes": st.lists(_BOX_MARK, max_size=2, unique_by=lambda mark: mark[0]),
    }
).filter(lambda spec: spec["seq"] or spec["boxes"] or spec["terms"])


def _build(target, name: str, spec: dict):
    builder = target.new_annotation(name, title=f"note {name}", keywords=spec["keywords"])
    if spec["terms"]:
        builder.refer_ontology(*spec["terms"])
    for object_id, (start, end), terms in spec["seq"]:
        builder.mark_sequence(object_id, start, end, ontology_terms=terms)
    for (lo, hi), terms in spec["boxes"]:
        builder.mark_region("img", lo, hi, ontology_terms=terms)
    return builder


def _referent(target, draw) -> dict:
    """A codec-form referent (each side decodes its own copy)."""
    if draw(st.booleans()):
        object_id, (start, end), terms = draw(_SEQ_MARK)
        ref = target.data_object(object_id).mark(start, end)
    else:
        (lo, hi), terms = draw(_BOX_MARK)
        ref = target.data_object("img").mark_region(lo, hi)
    return encode_referent(Referent(ref=ref, ontology_terms=terms))


def _write(data, bare: Graphitti, serial: list[int]):
    """Draw one write: a function applying it to a target, and its label."""
    ids = bare.annotation_ids()
    kinds = ["commit", "batch"] + (
        ["fields", "move", "add", "remove", "terms", "delete"] if ids else []
    )
    kind = data.draw(st.sampled_from(kinds))
    if kind in ("commit", "batch"):
        size = 1 if kind == "commit" else data.draw(st.integers(2, 6))
        specs = [data.draw(_SPEC) for _ in range(size)]
        names = []
        for _ in specs:
            serial[0] += 1
            names.append(f"n{serial[0]:03d}")

        def commit(target):
            built = [_build(target, name, spec).build() for name, spec in zip(names, specs)]
            if isinstance(target, GraphittiService):
                return target.bulk_commit(built)
            return target.commit_many(built)

        return commit, kind
    target_id = data.draw(st.sampled_from(ids))
    annotation = bare.annotation(target_id)
    referents = [referent.referent_id for referent in annotation.referents]
    if kind == "fields":
        changes = data.draw(st.sampled_from([
            {"title": data.draw(st.sampled_from(WORDS))},
            {"keywords": data.draw(st.lists(st.sampled_from(WORDS), min_size=1, max_size=2))},
            {"body": " ".join(data.draw(st.lists(st.sampled_from(WORDS), max_size=2)))},
        ]))
    elif kind == "move":
        movable = [
            referent for referent in annotation.referents
            if referent.ref.interval is not None or referent.ref.rect is not None
        ]
        if not movable:
            return None, kind
        referent = data.draw(st.sampled_from(movable))
        if referent.ref.interval is not None:
            start, end = data.draw(st.sampled_from(SEQ_SITES))
            extent = {"start": start, "end": end}
        else:
            lo, hi = data.draw(st.sampled_from(BOX_SITES))
            extent = {"lo": list(lo), "hi": list(hi)}
        changes = {"move_referents": {referent.referent_id: extent}}
    elif kind == "add":
        changes = {"add_referents": [_referent(bare, data.draw)]}
    elif kind == "remove":
        if not referents:
            return None, kind
        changes = {"remove_referents": [data.draw(st.sampled_from(referents))]}
    elif kind == "terms":
        changes = {"ontology_terms": data.draw(st.lists(st.sampled_from(TERMS), max_size=2))}
    else:
        return (lambda target: target.delete_annotation(target_id)), kind
    return (lambda target: target.update_annotation(target_id, changes)), kind


def _page(result) -> dict:
    payload = encode_query_result(result)
    payload.pop("step_details")  # a hit's steps describe the run that made it
    return payload


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.data())
def test_a_cached_page_equals_a_fresh_page_after_every_step(data):
    service = GraphittiService(manager=Graphitti("served"))
    bare = Graphitti("bare")
    try:
        for target in (service, bare):
            _set_up(target)
        serial = [0]
        for step in range(data.draw(st.integers(1, 12), label="steps")):
            write, kind = _write(data, bare, serial)
            if write is not None:
                outcomes = []
                for target in (service, bare):
                    try:
                        write(target)
                        outcomes.append(None)
                    except GraphittiError as exc:
                        outcomes.append(type(exc))
                assert outcomes[0] == outcomes[1], (step, kind, outcomes)
            for text in POOL:
                assert _page(service.query(text)) == _page(bare.query(text)), (step, kind, text)
    finally:
        service.close()

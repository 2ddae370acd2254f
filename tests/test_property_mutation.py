"""Property tests for the mutation lifecycle.

Three families:

* **delete -> commit -> query aliasing** — the id-space interner recycles a
  released slot for the next interned annotation.  Audit result for this PR:
  no bitset survives across a mutation epoch (the executor builds and
  consumes candidate bitsets inside one ``execute()`` under the service's
  read lock; the statistics catalogue's TYPE index holds *string* id sets;
  cached ``QueryResult`` pages hold string ids and are epoch-validated).  The property pins that: after any
  delete/commit interleaving, every query answers from the live state alone
  — a recycled slot can never resurface its previous occupant.
* **update equals delete+recommit** — the delta-maintenance path must land
  the same query-visible state the rebuild path lands.
* **index exactness under churn** — after any stream of in-place updates the
  live inverted index equals a from-scratch rebuild of every document.
"""

import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.manager import Graphitti
from repro.core.persistence import decode_annotation, encode_annotation
from repro.datatypes import DnaSequence
from repro.query.stats import StatisticsCatalogue
from repro.xmlstore.text_index import InvertedIndex

KEYWORDS = ("protease", "kinase", "binding", "mutation", "conserved")


def _fresh(name):
    g = Graphitti(name)
    g.register(DnaSequence("seq1", "ACGT" * 250, domain="pm:chr1"))
    g.register(DnaSequence("seq2", "TGCA" * 250, domain="pm:chr1", offset=1000))
    return g


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ops=st.integers(5, 40), seed=st.integers(0, 10_000))
def test_delete_commit_query_never_aliases(ops, seed):
    """Slot reuse must never leak a dead annotation into any query answer."""
    rng = random.Random(seed)
    g = _fresh(f"alias{seed}")
    live: dict[str, str] = {}  # annotation id -> its unique keyword
    serial = 0
    for _ in range(ops):
        if live and rng.random() < 0.4:
            victim = rng.choice(sorted(live))
            g.delete_annotation(victim)
            del live[victim]
        else:
            annotation_id = f"al-{serial}"
            unique = f"uniq{serial}"
            shared = KEYWORDS[serial % len(KEYWORDS)]
            start = rng.randrange(0, 900)
            (
                g.new_annotation(annotation_id, keywords=[shared, unique], body=f"body {serial}")
                .mark_sequence(rng.choice(("seq1", "seq2")), start, start + 20)
                .commit()
            )
            live[annotation_id] = unique
            serial += 1
        # interner invariant: interned ids == live annotations, always
        assert len(g.idspace) == len(live)
        assert all(annotation_id in g.idspace for annotation_id in live)
    # every unique keyword resolves to exactly its live owner; dead ids never
    # resurface through recycled slots
    for annotation_id, unique in live.items():
        result = g.query(f'SELECT contents WHERE {{ CONTENT CONTAINS "{unique}" }}')
        assert result.annotation_ids == [annotation_id]
    for shared in KEYWORDS:
        result = g.query(f'SELECT contents WHERE {{ CONTENT CONTAINS "{shared}" }}')
        expected = sorted(
            annotation_id
            for annotation_id in live
            if shared in g.annotation(annotation_id).content.keywords()
        )
        assert result.annotation_ids == expected
    type_result = g.query("SELECT contents WHERE { TYPE dna_sequence }")
    assert type_result.annotation_ids == sorted(live)
    report = g.check_integrity()
    assert report.ok, report.errors


def _seed_twins(seed, count):
    rng = random.Random(seed)
    twins = (_fresh(f"up{seed}"), _fresh(f"rc{seed}"))
    extents = []
    used = set()
    for serial in range(count):
        while True:
            start = rng.randrange(0, 900)
            length = rng.randrange(10, 60)
            if (start, length) not in used:
                used.add((start, length))
                break
        extents.append((start, start + length))
    for g in twins:
        for serial, (start, end) in enumerate(extents):
            (
                g.new_annotation(
                    f"tw-{serial}",
                    title=f"twin {serial}",
                    keywords=[KEYWORDS[serial % len(KEYWORDS)]],
                    body=f"twin body {serial}",
                )
                .mark_sequence("seq1" if serial % 2 else "seq2", start, end)
                .commit()
            )
    return twins


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(count=st.integers(3, 10), edits=st.integers(1, 12), seed=st.integers(0, 10_000))
def test_update_equals_delete_plus_recommit(count, edits, seed):
    rng = random.Random(seed * 31 + 7)
    updated, recommitted = _seed_twins(seed, count)
    for edit in range(edits):
        serial = rng.randrange(count)
        victim = f"tw-{serial}"
        changes = {
            "title": f"edit {edit}",
            "keywords": [KEYWORDS[(serial + edit) % len(KEYWORDS)], f"stamp{edit}"],
            "body": f"edited body {edit}",
        }
        if rng.random() < 0.5:
            referent_id = updated.annotation(victim).referents[0].referent_id
            # half-integer extents cannot collide with the integer corpus
            start = rng.randrange(0, 900) + 0.5
            changes["move_referents"] = {referent_id: {"start": start, "end": start + 15}}
        updated.update_annotation(victim, dict(changes))

        replacement = decode_annotation(encode_annotation(recommitted.annotation(victim)))
        replacement.content.dublin_core.title = changes["title"]
        replacement.content.dublin_core.subject = list(changes["keywords"])
        replacement.content.body = changes["body"]
        if "move_referents" in changes:
            from repro.spatial.interval import Interval

            referent = replacement.referents[0]
            extent = next(iter(changes["move_referents"].values()))
            referent.ref.interval = Interval(
                extent["start"], extent["end"], domain=referent.ref.interval.domain
            )
            referent.ref.descriptor["start"] = extent["start"]
            referent.ref.descriptor["end"] = extent["end"]
        recommitted.delete_annotation(victim)
        recommitted.commit(replacement)

    probes = [f'SELECT contents WHERE {{ CONTENT CONTAINS "{kw}" }}' for kw in KEYWORDS]
    probes.append("SELECT contents WHERE { INTERVAL OVERLAPS pm:chr1 [0, 2000] }")
    probes.append('SELECT contents WHERE { CONTENT CONTAINS "stamp0" }')
    for text in probes:
        assert updated.query(text).annotation_ids == recommitted.query(text).annotation_ids
    assert updated.stats_catalogue.counts() == recommitted.stats_catalogue.counts()
    trees, twins = updated.substructures.interval_family, recommitted.substructures.interval_family
    assert sorted(trees.domains) == sorted(twins.domains)
    for domain in trees.domains:
        tree, twin = trees.tree(domain), twins.tree(domain)
        assert len(tree) == len(twin) and tree.span() == twin.span()


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(edits=st.integers(1, 25), seed=st.integers(0, 10_000))
def test_index_matches_rebuild_after_update_churn(edits, seed):
    rng = random.Random(seed)
    g = _fresh(f"ix{seed}")
    for serial in range(6):
        # ix-5 shares ix-0's extent (and therefore its referent), so moves
        # exercise the shared-substructure sync across sharer documents
        start = 0 if serial == 5 else serial * 30
        (
            g.new_annotation(
                f"ix-{serial}",
                title=f"indexed {serial}",
                keywords=[KEYWORDS[serial % len(KEYWORDS)]],
                body=f"indexed body protein.TP53 {serial}",
            )
            .mark_sequence("seq1", start, start + 20)
            .commit()
        )
    for edit in range(edits):
        victim = f"ix-{rng.randrange(6)}"
        kind = rng.randrange(4)
        if kind == 0:
            g.update_annotation(victim, {"title": f"t{edit}", "keywords": [f"kw{edit}", "shared"]})
        elif kind == 1:
            g.update_annotation(victim, {"body": f"rewritten {edit} x.y-z"})
        elif kind == 2:
            referent_id = g.annotation(victim).referents[0].referent_id
            start = rng.randrange(0, 900) + 0.25
            g.update_annotation(
                victim, {"move_referents": {referent_id: {"start": start, "end": start + 9}}}
            )
        else:
            g.update_annotation(victim, {"user_tags": {"note": f"n{edit}"}})
    live = g.contents._index
    fresh = InvertedIndex()
    for doc_id in g.contents.document_ids():
        fresh.add_document(doc_id, g.contents._searchable_text(g.contents.get(doc_id)))
    assert live._postings == fresh._postings
    assert live._doc_lengths == fresh._doc_lengths
    catalogue = StatisticsCatalogue()
    catalogue.rebuild(g)
    assert g.stats_catalogue.counts() == catalogue.counts()

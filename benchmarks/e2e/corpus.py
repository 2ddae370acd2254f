"""Seeded corpus and operation schedules for the end-to-end benchmark.

Everything the system under test sees is generated here, *before* any timing:
the heterogeneous corpus (DNA sequences in one shared coordinate domain, 2-D
images in one shared space, an ontology DAG, Zipf keywords) and the
annotations ingested at set-up are a fixture, the same in every run; each
workload's list of operations is generated from the ``--seed``.  The program
sees only the generated inputs.

Annotations and operations are plain tuples/dicts ("specs") so the very same
schedule can be applied to the deployment under test *and* to the oracle.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Any, Iterator

from repro.datatypes.image import Image
from repro.datatypes.sequence import DnaSequence
from repro.ontology.model import Ontology
from repro.workloads.generators import generate_ontology_dag, random_dna

DOMAIN = "genome:chrX"
SPACE = "atlas:25um"
IMAGE_SIZE = 1000.0
ONTOLOGY = "bo"

#: Read shapes, cycled in this order (the paper's query classes).
SHAPES = ("kw_interval", "referents", "region", "ontology", "q1", "path", "not_any")


@dataclass(frozen=True)
class Scale:
    """Corpus and schedule sizes; the full scale is the benchmark's."""

    annotations: int
    sequences: int
    sequence_length: int
    images: int
    vocabulary: int
    hot_sites: int
    ingest_batch: int
    warmup_ops: int
    blocks: int


FULL = Scale(
    annotations=2000,
    sequences=48,
    sequence_length=2000,
    images=16,
    vocabulary=300,
    hot_sites=160,
    ingest_batch=500,
    warmup_ops=600,
    blocks=24,
)

#: The tier-1 smoke test's scale: same code paths, seconds not minutes.
SMOKE = Scale(
    annotations=300,
    sequences=12,
    sequence_length=600,
    images=4,
    vocabulary=60,
    hot_sites=24,
    ingest_batch=100,
    warmup_ops=40,
    blocks=4,
)


#: The corpus is the benchmark's fixture, the same for every ``--seed``: the
#: database a deployment serves does not change with the traffic, and a query
#: pool whose cost changed with the seed would measure the seed.
CORPUS_SEED = 2008


class Corpus:
    """The data objects, vocabulary, query pool and annotation generator."""

    def __init__(self, scale: Scale = FULL):
        self.scale = scale
        rng = random.Random(f"{CORPUS_SEED}:corpus")
        self.ontology: Ontology = generate_ontology_dag(ONTOLOGY, 3, 3, 2, rng)
        concepts = [term.term_id for term in self.ontology.concepts()]
        # bo:0 is the root, bo:1..3 its children: too broad to query (rows
        # would swamp collation).  Depth-2 concepts and leaves are queried;
        # leaves and instances are what annotations point at.
        self.query_terms = concepts[4:]
        self.leaf_terms = concepts[13:] + [f"{ONTOLOGY}:i{index}" for index in range(54)]
        self.sequences = [
            DnaSequence(
                f"seq{index:02d}",
                random_dna(scale.sequence_length, rng),
                domain=DOMAIN,
                offset=index * scale.sequence_length,
            )
            for index in range(scale.sequences)
        ]
        self.images = [
            Image(f"img{index:02d}", dimension=2, space=SPACE, size=(IMAGE_SIZE, IMAGE_SIZE))
            for index in range(scale.images)
        ]
        self.domain_span = scale.sequences * scale.sequence_length
        self.vocabulary = [f"kw{index:03d}" for index in range(scale.vocabulary)]
        self._zipf = list(
            itertools.accumulate(1.0 / (rank + 1) for rank in range(scale.vocabulary))
        )
        # Substructures several annotations mark identically: shared referent
        # nodes are what connects annotations in the a-graph (PATH / GRAPH).
        self.hot_sites = [self._random_site(rng) for _ in range(scale.hot_sites)]
        # Referent ids in use.  An unshared mark never repeats one: a referent
        # keeps its id (the key of its first extent) when it is moved, so a
        # later annotation marking that first extent would be filed under the
        # moved referent -- live it keeps its own extent, recovered it gets the
        # moved one (found by this benchmark's oracle; the system's to fix).
        self._referent_ids = {
            self.sequences[index].mark(start, end).key() for index, start, end in self.hot_sites
        }
        self._serial = itertools.count()
        shapes = annotation_shapes(rng)
        self.initial = [self.annotation_spec(rng, next(shapes)) for _ in range(scale.annotations)]

    # -- registration -----------------------------------------------------------

    def register_into(self, target: Any) -> None:
        """Register the ontology and every data object into *target*."""
        target.register_ontology(self.ontology)
        for obj in self.sequences:
            target.register(obj)
        for obj in self.images:
            target.register(obj)

    # -- annotation specs -------------------------------------------------------

    def keywords(self, rng: random.Random, count: int) -> list[str]:
        """*count* distinct Zipf-distributed keywords."""
        chosen: list[str] = []
        while len(chosen) < count:
            word = rng.choices(self.vocabulary, cum_weights=self._zipf)[0]
            if word not in chosen:
                chosen.append(word)
        return chosen

    def _random_site(self, rng: random.Random) -> tuple[int, int, int]:
        length = self.scale.sequence_length
        start = rng.randrange(0, length - 40)
        return rng.randrange(self.scale.sequences), start, start + rng.randint(5, 30)

    def _sequence_mark(self, site: tuple[int, int, int], terms: list[str], shared: bool) -> dict:
        index, start, end = site
        sequence = self.sequences[index]
        return {
            "kind": "seq",
            "object": sequence.object_id,
            "start": start,
            "end": end,
            "terms": terms,
            "rid": sequence.mark(start, end).key(),
            "shared": shared,
            "offset": sequence.offset,
        }

    def _region_mark(self, rng: random.Random, image: Image, terms: list[str]) -> dict:
        x = round(rng.uniform(0, IMAGE_SIZE - 20), 2)
        y = round(rng.uniform(0, IMAGE_SIZE - 20), 2)
        lo = (x, y)
        hi = (round(x + rng.uniform(5, 15), 2), round(y + rng.uniform(5, 15), 2))
        return {
            "kind": "region",
            "object": image.object_id,
            "lo": lo,
            "hi": hi,
            "terms": terms,
            "rid": image.mark_region(lo, hi).key(),
            "shared": False,
        }

    def annotation_spec(self, rng: random.Random, shape: "Shape") -> dict:
        """One annotation of *shape*, its particulars drawn from *rng*."""
        serial = next(self._serial)
        words = self.keywords(rng, shape.keywords)
        with_terms = shape.terms

        def terms() -> list[str]:
            return [rng.choice(self.leaf_terms)] if with_terms else []

        marks = []
        if shape.hot_site:
            # No ontology terms on a shared substructure: when one of two
            # annotations sharing a referent is deleted, the live a-graph
            # keeps the term edge the deleted one put on the shared node,
            # while a recovered instance rebuilds without it, and PATH /
            # REFERS pages then differ between the two (found by this
            # benchmark's oracle; a correctness issue of its own, not a
            # workload's business to trip over).
            marks.append(self._sequence_mark(rng.choice(self.hot_sites), [], True))
        else:
            while True:
                mark = self._sequence_mark(self._random_site(rng), terms(), False)
                if mark["rid"] not in self._referent_ids:
                    break
            self._referent_ids.add(mark["rid"])
            marks.append(mark)
        if shape.regions:
            image = rng.choice(self.images)
            # Two regions on one image: the Q-1 "at least 2 regions" population.
            marks.extend(self._region_mark(rng, image, terms()) for _ in range(shape.regions))
        return {
            "id": f"a{serial:06d}",
            "title": f"annotation {serial} on {words[0]}",
            "creator": f"scientist{rng.randint(1, 8)}",
            "keywords": words,
            "body": f"observed {words[-1]} near {self.keywords(rng, 1)[0]}",
            "content_terms": [rng.choice(self.leaf_terms)] if with_terms and rng.random() < 0.3 else [],
            "marks": marks,
        }

    # -- query texts ------------------------------------------------------------

    def query_text(self, shape: str, rng: random.Random) -> str:
        """One parameterisation of *shape*; rows returned stay around 50 or fewer."""
        span = self.domain_span
        tenth = max(8, self.scale.vocabulary // 10)
        # The few most popular words each sit in a fifth of the corpus: a
        # keyword subquery on one of them materialises a fifth of the corpus,
        # and rows, not the layer under test, would set the latency.  Keyword
        # constraints draw from the ranks just below them; PATH, whose
        # multi-source sweep starts at every match, from rarer words still.
        head = self.vocabulary[tenth // 4 : tenth * 2]
        tail = self.vocabulary[tenth : tenth * 4]
        if shape == "kw_interval":
            start = rng.randrange(0, span - 5000)
            return (
                f'SELECT contents WHERE {{ CONTENT CONTAINS "{rng.choice(head)}" '
                f"INTERVAL OVERLAPS {DOMAIN} [{start}, {start + rng.randint(3000, 5000)}] }}"
            )
        if shape == "referents":
            start = rng.randrange(0, span - 800)
            return (
                f"SELECT referents WHERE {{ INTERVAL OVERLAPS {DOMAIN} "
                f"[{start}, {start + rng.randint(500, 800)}] }} LIMIT 25"
            )
        if shape == "region":
            x, y = rng.randrange(0, 850), rng.randrange(0, 850)
            side = rng.randint(100, 150)
            return (
                f"SELECT contents WHERE {{ REGION OVERLAPS {SPACE} "
                f"[{x}, {y}] .. [{x + side}, {y + side}] }}"
            )
        if shape == "ontology":
            # Few terms are worth asking for, so the text also varies in how it
            # spells the same question (explicit ontology, explicit default).
            spelling = rng.choice(("", " WITH DESCENDANTS")) if rng.random() < 0.8 else " NODESC"
            return (
                f'SELECT contents WHERE {{ REFERENT REFERS "{rng.choice(self.query_terms)}"'
                f'{rng.choice(("", f" IN {ONTOLOGY}"))}{spelling} }} LIMIT {rng.randint(20, 60)}'
            )
        if shape == "q1":
            x, y = rng.randrange(0, 400), rng.randrange(0, 400)
            return (
                f'SELECT graph WHERE {{ CONTENT CONTAINS "{rng.choice(head)}" '
                f'REFERENT REFERS "{rng.choice(self.query_terms[:9])}" '
                f"REGION OVERLAPS {SPACE} [{x}, {y}] .. [{x + 600}, {y + 600}] MINCOUNT 2 }}"
            )
        if shape == "path":
            source, target = rng.sample(tail, 2)
            return f'SELECT contents WHERE {{ PATH "{source}" TO "{target}" MAXLEN 4 }} LIMIT 50'
        if shape == "not_any":
            start = rng.randrange(0, span - 2500)
            first, second = rng.sample(head, 2)
            return (
                f"SELECT contents WHERE {{ INTERVAL OVERLAPS {DOMAIN} "
                f"[{start}, {start + rng.randint(1500, 2500)}] "
                f'NOT {{ CONTENT CONTAINS "{rng.choice(head)}" }} '
                f'ANY {{ CONTENT CONTAINS "{first}" CONTENT CONTAINS "{second}" }} }}'
            )
        raise ValueError(f"unknown query shape {shape!r}")

    def distinct_queries(self, rng: random.Random) -> Iterator[str]:
        """An endless stream of never-repeating query texts, cycling the shapes."""
        seen: set[str] = set()
        for shape in itertools.cycle(SHAPES):
            while True:
                text = self.query_text(shape, rng)
                if text not in seen:
                    seen.add(text)
                    yield text
                    break

    def query_pool(self, size: int, rng: random.Random) -> list[str]:
        """*size* distinct query texts, shapes cycled."""
        return list(itertools.islice(self.distinct_queries(rng), size))


# -- annotation shapes ---------------------------------------------------------------


@dataclass(frozen=True)
class Shape:
    """What an annotation is made of; how many bytes it takes follows from it."""

    keywords: int
    terms: bool
    hot_site: bool
    regions: int


def annotation_shapes(rng: random.Random) -> Iterator[Shape]:
    """Endless shapes, dealt in decks of 20 with exact proportions.

    Per deck: 10 annotations with three keywords and 10 with two, 2 with
    ontology terms (10 %), 3 marking a shared hot site (15 %), 4 with image
    regions (20 %, half of them two regions): ~1.2 referents each.  Each
    property is shuffled on its own.  Exact proportions, so that bytes per
    annotation and per WAL record do not wander with the seed the way
    independent draws would make them.
    """
    while True:
        columns = []
        for column in (
            [3] * 10 + [2] * 10,
            [True] * 2 + [False] * 18,
            [True] * 3 + [False] * 17,
            [2] * 2 + [1] * 2 + [0] * 16,
        ):
            rng.shuffle(column)
            columns.append(column)
        yield from (Shape(*row) for row in zip(*columns))


# -- operation schedules -----------------------------------------------------------

#: One cycle of writes: 70 % commit / 20 % update (half content edits, half
#: extent moves) / 10 % delete.  Shuffled per cycle, never re-proportioned.
_WRITE_CYCLE = ("commit",) * 14 + ("edit",) * 2 + ("move",) * 2 + ("delete",) * 2

#: Writes per deck, of write kinds and of annotation shapes alike.
DECK = len(_WRITE_CYCLE)

#: Op kinds as the driver reports them.
READ, WRITE, DELETE = "read", "write", "delete"


class Schedule:
    """Generates one workload's op list, tracking which annotations are live.

    The generator mirrors the effect of its own ops on the id population, so
    an update or delete always names an annotation that is live at that point
    of the schedule: no operation of a generated schedule fails.
    """

    def __init__(self, corpus: Corpus, rng: random.Random):
        self.corpus = corpus
        self.rng = rng
        self._live: list[dict] = list(corpus.initial)
        self._writes: Iterator[str] = iter(())
        self._shapes = annotation_shapes(rng)

    def _pick(self, movable: bool = False) -> int:
        """Index of a random live spec (*movable*: its first mark is unshared)."""
        while True:
            index = self.rng.randrange(len(self._live))
            if not movable or not self._live[index]["marks"][0]["shared"]:
                return index

    def write_op(self) -> tuple:
        """The next write of the 70/20/10 cycle."""
        kind = next(self._writes, None)
        if kind is None:
            cycle = list(_WRITE_CYCLE)
            self.rng.shuffle(cycle)
            self._writes = iter(cycle)
            kind = next(self._writes)
        rng, live = self.rng, self._live
        if kind == "commit":
            spec = self.corpus.annotation_spec(rng, next(self._shapes))
            live.append(spec)
            return (WRITE, "commit", spec)
        if kind == "delete":
            index = self._pick()
            live[index], live[-1] = live[-1], live[index]  # swap-remove, O(1)
            return (DELETE, "delete", live.pop()["id"])
        if kind == "edit":
            spec = live[self._pick()]
            words = self.corpus.keywords(rng, 2)
            changes = {"title": f"revised {spec['id']} on {words[0]}", "keywords": words}
            return (WRITE, "update", spec["id"], changes)
        spec = live[self._pick(movable=True)]
        mark = spec["marks"][0]
        start = rng.randrange(0, self.corpus.scale.sequence_length - 40)
        extent = {
            "start": mark["offset"] + start,
            "end": mark["offset"] + start + rng.randint(5, 30),
        }
        return (WRITE, "update", spec["id"], {"move_referents": {mark["rid"]: extent}})

    def mixed(self, groups: int, write_every: int, reads: Iterator[str]) -> list[tuple]:
        """*groups* groups of *write_every* ops, exactly one write per group.

        The write's position inside each group is random; the proportion is
        exact, so byte and call counts do not wander with the seed.  Every
        call starts on fresh decks of writes and of annotation shapes.
        """
        self._writes = iter(())
        self._shapes = annotation_shapes(self.rng)
        ops: list[tuple] = []
        for _ in range(groups):
            slot = self.rng.randrange(write_every)
            for position in range(write_every):
                if position == slot:
                    ops.append(self.write_op())
                else:
                    ops.append((READ, "query", next(reads)))
        return ops


#: Draws per Zipf deck (eight per pool text on average).
_DECK = 512


def zipf_reads(pool: list[str], exponent: float, rng: random.Random) -> Iterator[str]:
    """Endless Zipf(*exponent*) draws from *pool* (rank 0 most popular).

    Drawn deck by deck: a deck holds each text in exact proportion to its
    Zipf weight (largest remainders rounded up) and is reshuffled every time
    it runs out.  Popularity is Zipf over any stretch of reads, while how
    often the expensive texts come up does not wander with the seed the way
    independent draws would make it.
    """
    weights = [1.0 / (rank + 1) ** exponent for rank in range(len(pool))]
    shares = [weight / sum(weights) * _DECK for weight in weights]
    counts = [int(share) for share in shares]
    by_remainder = sorted(range(len(pool)), key=lambda rank: shares[rank] - counts[rank], reverse=True)
    for rank in by_remainder[: _DECK - sum(counts)]:
        counts[rank] += 1
    deck = [text for text, count in zip(pool, counts) for _ in range(count)]
    while True:
        rng.shuffle(deck)
        yield from deck

"""The manager, the executor and a brute force count spatial hits alike.

``search_by_overlap_interval`` / ``_region`` and the executor's spatial
steps all count annotations through ``AGraph.annotation_counts`` over the
referent ids the interval-tree / R-tree walk returns; the executor's probe
mode reads the packed referent columns instead of the trees.  Each is held
against a count over ``manager.annotations()``, on an instance whose
annotations share hot-site referents, after extent moves and deletes.
"""

import random

import pytest

from repro.core.manager import Graphitti
from repro.datatypes import DnaSequence, Image
from repro.query.ast import OverlapConstraint, RegionConstraint
from repro.query.executor import QueryExecutor

DOMAIN = "agree:chr1"
SPACE = "agree:atlas"


def churned_instance(seed: int) -> Graphitti:
    rng = random.Random(seed)
    manager = Graphitti("agree")
    manager.register(DnaSequence("s1", "ACGT" * 100, domain=DOMAIN))
    manager.register(DnaSequence("s2", "TGCA" * 100, domain=DOMAIN, offset=400))
    manager.register(Image("img", dimension=2, space=SPACE, size=(200, 200)))
    # Few sites, many annotations: most referents are shared.
    sites = [(rng.choice(["s1", "s2"]), start, start + rng.randint(0, 30))
             for start in rng.sample(range(360), 14)]
    boxes = []
    for _ in range(10):
        x, y = rng.randrange(180), rng.randrange(180)
        boxes.append(((x, y), (x + rng.randint(0, 20), y + rng.randint(0, 20))))
    for index in range(40):
        builder = manager.new_annotation(f"a{index:02d}", keywords=["site"], body="a mark")
        for site in rng.sample(sites, rng.randint(1, 3)):
            builder.mark_sequence(*site)
        for lo, hi in rng.sample(boxes, rng.randint(0, 2)):
            builder.mark_region("img", lo, hi)
        builder.commit()
    for annotation_id in rng.sample(manager.annotation_ids(), 12):
        referent = rng.choice(manager.annotation(annotation_id).referents)
        if referent.ref.interval is not None:
            start = rng.randrange(800)
            move = {"start": start, "end": start + rng.randint(0, 40)}
        else:
            x, y = rng.randrange(180), rng.randrange(180)
            move = {"lo": (x, y), "hi": (x + rng.randint(0, 20), y + rng.randint(0, 20))}
        manager.update_annotation(annotation_id, {"move_referents": {referent.referent_id: move}})
    for annotation_id in rng.sample(manager.annotation_ids(), 8):
        manager.delete_annotation(annotation_id)
    return manager


def brute_counts(manager: Graphitti, hit) -> dict[str, int]:
    """Per annotation, how many of its referents *hit* accepts."""
    counts = {}
    for annotation in manager.annotations():
        count = sum(1 for referent in annotation.referents if hit(referent.ref))
        if count:
            counts[annotation.annotation_id] = count
    return counts


def interval_hit(start, end):
    def hit(ref):
        extent = ref.interval
        if extent is None or (extent.domain or ref.object_id) != DOMAIN:
            return False
        return extent.start <= end and start <= extent.end
    return hit


def region_hit(lo, hi):
    def hit(ref):
        extent = ref.rect
        if extent is None or (extent.space or ref.object_id) != SPACE:
            return False
        return all(a <= d and c <= b for a, b, c, d in zip(extent.lo, extent.hi, lo, hi))
    return hit


@pytest.mark.parametrize("seed", range(4))
def test_interval_counts_agree(seed):
    manager = churned_instance(seed)
    executor = QueryExecutor(manager)
    rng = random.Random(f"{seed}:windows")
    for _ in range(25):
        start = rng.randrange(850)
        end = start + rng.randint(0, 120)
        counts = brute_counts(manager, interval_hit(start, end))
        assert manager.search_by_overlap_interval(DOMAIN, start, end) == sorted(counts)
        for min_count in (1, 2):
            expected = sorted(a for a, count in counts.items() if count >= min_count)
            text = f"SELECT contents WHERE {{ INTERVAL OVERLAPS {DOMAIN} [{start}, {end}] MINCOUNT {min_count} }}"
            assert manager.query(text).annotation_ids == expected
            constraint = OverlapConstraint(DOMAIN, start, end, min_count)
            assert sorted(executor._probe(constraint, manager.annotation_ids())) == expected  # noqa: SLF001


@pytest.mark.parametrize("seed", range(4))
def test_region_counts_agree(seed):
    manager = churned_instance(seed)
    executor = QueryExecutor(manager)
    rng = random.Random(f"{seed}:boxes")
    for _ in range(25):
        x, y = rng.randrange(190), rng.randrange(190)
        lo, hi = (x, y), (x + rng.randint(0, 60), y + rng.randint(0, 60))
        counts = brute_counts(manager, region_hit(lo, hi))
        assert manager.search_by_overlap_region(SPACE, lo, hi) == sorted(counts)
        for min_count in (1, 2):
            expected = sorted(a for a, count in counts.items() if count >= min_count)
            text = (
                f"SELECT contents WHERE {{ REGION OVERLAPS {SPACE} [{x}, {y}] .. [{hi[0]}, {hi[1]}] "
                f"MINCOUNT {min_count} }}"
            )
            assert manager.query(text).annotation_ids == expected
            constraint = RegionConstraint(SPACE, lo, hi, min_count)
            assert sorted(executor._probe(constraint, manager.annotation_ids())) == expected  # noqa: SLF001


def test_the_instance_shares_referents_and_has_multi_hit_annotations():
    # The agreement above is only telling if counts above 1 occur and
    # referents are shared; guard the fixture against drifting away from that.
    manager = churned_instance(0)
    shared = [rid for rid in manager.agraph.referents() if len(manager.agraph.contents_annotating(rid)) > 1]
    assert len(shared) >= 5
    counts = brute_counts(manager, interval_hit(0, 850))
    assert max(counts.values()) >= 2

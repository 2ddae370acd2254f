"""Hypothesis round-trip: route -> scatter -> merge equals the unsharded oracle.

For any randomly generated corpus (objects, keywords, intervals, point
annotations, deletes) and any shard count, a :class:`ShardedGraphittiService`
must answer the probe query set — keyword, overlap, NOT, OR, LIMIT —
bit-identically (ordering included) to one :class:`GraphittiService` holding
the same annotations.  Half the annotations also mark one of a few shared
extents on a second object, so one referent is marked from several shards,
and REFERENTS probes cut it with small ``LIMIT`` values.
"""

import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.manager import Graphitti
from repro.service import GraphittiService
from repro.shard import ShardedGraphittiService

KEYWORDS = ("protease", "kinase", "binding", "mutation")

PROBES = (
    'SELECT contents WHERE { CONTENT CONTAINS "protease" }',
    'SELECT contents WHERE { CONTENT CONTAINS "kinase" }',
    "SELECT contents WHERE { INTERVAL OVERLAPS prop:chr1 [0, 400] }",
    "SELECT contents WHERE { INTERVAL OVERLAPS prop:chr1 [400, 400] }",
    'SELECT contents WHERE { NOT { CONTENT CONTAINS "binding" } }',
    'SELECT contents WHERE { ANY { CONTENT CONTAINS "protease" CONTENT CONTAINS "mutation" } }',
    'SELECT referents WHERE { INTERVAL OVERLAPS prop:chr1 [100, 700] }',
    'SELECT contents WHERE { CONTENT CONTAINS "mutation" } LIMIT 3',
    # Shared referents (see ``SHARED_STARTS``) under a global cut.
    "SELECT referents WHERE { INTERVAL OVERLAPS prop:chr1 [0, 1600] } LIMIT 1",
    "SELECT referents WHERE { INTERVAL OVERLAPS prop:chr1 [0, 1600] } LIMIT 2",
    "SELECT referents WHERE { INTERVAL OVERLAPS prop:chr1 [0, 1600] } LIMIT 5",
    'SELECT referents WHERE { CONTENT CONTAINS "kinase" } LIMIT 3',
)

#: Extents a second mark picks from (on object 0, or 1 when the first mark
#: is on 0): few enough that annotations routed to different shards (by
#: their first object) often share one referent.
SHARED_STARTS = (50, 300, 600)


def _drive(service, num_annotations: int, delete_ratio: float, seed: int) -> None:
    """Apply one deterministic mutation sequence to *service*."""
    from repro.datatypes.sequence import DnaSequence

    rng = random.Random(seed)
    object_ids = []
    for index in range(5):
        obj = DnaSequence(
            f"pobj{index}", "ACGT" * 250, domain="prop:chr1", offset=index * 150
        )
        service.register(obj)
        object_ids.append(obj.object_id)
    committed = []
    for index in range(num_annotations):
        builder = service.new_annotation(
            f"p-{index:03d}",
            title=f"prop {index}",
            keywords=[rng.choice(KEYWORDS)],
            body=f"property corpus {index}",
        )
        start = rng.randint(0, 700)
        # mix point annotations (start == end) in with ranged ones
        end = start if rng.random() < 0.3 else start + rng.randint(1, 60)
        builder.mark_sequence(object_ids[index % 5], start, end)
        if rng.random() < 0.5:
            second = object_ids[1 if index % 5 == 0 else 0]
            shared = rng.choice(SHARED_STARTS)
            builder.mark_sequence(second, shared, shared + 40)
        committed.append(service.commit(builder).annotation_id)
    victims = [
        annotation_id for annotation_id in committed if rng.random() < delete_ratio
    ]
    for annotation_id in victims:
        service.delete_annotation(annotation_id)


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    num_annotations=st.integers(1, 24),
    shards=st.integers(1, 5),
    delete_ratio=st.floats(0.0, 0.4),
    seed=st.integers(0, 10_000),
)
def test_route_then_merge_equals_unsharded_oracle(num_annotations, shards, delete_ratio, seed):
    sharded = ShardedGraphittiService(shards=shards, name=f"prop-sharded-{seed}")
    oracle = GraphittiService(manager=Graphitti(f"prop-oracle-{seed}"))
    try:
        _drive(sharded, num_annotations, delete_ratio, seed)
        _drive(oracle, num_annotations, delete_ratio, seed)
        for text in PROBES:
            left = sharded.query(text)
            right = oracle.query(text)
            assert left.annotation_ids == right.annotation_ids, text
            left_refs = [referent.referent_id for referent in left.referents]
            right_refs = [referent.referent_id for referent in right.referents]
            assert left_refs == right_refs, text
        assert sharded.annotation_count == oracle.annotation_count
        assert sharded.check_integrity().ok
    finally:
        sharded.close()
        oracle.close()

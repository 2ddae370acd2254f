"""A scattered query merges from its shard pages alone.

Each shard page carries its ``LIMIT`` and, for REFERENTS, the position of
the annotation that introduced each referent, so neither sharded facade
parses the text itself or reads a shard's live state after the pages were
made.  Pinned here:

* a delete that lands between the pages and the merge (threaded facade), or
  between a worker's query and the encoding of its reply (network facade),
  cannot change the merged page: it equals the unsharded page taken before
  the delete;
* a threaded scattered query calls ``parse_query`` only inside its shards.
"""

import sys

import pytest

from repro.core.manager import Graphitti
from repro.net import NetworkShardedGraphittiService
from repro.net.codec import encode_query_result
from repro.query import parser
from repro.service import GraphittiService
from repro.shard import ShardedGraphittiService

from test_net_faults import assert_sockets_idle
from test_shard_service import populate

#: ``x-000`` marks an extent no other annotation marks, so its referent
#: leaves every live index when it is deleted.
VICTIM = "x-000"

TEXTS = (
    'SELECT referents WHERE { CONTENT CONTAINS "common" }',
    'SELECT referents WHERE { CONTENT CONTAINS "common" } LIMIT 5',
)


def page(result):
    """*result*'s pages in the canonical wire form, without plan detail."""
    payload = encode_query_result(result)
    payload.pop("step_details")
    return payload


def oracle_pages():
    oracle = GraphittiService(manager=Graphitti("merge-race-oracle"))
    populate(oracle)
    try:
        return {text: page(oracle.query(text)) for text in TEXTS}
    finally:
        oracle.close()


@pytest.mark.parametrize("text", TEXTS)
def test_a_delete_between_the_pages_and_the_merge_changes_nothing_merged(text):
    expected = oracle_pages()[text]
    assert VICTIM in expected["annotation_ids"]
    sharded = ShardedGraphittiService(shards=2, name="merge-race")
    populate(sharded)
    merge = sharded._merge_results

    def delete_then_merge(*args):
        sharded.delete_annotation(VICTIM)
        return merge(*args)

    sharded._merge_results = delete_then_merge
    try:
        assert page(sharded.query(text)) == expected
        assert not sharded.holds(VICTIM)
    finally:
        sharded.close()


@pytest.mark.parametrize("text", TEXTS)
def test_a_delete_before_a_worker_encodes_its_reply_changes_nothing_merged(text):
    expected = oracle_pages()[text]
    net = NetworkShardedGraphittiService.open(
        None, shards=2, worker_mode="thread", start_monitor=False, op_timeout_s=10.0
    )
    populate(net)
    for service in net._worker_services:

        def query_then_delete(gql, service=service, original=service.query):
            result = original(gql)
            if service.holds(VICTIM):
                service.delete_annotation(VICTIM)
            return result

        service.query = query_then_delete
    try:
        assert page(net.query(text)) == expected
        assert not net.holds(VICTIM)
        assert_sockets_idle(net)
    finally:
        net.close()


def test_a_threaded_scattered_query_parses_only_inside_its_shards(monkeypatch):
    sharded = ShardedGraphittiService(shards=3, name="merge-parse")
    populate(sharded)
    inside = [0]
    parsed = {"inside": 0, "outside": 0}
    original_parse = parser.parse_query

    def counting_parse(text):
        parsed["inside" if inside[0] else "outside"] += 1
        return original_parse(text)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(module, "parse_query", None) is original_parse:
            monkeypatch.setattr(module, "parse_query", counting_parse)
    for shard in sharded.shards:

        def shard_query(text, original=shard.query):
            inside[0] += 1
            try:
                return original(text)
            finally:
                inside[0] -= 1

        monkeypatch.setattr(shard, "query", shard_query)
    try:
        # A text no shard or facade has seen, so nothing is memoised.
        result = sharded.query('SELECT referents WHERE { CONTENT CONTAINS "beta" } LIMIT 4')
        assert len(result.annotation_ids) == 4
        assert parsed == {"inside": sharded.shard_count, "outside": 0}
    finally:
        sharded.close()

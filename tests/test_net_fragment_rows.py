"""CONTENTS pages on the wire: row text, the worker's memo, damaged pages.

A fragment crosses as the JSON text of ``XmlDocument.to_rows`` and each
worker encodes one stored document version once, keyed by the document
object.  Pinned here:

* every damaged page decodes to :class:`WireError`, and one damaged reply
  costs one query, not the facade;
* pages stay equal to an unsharded oracle's across every change that
  replaces a stored document — an edit, a move of a referent another
  annotation shares (the sharer was not written), a delete and recommit of
  the same id, a cascading object delete — and the memo holds no entry for
  a version that is gone;
* reader threads sharing one worker's memo while a writer edits leave it
  serving the oracle's pages once writes stop.
"""

import gc
import json
import os
import sys
import threading
import time

import pytest

from repro.core.manager import Graphitti
from repro.errors import WireError
from repro.net import NetworkShardedGraphittiService, RetryPolicy
from repro.net.codec import decode_query_result, encode_query_result
from repro.query.ast import ReturnKind
from repro.query.result import QueryResult
from repro.service import GraphittiService
from repro.xmlstore.document import XmlDocument, XmlElement

from test_net_faults import assert_sockets_idle
from test_shard_service import PROBES, assert_bit_identical, populate

FAST_RETRY = RetryPolicy(attempts=2, base_backoff_s=0.001, max_backoff_s=0.005)

ALL_CONTENTS = 'SELECT contents WHERE { CONTENT CONTAINS "common" }'


def open_net(shards=4):
    return NetworkShardedGraphittiService.open(
        None,
        shards=shards,
        worker_mode="thread",
        start_monitor=False,
        retry=FAST_RETRY,
        op_timeout_s=10.0,
    )


def open_pair(shards=4):
    net = open_net(shards)
    oracle = GraphittiService(manager=Graphitti("rows-oracle"))
    for service in (net, oracle):
        populate(service)
        # Two annotations on one extent: they share its referent.
        for annotation_id in ("s-a", "s-b"):
            service.new_annotation(
                annotation_id, title=annotation_id, keywords=["common", "shared"]
            ).mark_sequence("obj1", 100, 140).commit()
    return net, oracle


def memo_sizes(net):
    return sum(len(server._documents) for server in net._servers)


def live_documents(net):
    return sum(len(service.manager.contents) for service in net._worker_services)


# -- the codec -------------------------------------------------------------------


def _page():
    root = XmlElement("annotation", attributes={"id": "a1"})
    root.add("body", text="text")
    result = QueryResult(return_kind=ReturnKind.CONTENTS, annotation_ids=["a1", "a2"])
    result.fragments = [XmlDocument(root, doc_id="a1"), None]
    return encode_query_result(result)


def test_a_fragment_crosses_as_row_text_and_decodes_to_the_same_tree():
    page = _page()
    assert page["fragments"][1] is None
    assert json.loads(page["fragments"][0]) == ["a1", ["annotation", {"id": "a1"}, "", [
        ["body", {}, "text", []],
    ]]]
    decoded = decode_query_result(json.loads(json.dumps(page)))
    assert decoded.fragments[1] is None
    assert decoded.fragments[0].to_dict() == {
        "doc_id": "a1",
        "root": {"tag": "annotation", "attributes": {"id": "a1"}, "text": "", "children": [
            {"tag": "body", "attributes": {}, "text": "text", "children": []},
        ]},
    }


def test_the_memo_encodes_a_document_object_once():
    document = XmlDocument(XmlElement("annotation", attributes={"id": "a1"}), doc_id="a1")
    result = QueryResult(return_kind=ReturnKind.CONTENTS, annotation_ids=["a1"])
    result.fragments = [document]
    memo = {}
    first = encode_query_result(result, None, memo)
    assert memo == {document: first["fragments"][0]}
    memo[document] = "memoised"
    assert encode_query_result(result, None, memo)["fragments"] == ["memoised"]
    assert encode_query_result(result)["fragments"] == first["fragments"]  # no memo


def _damaged(change):
    page = _page()
    change(page)
    return page


DAMAGED = {
    "empty page": lambda page: page.clear(),
    "no return kind": lambda page: page.pop("return_kind"),
    "unknown return kind": lambda page: page.update(return_kind="pictures"),
    "fragment in the disk shape, no root": lambda page: page.update(
        fragments=[{"doc_id": "a1"}, None]
    ),
    "fragment in the disk shape": lambda page: page.update(
        fragments=[{"doc_id": "a1", "root": {"tag": "x"}}, None]
    ),
    "fragment text not JSON": lambda page: page.update(fragments=['["a1", [', None]),
    "fragment rows of three": lambda page: page.update(fragments=['["a1", ["x", {}, ""]]', None]),
    "fragment with an empty tag": lambda page: page.update(fragments=['["a1", ["", {}, "", []]]', None]),
    "fragment attributes a list": lambda page: page.update(fragments=['["a1", ["x", [], "", []]]', None]),
    "fragment text null": lambda page: page.update(fragments=['["a1", ["x", {}, null, []]]', None]),
    "fragment doc id a number": lambda page: page.update(fragments=['[1, ["x", {}, "", []]]', None]),
    "fragment nested too deep": lambda page: page.update(
        fragments=['["a1", ' + '["x", {}, "", [' * 5000 + "]]" * 5000 + "]", None]
    ),
    "fragments not a list": lambda page: page.update(fragments=3),
    "referent without a ref": lambda page: page.update(referents=[{"referent_id": "r"}]),
    "referent map a list": lambda page: page.update(referents_by_annotation=[]),
    "subgraph edge without a source": lambda page: page.update(subgraphs=[{"edges": [{}]}]),
}


@pytest.mark.parametrize("damage", sorted(DAMAGED))
def test_a_damaged_page_raises_wire_error(damage):
    with pytest.raises(WireError):
        decode_query_result(_damaged(DAMAGED[damage]))


def test_a_page_that_is_no_object_raises_wire_error():
    for payload in (None, [], "page"):
        with pytest.raises(WireError):
            decode_query_result(payload)


def test_one_damaged_reply_fails_one_query_and_the_next_succeeds(monkeypatch):
    net, oracle = open_pair()
    try:
        server = net._servers[1]
        serve = server._handlers["query"]
        damaged = []

        def damage_once(args):
            page = serve(args)
            if not damaged:
                damaged.append(args)
                page["fragments"] = [json.dumps(["x", ["", {}, "", []]])] * len(page["fragments"])
            return page

        monkeypatch.setitem(server._handlers, "query", damage_once)
        with pytest.raises(WireError):
            net.query(ALL_CONTENTS)
        assert damaged
        assert_sockets_idle(net)
        assert_bit_identical(net, oracle)
    finally:
        net.close()
        oracle.close()


# -- memo freshness and lifetime -------------------------------------------------


def test_pages_follow_every_document_change_and_the_memo_follows_the_documents():
    net, oracle = open_pair()
    try:
        assert_bit_identical(net, oracle)  # the memo now holds every version shipped
        assert memo_sizes(net) == live_documents(net)

        changes = {"title": "retitled", "keywords": ["alpha", "common", "edited"], "body": "new"}
        for service in (net, oracle):
            service.update_annotation("x-005", dict(changes))
        assert_bit_identical(net, oracle)

        shared = net.annotation("s-a").referents[0].referent_id
        assert shared == net.annotation("s-b").referents[0].referent_id
        for service in (net, oracle):
            service.update_annotation(
                "s-a", {"move_referents": {shared: {"start": 500, "end": 540}}}
            )
        moved = net.query('SELECT contents WHERE { CONTENT CONTAINS "shared" }')
        interval = moved.fragments[1].root.find("referents").find("referent").find("interval")
        assert moved.annotation_ids[1] == "s-b" and interval.get("start") == "500"
        assert_bit_identical(net, oracle)

        for service in (net, oracle):
            service.delete_annotation("x-007")
            service.new_annotation(
                "x-007", title="recommitted", keywords=["alpha", "common", "again"]
            ).mark_sequence("obj1", 7, 19).commit()
        assert_bit_identical(net, oracle)

        for service in (net, oracle):
            service.delete_object("obj2")
        assert_bit_identical(net, oracle)

        gc.collect()
        assert 0 < memo_sizes(net) <= live_documents(net)
    finally:
        net.close()
        oracle.close()


# -- readers sharing one worker's memo while a writer edits ----------------------


def test_readers_share_the_memo_while_a_writer_edits():
    net, oracle = open_pair(shards=1)
    readers = max(4, (os.cpu_count() or 1) + 2)
    stop = threading.Event()
    errors = []
    reads = [0] * readers

    def read(slot):
        try:
            while not stop.is_set():
                for text in (ALL_CONTENTS, PROBES[0], PROBES[3]):
                    result = net.query(text)
                    for annotation_id, fragment in zip(result.annotation_ids, result.fragments):
                        assert fragment.doc_id == annotation_id
                    reads[slot] += 1
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    def write():
        try:
            shared = net.annotation("s-a").referents[0].referent_id
            deadline = time.monotonic() + 1.5
            step = 0
            while time.monotonic() < deadline:
                step += 1
                target = f"x-{step % 36:03d}"
                changes = {"title": f"edit {step}", "keywords": ["alpha", "common", f"e{step}"]}
                move = {"move_referents": {shared: {"start": 100 + step % 50, "end": 140 + step % 50}}}
                for service in (net, oracle):
                    service.update_annotation(target, dict(changes))
                    service.update_annotation("s-a", dict(move))
                shared = net.annotation("s-a").referents[0].referent_id
        except Exception as exc:  # reported by the main thread
            errors.append(exc)
        finally:
            stop.set()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(slot,)) for slot in range(readers)]
        threads.append(threading.Thread(target=write))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        alive = [thread for thread in threads if thread.is_alive()]
    finally:
        stop.set()
        sys.setswitchinterval(interval)
    try:
        assert not alive, "a reader or the writer is still running"
        assert not errors, errors
        assert all(reads), reads
        assert_bit_identical(net, oracle)
        gc.collect()
        assert memo_sizes(net) <= live_documents(net)
    finally:
        net.close()
        oracle.close()

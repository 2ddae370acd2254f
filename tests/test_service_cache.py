"""Tests for the epoch-tagged LRU query-result cache and the keys the service gives it."""

import dataclasses
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.manager import Graphitti
from repro.datatypes.sequence import DnaSequence
from repro.errors import GraphittiError, QuerySyntaxError, SpatialError
from repro.query import QueryBuilder, parse_query
from repro.query.ast import (
    KeywordConstraint,
    NotConstraint,
    OntologyConstraint,
    OrConstraint,
    OverlapConstraint,
    PathConstraint,
    Query,
    RegionConstraint,
    ReturnKind,
    TypeConstraint,
)
from repro.service import GraphittiService
from repro.service.cache import QueryResultCache


def test_hit_and_miss():
    cache = QueryResultCache(capacity=4)
    assert cache.get("k", epoch=1) is None
    cache.put("k", epoch=1, value="v")
    assert cache.get("k", epoch=1) == "v"
    stats = cache.stats()
    assert stats["hits"] == 1 and stats["misses"] == 1


def test_epoch_bump_invalidates():
    cache = QueryResultCache(capacity=4)
    cache.put("k", epoch=1, value="v")
    assert cache.get("k", epoch=2) is None  # stale epoch -> dropped
    assert len(cache) == 0
    stats = cache.stats()
    assert stats["invalidations"] == 1
    # And the old value never resurfaces, even at the old epoch.
    assert cache.get("k", epoch=1) is None


def test_a_newer_epoch_drops_every_older_entry():
    # A stale entry never hits again; held until its own key came back it
    # would keep its result (and the documents in it) alive.
    cache = QueryResultCache(capacity=4)
    cache.put("a", 1, "A")
    cache.put("b", 1, "B")
    assert cache.get("c", 2) is None
    assert len(cache) == 0
    assert cache.stats()["invalidations"] == 2
    cache.put("c", 2, "C")
    cache.put("a", 1, "late A")  # computed before epoch 2 landed: not kept
    assert cache.get("c", 2) == "C"
    assert cache.get("a", 2) is None
    assert len(cache) == 1


def test_lru_eviction_order():
    cache = QueryResultCache(capacity=2)
    cache.put("a", 1, "A")
    cache.put("b", 1, "B")
    assert cache.get("a", 1) == "A"  # touch a -> b becomes LRU
    cache.put("c", 1, "C")
    assert cache.get("b", 1) is None
    assert cache.get("a", 1) == "A"
    assert cache.get("c", 1) == "C"
    assert cache.stats()["evictions"] == 1


def test_capacity_zero_disables():
    cache = QueryResultCache(capacity=0)
    cache.put("k", 1, "v")
    assert cache.get("k", 1) is None
    assert len(cache) == 0


def test_negative_capacity_rejected():
    with pytest.raises(ValueError):
        QueryResultCache(capacity=-1)


def test_clear_and_hit_rate():
    cache = QueryResultCache(capacity=4)
    cache.put("k", 1, "v")
    cache.get("k", 1)
    cache.get("other", 1)
    stats = cache.stats()
    assert stats["entries"] == 1
    assert stats["hit_rate"] == pytest.approx(0.5)


# -- result keys: the caller's text, or ("query", describe()) for a Query ------


def _keyed_service() -> GraphittiService:
    manager = Graphitti("cache-keys")
    manager.register(DnaSequence("seqk", "ACGT" * 100, domain="k:chr1"))
    for annotation_id, keywords in (("both", ["alpha", "beta"]), ("only", ["alpha"])):
        manager.new_annotation(annotation_id, keywords=keywords).mark_sequence(
            "seqk", 10, 20
        ).commit()
    return GraphittiService(manager=manager)


@pytest.fixture
def keyed():
    service = _keyed_service()
    yield service
    service.close()


def _labels(result) -> list[str]:
    return [detail["label"] for detail in result.step_details]


def test_spellings_of_one_query_share_a_cached_result(keyed):
    """Each spelling, and an equal Query, is its own entry with equal rows."""
    text = 'SELECT contents WHERE { CONTENT CONTAINS "alpha" }'
    first = keyed.query(text)
    respelled = keyed.query("select CONTENTS where {\n  content contains 'alpha' # note\n}")
    built = keyed.query(parse_query(text))
    assert first.to_dict() == respelled.to_dict() == built.to_dict()
    assert first.annotation_ids == ["both", "only"]
    cache = keyed.statistics()["service"]["query_cache"]
    assert (cache["hits"], cache["entries"]) == (0, 3)
    assert keyed.query(text).to_dict() == first.to_dict()
    assert keyed.statistics()["service"]["query_cache"]["hits"] == 1
    beta = keyed.query('SELECT contents WHERE { CONTENT CONTAINS "beta" }')
    assert beta.annotation_ids == ["both"]


def _counting(monkeypatch) -> dict[str, int]:
    """Count the service's parses and plans from here on."""
    from repro.query.planner import QueryPlanner
    from repro.service import service as service_module

    calls = {"parse": 0, "plan": 0}
    parse, plan = service_module.parse_query, QueryPlanner.plan

    def counted_parse(text):
        calls["parse"] += 1
        return parse(text)

    def counted_plan(planner, query):
        calls["plan"] += 1
        return plan(planner, query)

    monkeypatch.setattr(service_module, "parse_query", counted_parse)
    monkeypatch.setattr(QueryPlanner, "plan", counted_plan)
    return calls


def test_one_key_parses_and_plans_once_per_epoch(keyed, monkeypatch):
    """A hit parses and plans nothing; a write empties the cache."""
    calls = _counting(monkeypatch)
    text = 'SELECT contents WHERE { CONTENT CONTAINS "alpha" }'
    built = QueryBuilder().contains("beta").build()
    for _ in range(4):
        assert keyed.query(text).annotation_ids == ["both", "only"]
        assert keyed.query(built).annotation_ids == ["both"]
    assert calls == {"parse": 1, "plan": 2}
    keyed.commit(keyed.new_annotation("late", keywords=["alpha"]).mark_sequence("seqk", 30, 40))
    for _ in range(3):
        assert keyed.query(text).annotation_ids == ["both", "late", "only"]
        assert keyed.query(built).annotation_ids == ["both"]
    assert calls == {"parse": 2, "plan": 4}


def test_text_equal_to_a_cached_querys_describe_is_not_served_its_rows(keyed):
    # An OR-mode keyword has no GQL spelling: its describe() does not parse.
    either = QueryBuilder().contains("alpha beta", mode="or").build()
    assert keyed.query(either).annotation_ids == ["both", "only"]
    with pytest.raises(QuerySyntaxError):
        keyed.query(either.describe())
    assert keyed.statistics()["service"]["query_cache"]["entries"] == 1
    # A describe() that does parse is its own entry, with its own rows.
    every = QueryBuilder().contains("alpha beta").build()
    assert keyed.query(every).annotation_ids == ["both"]
    assert keyed.query(every.describe()).annotation_ids == ["both"]
    assert keyed.statistics()["service"]["query_cache"]["entries"] == 3


def test_a_hit_returns_an_independent_copy(keyed):
    text = 'SELECT contents WHERE { CONTENT CONTAINS "alpha" }'
    first = keyed.query(text)
    hit = keyed.query(text)
    assert keyed.statistics()["service"]["query_cache"]["hits"] == 1
    assert hit is not first and hit.annotation_ids is not first.annotation_ids
    hit.annotation_ids.clear()
    hit.step_details.clear()
    again = keyed.query(text)
    assert again.to_dict() == first.to_dict()
    assert again.annotation_ids == ["both", "only"]


def test_and_and_or_keyword_queries_do_not_share_a_result(keyed):
    either = QueryBuilder().contains("alpha beta", mode="or").build()
    assert keyed.query(either).annotation_ids == ["both", "only"]
    every = QueryBuilder().contains("alpha beta").build()
    assert keyed.manager.query(every).annotation_ids == ["both"]
    assert keyed.query(every).annotation_ids == ["both"]


def _served_as_itself(service, first: str, second: str) -> None:
    """Query *first*, then *second*: *second* must run its own plan."""
    template = "SELECT contents WHERE {{ CONTENT CONTAINS {} }}"
    service.query(template.format(first))
    text = template.format(second)
    served, fresh = service.query(text), service.manager.query(text)
    keyword = parse_query(text).constraints[0].keyword
    assert _labels(served) == _labels(fresh) == [f"content CONTAINS {keyword!r}"]
    assert served.plan_fingerprint == fresh.plan_fingerprint


def test_whitespace_inside_single_quotes_is_part_of_the_key(keyed):
    _served_as_itself(keyed, "'foo bar'", "'foo  bar'")


def test_whitespace_after_an_escaped_quote_is_part_of_the_key(keyed):
    _served_as_itself(keyed, '"foo\\" bar"', '"foo\\"  bar"')


def test_a_comment_that_swallows_the_query_is_not_served_rows(keyed):
    rows = keyed.query('SELECT contents WHERE { # note\n CONTENT CONTAINS "alpha" }')
    assert rows.annotation_ids == ["both", "only"]
    with pytest.raises(QuerySyntaxError, match="unterminated WHERE block"):
        keyed.query('SELECT contents WHERE { # note CONTENT CONTAINS "alpha" }')


# -- describe() is the key: equal exactly for equal queries ---------------------

_WORDS = st.sampled_from(["x", "x y", "x  y", "it's", 'a"b', "back\\slash"])
_IDENTS = st.sampled_from(["d", "genome:chrX", "mouse-atlas:25um"])
_NUMBERS = st.sampled_from([0.0, 1.0, 1.5, -2.0])
_COUNTS = st.integers(min_value=0, max_value=2)
_CORNERS = st.lists(_NUMBERS, min_size=1, max_size=2).map(tuple)
# A constraint refuses a malformed extent, so only (lo <= hi) spans are built.
_SPANS = st.tuples(_NUMBERS, _NUMBERS).map(sorted)
_BOXES = st.lists(_SPANS, min_size=1, max_size=2).map(lambda spans: tuple(zip(*spans)))

_LEAVES = st.one_of(
    st.builds(KeywordConstraint, _WORDS, st.sampled_from(["and", "or"])),
    st.builds(OntologyConstraint, _WORDS, st.none() | _IDENTS, st.booleans()),
    st.builds(lambda domain, span, count: OverlapConstraint(domain, *span, count), _IDENTS, _SPANS, _COUNTS),
    st.builds(lambda space, box, count: RegionConstraint(space, *box, count), _IDENTS, _BOXES, _COUNTS),
    st.builds(TypeConstraint, _IDENTS),
    st.builds(PathConstraint, _WORDS, _WORDS, _COUNTS),
)
_CONSTRAINTS = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.builds(NotConstraint, inner),
        st.lists(inner, min_size=2, max_size=3).map(lambda parts: OrConstraint(tuple(parts))),
    ),
    max_leaves=4,
)
_BUILT = st.builds(
    Query, st.sampled_from(ReturnKind), st.lists(_CONSTRAINTS, max_size=2), st.none() | _COUNTS
)


def _expressible(query: Query) -> bool:
    """Whether GQL text can spell *query* (it has no OR-mode keyword)."""

    def fits(constraint) -> bool:
        if isinstance(constraint, KeywordConstraint):
            return constraint.mode == "and"
        if isinstance(constraint, NotConstraint):
            return fits(constraint.inner)
        if isinstance(constraint, OrConstraint):
            return all(map(fits, constraint.parts))
        return True

    return all(map(fits, query.constraints))


@st.composite
def _spelled(draw, query: Query) -> str:
    """GQL text for *query*, in random case, quotes, blanks and comments."""

    def word(keyword: str) -> str:
        return draw(st.sampled_from([keyword, keyword.lower(), keyword.title()]))

    def string(value: str) -> str:
        quote = draw(st.sampled_from(['"', "'"]))
        return quote + value.replace("\\", "\\\\").replace(quote, "\\" + quote) + quote

    def corner(values) -> list[str]:
        return ["[", ", ".join(map(repr, values)), "]"]

    def spell(constraint) -> list[str]:
        if isinstance(constraint, KeywordConstraint):
            return [word("CONTENT"), word("CONTAINS"), string(constraint.keyword)]
        if isinstance(constraint, OntologyConstraint):
            parts = [word("REFERENT"), word("REFERS"), string(constraint.term)]
            if constraint.ontology is not None:
                parts += [word("IN"), constraint.ontology]
            if not constraint.include_descendants:
                return parts + [word("NODESC")]
            return parts + draw(st.sampled_from([[], [word("WITH"), word("DESCENDANTS")]]))
        if isinstance(constraint, OverlapConstraint):
            parts = [word("INTERVAL"), word("OVERLAPS"), constraint.domain]
            parts += corner((constraint.start, constraint.end))
            return parts + [word("MINCOUNT"), str(constraint.min_count)]
        if isinstance(constraint, RegionConstraint):
            parts = [word("REGION"), word("OVERLAPS"), constraint.space]
            parts += corner(constraint.lo) + [".."] + corner(constraint.hi)
            return parts + [word("MINCOUNT"), str(constraint.min_count)]
        if isinstance(constraint, TypeConstraint):
            return [word("TYPE"), constraint.data_type]
        if isinstance(constraint, PathConstraint):
            parts = [word("PATH"), string(constraint.from_keyword), word("TO")]
            return parts + [string(constraint.to_keyword), word("MAXLEN"), str(constraint.max_length)]
        if isinstance(constraint, NotConstraint):
            return [word("NOT"), "{"] + spell(constraint.inner) + ["}"]
        return [word("ANY"), "{"] + [part for inner in constraint.parts for part in spell(inner)] + ["}"]

    parts = [word("SELECT"), word(query.return_kind.value.upper()), word("WHERE"), "{"]
    parts += [part for constraint in query.constraints for part in spell(constraint)] + ["}"]
    if query.limit is not None:
        parts += [word("LIMIT"), str(query.limit)]
    blanks = st.sampled_from([" ", "\n", "\t ", " # note\n"])
    return "".join(part + draw(blanks) for part in parts)


_FIELDS = {
    "keyword": _WORDS,
    "mode": st.sampled_from(["and", "or"]),
    "term": _WORDS,
    "ontology": st.none() | _IDENTS,
    "include_descendants": st.booleans(),
    "domain": _IDENTS,
    "start": _NUMBERS,
    "end": _NUMBERS,
    "min_count": _COUNTS,
    "space": _IDENTS,
    "lo": _CORNERS,
    "hi": _CORNERS,
    "data_type": _IDENTS,
    "from_keyword": _WORDS,
    "to_keyword": _WORDS,
    "max_length": _COUNTS,
}


@st.composite
def _tweaked(draw, query: Query) -> Query:
    """*query* with one field of each leaf redrawn from its small pool: now
    equal to *query*, now one field off."""

    def tweak(constraint):
        if isinstance(constraint, NotConstraint):
            return NotConstraint(tweak(constraint.inner))
        if isinstance(constraint, OrConstraint):
            return OrConstraint(tuple(map(tweak, constraint.parts)))
        names = [field.name for field in dataclasses.fields(constraint) if field.init]
        name = draw(st.sampled_from(names))
        try:
            return dataclasses.replace(constraint, **{name: draw(_FIELDS[name])})
        except SpatialError:  # the redrawn field made a malformed extent
            return constraint

    return Query(query.return_kind, [tweak(c) for c in query.constraints], query.limit)


_PARSED = _BUILT.filter(_expressible).flatmap(_spelled).map(parse_query)
_QUERIES = _BUILT | _PARSED
_PAIRS = st.tuples(_QUERIES, _QUERIES) | _BUILT.flatmap(
    lambda query: st.tuples(st.just(query), _tweaked(query))
)


@settings(max_examples=600, deadline=None)
@given(_PAIRS)
def test_describe_equal_iff_queries_equal(pair):
    """Property: two queries share a result key exactly when they are equal,
    whether built in code or parsed from any spelling of their text."""
    left, right = pair
    assert (left.describe() == right.describe()) == (left == right)


@settings(max_examples=100, deadline=None)
@given(_BUILT.filter(_expressible).flatmap(lambda query: st.tuples(st.just(query), _spelled(query))))
def test_spelled_text_parses_back_to_its_query(case):
    query, text = case
    assert parse_query(text) == query


@settings(max_examples=150, deadline=None)
@given(
    _BUILT.filter(_expressible).flatmap(_spelled),
    st.integers(min_value=0),
    st.sampled_from(["", "{", "}", '"', "'", "#", "\n", "$", "-", ".", "x"]),
)
def test_text_that_fails_to_parse_never_enters_the_memo(text, at, insert):
    """A text reaches the result cache only through a successful parse: a
    malformed one never adds an entry and fails again when repeated."""
    at %= len(text)
    mangled = text[:at] + insert + text[at + 1 :]
    service = _keyed_service()
    try:
        for query in (text, mangled):
            before = service.statistics()["service"]["query_cache"]["entries"]
            try:
                service.query(query)
            except QuerySyntaxError:
                assert service.statistics()["service"]["query_cache"]["entries"] == before
                with pytest.raises(QuerySyntaxError):
                    service.query(query)
            except GraphittiError:
                pass  # parsed, then refused (say, a mangled extent with start > end)
    finally:
        service.close()


# -- concurrent readers sharing a hot entry ------------------------------------


def test_concurrent_readers_cannot_corrupt_hot_entry():
    """Regression: two threads hammering the same hot cache entry, one of
    them consuming its result destructively, must never corrupt what the
    other (or any later reader) receives."""
    from repro.core.manager import Graphitti
    from repro.datatypes.sequence import DnaSequence
    from repro.service import GraphittiService

    manager = Graphitti("cache-corruption-test")
    manager.register(DnaSequence("seqc", "ACGT" * 200, domain="cc:chr1"))
    for index in range(8):
        (
            manager.new_annotation(f"cc-{index}", keywords=["hot"], body=f"entry {index}")
            .mark_sequence("seqc", index * 10, index * 10 + 5)
            .commit()
        )
    service = GraphittiService(manager=manager)
    probe = 'SELECT contents WHERE { CONTENT CONTAINS "hot" }'
    expected = sorted(f"cc-{index}" for index in range(8))
    assert service.query(probe).annotation_ids == expected  # warm the entry

    errors: list[str] = []
    barrier = threading.Barrier(2)

    def consumer() -> None:
        barrier.wait()
        for _ in range(200):
            result = service.query(probe)
            # destructive consumption: drain the page in place
            while result.annotation_ids:
                result.annotation_ids.pop()
            result.step_details.clear()

    def reader() -> None:
        barrier.wait()
        for _ in range(200):
            result = service.query(probe)
            if result.annotation_ids != expected:
                errors.append(f"saw corrupted page {result.annotation_ids!r}")
                return

    threads = [threading.Thread(target=consumer), threading.Thread(target=reader)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors, errors[0]
    # the cached entry itself survived every destructive consumer
    assert service.query(probe).annotation_ids == expected

"""The GQL parser against ``fixtures/gql_golden.jsonl``.

The fixture holds ~500 texts and what the parser made of each at a4337d2:
the query's ``describe()``, or the error's class and message (offsets
included).  ``fixtures/make_gql_golden.py`` wrote it and says which texts.
Every row must come out the same, except the rows below, which changed on
purpose: a count (``LIMIT``, ``MINCOUNT``, ``MAXLEN``) must be a
non-negative integer literal, and number literals are ASCII only.
"""

import json
from pathlib import Path

from repro.errors import QuerySyntaxError
from repro.query.parser import parse_query

GOLDEN = Path(__file__).parent / "fixtures" / "gql_golden.jsonl"

#: text -> the QuerySyntaxError message it raises now.
CHANGED = {
    'SELECT contents WHERE { CONTENT CONTAINS "x" } LIMIT -1':
        "expected a non-negative integer at offset 53, got '-1'",
    'SELECT contents WHERE { CONTENT CONTAINS "x" } LIMIT 2.9':
        "expected a non-negative integer at offset 53, got '2.9'",
    "SELECT contents WHERE { INTERVAL OVERLAPS d [1, 2] MINCOUNT 1.5 }":
        "expected a non-negative integer at offset 60, got '1.5'",
    "SELECT contents WHERE { INTERVAL OVERLAPS d [1, 2] MINCOUNT -2 }":
        "expected a non-negative integer at offset 60, got '-2'",
    "SELECT graph WHERE { REGION OVERLAPS v [0] .. [1] MINCOUNT 2.0 }":
        "expected a non-negative integer at offset 59, got '2.0'",
    "SELECT graph WHERE { PATH 'a' TO 'b' MAXLEN 0.5 }":
        "expected a non-negative integer at offset 44, got '0.5'",
    "SELECT graph WHERE { PATH 'a' TO 'b' MAXLEN -3 }":
        "expected a non-negative integer at offset 44, got '-3'",
    # previously a bare ValueError from float()
    'SELECT contents WHERE { CONTENT CONTAINS "x" } LIMIT ²':
        "unexpected character '²' at offset 53",
    "SELECT contents WHERE { INTERVAL OVERLAPS d [1², 5] }":
        "unexpected character '²' at offset 46",
    # previously read as the numbers 3 and 1
    'SELECT contents WHERE { CONTENT CONTAINS "x" } LIMIT ٣':
        "unexpected character '٣' at offset 53",
    "SELECT contents WHERE { INTERVAL OVERLAPS d [١, 5] }":
        "unexpected character '١' at offset 45",
}


def _outcome(text: str) -> dict:
    try:
        return {"describe": parse_query(text).describe()}
    except QuerySyntaxError as exc:
        return {"error": type(exc).__name__, "message": str(exc)}


def _rows() -> list[dict]:
    with GOLDEN.open(encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


def test_fixture_covers_every_kind_of_text():
    kinds = {}
    for row in _rows():
        kinds[row["kind"]] = kinds.get(row["kind"], 0) + 1
    assert kinds == {"adhoc": 150, "browse": 64, "hand": 101, "grammar": 50, "tokens": 70, "chars": 60}
    assert set(CHANGED) <= {row["text"] for row in _rows()}


def test_parser_reproduces_every_unchanged_row():
    mismatches = []
    for row in _rows():
        if row["text"] in CHANGED:
            continue
        expected = {key: row[key] for key in ("describe", "error", "message") if key in row}
        got = _outcome(row["text"])
        if got != expected:
            mismatches.append((row["text"], expected, got))
    assert not mismatches, mismatches[:5]


def test_changed_rows_raise_query_syntax_errors():
    for text, message in CHANGED.items():
        assert _outcome(text) == {"error": "QuerySyntaxError", "message": message}, text

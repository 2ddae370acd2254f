"""The GQL parser against ``fixtures/gql_golden.jsonl``.

The fixture holds ~500 texts and what the parser made of each at a4337d2:
the query's ``describe()``, or the error's class and message (offsets
included).  ``fixtures/make_gql_golden.py`` wrote it and says which texts.
Every row must come out the same, except the rows below, which changed on
purpose: a count (``LIMIT``, ``MINCOUNT``, ``MAXLEN``) must be a
non-negative integer literal, number literals are ASCII only, and an
interval or box whose upper end lies below its lower one is refused.
"""

import json
from pathlib import Path

from repro.errors import QuerySyntaxError, SpatialError
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

#: text -> the SpatialError message it raises now.  The first five parsed,
#: and their malformed extent was refused only if execution reached it; the
#: last three hold a syntax error after the malformed extent, and the
#: descent now stops at the extent.
REFUSED = {
    "SELECT # c\nGRAPH where{path \"x\"  TO # c\n'it\\'s' Maxlen\n2any { referent refers \"\"\tNODESC "
    "type _x\nREGION\nOverlaps\tbo [ 12 # c\n]\t..[ 4.5\t] }} ":
        "upper bound 4.5 precedes lower bound 12.0",
    " select referents # c\nwhere # c\n{path  'it\\'s'\tTO\n\"a\\\"b\" Interval  OVERLAPS atlas:25um "
    "[  4.5 , -0.25 ]\tContent\tContains 'y z'\n}  ":
        "interval end -0.25 precedes start 4.5",
    "\nselect Referents\nWHERE { CONTENT contains \"kw012\"Region  overlaps\tdna_sequence [ 0 ,  -0.25,\n"
    "0 # c\n]  .. [ -0.25\n, -0.25 , 0 # c\n] # c\n}\tLIMIT 41\n":
        "upper bound -0.25 precedes lower bound 0.0",
    " Select contents Where\t{ NOT  {Any { region  OVERLAPS  dna_sequence[4.5 # c\n,\n0 , # c\n-0.25 # c\n] "
    ".. # c\n[\n-0.25 ,  12\t,12] TYPE atlas:25um } } # c\n}\tlimit  64 ":
        "upper bound -0.25 precedes lower bound 4.5",
    "Select\tReferents  WHERE { not  { ANY  { # c\nContent  CONTAINS # c\n\"#no comment\"region\toverlaps\t"
    "mouse-atlas:25um [  0\n]\n.. [-3 ] } # c\n}}\t":
        "upper bound -3.0 precedes lower bound 0.0",
    # previously "unexpected token 'TYPEbo' at offset 93 in WHERE block"
    "select Referents where { ANY # c\n{Any # c\n{ # c\nINTERVAL OVERLAPS\n_x[  -0.25  , # c\n-3 "
    "# c\n] TYPEbo PATH\"kw012\"\tTO \"a\\\"b\" } any  {path 'it\\'s'to  \"kw012\" # c\n"
    "region OVERLAPSatlas:25um # c\n[ 0\t,  0\t, -3  ]..\n[ 12\n, 0 # c\n, 4.5\t] mincount 0\nTYPE _x }"
    "Referent REFERS\t'it\\'s' # c\nIn\nchr1}  Not\n{ referent\nRefers 'it\\'s' IN mouse-atlas:25um"
    "\nnodesc } content\tCONTAINS \"\"} ":
        "interval end -3.0 precedes start -0.25",
    # previously "trailing tokens after query at offset 144"
    "\nselect\ngraph # c\nWHERE # c\n{  region\tOVERLAPS\tmouse-atlas:25um [\n0  , -3]\t..\t[\t"
    "-0.25 # c\n, # c\n4.5 ] Mincount 2 # c\ncontent # c\nContains\t\"x\" } Limit79\n":
        "upper bound -0.25 precedes lower bound 0.0",
    # previously "unexpected token 'MINCOUN' at offset 119 in WHERE block"
    "SELECT graph WHERE { CONTENT CONTAINS \"kw049\" REFERENT REFERS \"bo:11\" REGION OVERLAPS "
    "atlas:25um [11, 81] .. [714, 68] MINCOUN T2 }":
        "upper bound 68.0 precedes lower bound 81.0",
}


def _outcome(text: str) -> dict:
    try:
        return {"describe": parse_query(text).describe()}
    except (QuerySyntaxError, SpatialError) as exc:
        return {"error": type(exc).__name__, "message": str(exc)}


def _rows() -> list[dict]:
    with GOLDEN.open(encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


def test_fixture_covers_every_kind_of_text():
    kinds = {}
    for row in _rows():
        kinds[row["kind"]] = kinds.get(row["kind"], 0) + 1
    assert kinds == {"adhoc": 150, "browse": 64, "hand": 101, "grammar": 50, "tokens": 70, "chars": 60}
    assert set(CHANGED) | set(REFUSED) <= {row["text"] for row in _rows()}


def test_parser_reproduces_every_unchanged_row():
    mismatches = []
    for row in _rows():
        if row["text"] in CHANGED or row["text"] in REFUSED:
            continue
        expected = {key: row[key] for key in ("describe", "error", "message") if key in row}
        got = _outcome(row["text"])
        if got != expected:
            mismatches.append((row["text"], expected, got))
    assert not mismatches, mismatches[:5]


def test_changed_rows_raise_query_syntax_errors():
    for text, message in CHANGED.items():
        assert _outcome(text) == {"error": "QuerySyntaxError", "message": message}, text


def test_rows_with_a_malformed_extent_raise_spatial_errors():
    for text, message in REFUSED.items():
        assert _outcome(text) == {"error": "SpatialError", "message": message}, text

"""Lexical rules of GQL, checked through :func:`parse_query`.

Keywords are case-insensitive; strings take ``"`` or ``'`` with ``\\``
escapes; identifiers may carry ``:`` and ``-``; numbers are ASCII; ``#``
comments run to the end of the line.
"""

import pytest

from repro.errors import QuerySyntaxError
from repro.query.ast import ReturnKind
from repro.query.parser import parse_query


def _keyword(text: str) -> str:
    return parse_query(f"SELECT contents WHERE {{ CONTENT CONTAINS {text} }}").constraints[0].keyword


def test_keywords_uppercased():
    query = parse_query("select contents where { type dna } limit 3")
    assert query.return_kind is ReturnKind.CONTENTS
    assert query.constraints[0].data_type == "dna"
    assert query.limit == 3
    # an error shows a keyword upper-cased, whatever its spelling
    with pytest.raises(QuerySyntaxError, match=r"expected ident at offset 29, got 'CONTENTS'"):
        parse_query("select contents where { type contents }")


def test_string_tokens():
    assert _keyword("'protease'") == "protease"


def test_double_quoted_string():
    assert _keyword('"deep nuclei"') == "deep nuclei"
    assert _keyword('"a # b"') == "a # b"  # no comment inside a string
    assert _keyword('""') == ""


def test_numbers():
    query = parse_query("SELECT contents WHERE { REGION OVERLAPS v [10, -5, 3.14] .. [11, 2, 3.5] }")
    assert query.constraints[0].lo == (10.0, -5.0, 3.14)
    with pytest.raises(QuerySyntaxError, match=r"expected number at offset 45, got '\.'"):
        parse_query("SELECT contents WHERE { INTERVAL OVERLAPS d [.5, 4] }")


def test_punctuation():
    query = parse_query("SELECT graph WHERE{REGION OVERLAPS v[1,2]..[3,4]}")
    assert query.constraints[0].hi == (3.0, 4.0)
    # "1..5" is a number, "..", a number: never "1." and ".5"
    with pytest.raises(QuerySyntaxError, match=r"expected ',' at offset 46, got '\.\.'"):
        parse_query("SELECT contents WHERE { INTERVAL OVERLAPS d [1..5] }")


def test_identifiers_with_colon_and_dash():
    query = parse_query("SELECT contents WHERE { REGION OVERLAPS mouse-atlas:25um [0,0]..[1,1] }")
    assert query.constraints[0].space == "mouse-atlas:25um"


def test_comments_skipped():
    query = parse_query("SELECT # comment\n CONTENTS WHERE { } # trailing comment")
    assert query.return_kind is ReturnKind.CONTENTS
    assert query.constraints == []


def test_eof_token():
    # the end of the text is a lexeme of its own, at the text's length
    with pytest.raises(QuerySyntaxError, match=r"at offset 8, got ''$"):
        parse_query("SELECT  ")


def test_unterminated_string():
    with pytest.raises(QuerySyntaxError, match="unterminated string starting at offset 41"):
        parse_query("SELECT contents WHERE { CONTENT CONTAINS 'unterminated }")


def test_unexpected_character():
    with pytest.raises(QuerySyntaxError, match=r"unexpected character '\$' at offset 7"):
        parse_query("SELECT $")
    # a text is lexed whole before it is parsed: the lexical error wins
    with pytest.raises(QuerySyntaxError, match=r"unexpected character '!' at offset 13"):
        parse_query("SELECT bogus !")


def test_escaped_quote_in_string():
    assert _keyword(r"'it\'s'") == "it's"
    assert _keyword(r'"foo\"  bar"') == 'foo"  bar'
    assert _keyword(r'"back\\slash"') == "back\\slash"

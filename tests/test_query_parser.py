"""Tests for the GQL parser."""

import pytest

from repro.errors import QuerySyntaxError
from repro.query.ast import (
    KeywordConstraint,
    OntologyConstraint,
    OverlapConstraint,
    PathConstraint,
    RegionConstraint,
    ReturnKind,
    TypeConstraint,
)
from repro.query.parser import parse_query


def test_parse_keyword_query():
    q = parse_query('SELECT contents WHERE { CONTENT CONTAINS "protease" }')
    assert q.return_kind is ReturnKind.CONTENTS
    assert len(q.constraints) == 1
    assert isinstance(q.constraints[0], KeywordConstraint)
    assert q.constraints[0].keyword == "protease"


def test_parse_ontology_query():
    q = parse_query('SELECT referents WHERE { REFERENT REFERS "protein:protease" IN proteins }')
    constraint = q.constraints[0]
    assert isinstance(constraint, OntologyConstraint)
    assert constraint.term == "protein:protease"
    assert constraint.ontology == "proteins"
    assert constraint.include_descendants is True


def test_parse_ontology_nodesc():
    q = parse_query('SELECT contents WHERE { REFERENT REFERS "x" NODESC }')
    assert q.constraints[0].include_descendants is False


def test_parse_interval_query():
    q = parse_query("SELECT contents WHERE { INTERVAL OVERLAPS chr1 [10, 40] MINCOUNT 2 }")
    constraint = q.constraints[0]
    assert isinstance(constraint, OverlapConstraint)
    assert constraint.domain == "chr1"
    assert constraint.start == 10 and constraint.end == 40
    assert constraint.min_count == 2


def test_parse_region_query():
    q = parse_query("SELECT graph WHERE { REGION OVERLAPS atlas [0,0] .. [100,100] }")
    constraint = q.constraints[0]
    assert isinstance(constraint, RegionConstraint)
    assert constraint.lo == (0, 0)
    assert constraint.hi == (100, 100)


def test_parse_region_3d():
    q = parse_query("SELECT graph WHERE { REGION OVERLAPS vol [0,0,0] .. [1,1,1] }")
    assert q.constraints[0].lo == (0, 0, 0)


def test_parse_region_dimension_mismatch():
    with pytest.raises(QuerySyntaxError):
        parse_query("SELECT graph WHERE { REGION OVERLAPS v [0,0] .. [1,1,1] }")


def test_parse_type_query():
    q = parse_query("SELECT contents WHERE { TYPE dna_sequence }")
    assert isinstance(q.constraints[0], TypeConstraint)
    assert q.constraints[0].data_type == "dna_sequence"


def test_parse_path_query():
    q = parse_query('SELECT graph WHERE { PATH "a" TO "b" MAXLEN 4 }')
    constraint = q.constraints[0]
    assert isinstance(constraint, PathConstraint)
    assert constraint.from_keyword == "a" and constraint.to_keyword == "b"
    assert constraint.max_length == 4


def test_parse_multiple_constraints():
    q = parse_query(
        'SELECT contents WHERE { CONTENT CONTAINS "x" TYPE dna INTERVAL OVERLAPS c [1,2] }'
    )
    assert len(q.constraints) == 3


def test_parse_limit():
    q = parse_query('SELECT contents WHERE { CONTENT CONTAINS "x" } LIMIT 5')
    assert q.limit == 5


def test_parse_missing_select():
    with pytest.raises(QuerySyntaxError):
        parse_query('WHERE { CONTENT CONTAINS "x" }')


def test_parse_unterminated_where():
    with pytest.raises(QuerySyntaxError):
        parse_query('SELECT contents WHERE { CONTENT CONTAINS "x"')


def test_parse_trailing_tokens():
    with pytest.raises(QuerySyntaxError):
        parse_query('SELECT contents WHERE { } garbage')


def test_parse_unknown_constraint():
    with pytest.raises(QuerySyntaxError):
        parse_query("SELECT contents WHERE { BOGUS thing }")


def test_parse_negative_limit_rejected():
    # it used to become surviving[:-1], silently dropping the last row
    with pytest.raises(QuerySyntaxError, match="non-negative integer at offset 53, got '-1'"):
        parse_query('SELECT contents WHERE { CONTENT CONTAINS "x" } LIMIT -1')


def test_parse_fractional_limit_rejected():
    with pytest.raises(QuerySyntaxError, match=r"non-negative integer at offset 53, got '2\.9'"):
        parse_query('SELECT contents WHERE { CONTENT CONTAINS "x" } LIMIT 2.9')


def test_parse_fractional_maxlen_rejected():
    with pytest.raises(QuerySyntaxError, match=r"non-negative integer at offset 44, got '0\.5'"):
        parse_query("SELECT graph WHERE { PATH 'a' TO 'b' MAXLEN 0.5 }")


def test_parse_negative_mincount_rejected():
    with pytest.raises(QuerySyntaxError, match="non-negative integer at offset 60, got '-2'"):
        parse_query("SELECT contents WHERE { INTERVAL OVERLAPS d [1, 2] MINCOUNT -2 }")


def test_parse_non_ascii_digit_count_rejected():
    # "²" used to escape parse_query as a bare ValueError from float()
    with pytest.raises(QuerySyntaxError, match="unexpected character '²' at offset 53"):
        parse_query('SELECT contents WHERE { CONTENT CONTAINS "x" } LIMIT ²')
    # "٣" used to be read as 3: numbers are ASCII only
    with pytest.raises(QuerySyntaxError, match="unexpected character '٣' at offset 53"):
        parse_query('SELECT contents WHERE { CONTENT CONTAINS "x" } LIMIT ٣')


def test_parse_count_too_long_for_int_rejected():
    with pytest.raises(QuerySyntaxError, match="expected a count with fewer digits at offset 32"):
        parse_query("SELECT contents WHERE { } LIMIT " + "9" * 5000)


def test_parse_zero_counts_accepted():
    q = parse_query("SELECT graph WHERE { PATH 'a' TO 'b' MAXLEN 0 } LIMIT 007")
    assert q.constraints[0].max_length == 0
    assert q.limit == 7


def test_query_describe_roundtrips_structure():
    q = parse_query('SELECT contents WHERE { CONTENT CONTAINS "protease" }')
    description = q.describe()
    assert "SELECT contents" in description
    assert "protease" in description

"""Scanner and recursive-descent parser for the Graphitti query language.

Grammar (EBNF-ish)::

    query       = "SELECT" return_kind "WHERE" "{" constraint* "}" [ "LIMIT" COUNT ]
    return_kind = "CONTENTS" | "REFERENTS" | "GRAPH"
    constraint  = keyword | ontology | interval | region | type | path
                | "NOT" "{" constraint "}" | "ANY" "{" constraint constraint+ "}"
    keyword     = "CONTENT" "CONTAINS" STRING
    ontology    = "REFERENT" "REFERS" STRING [ "IN" IDENT ]
                  [ "WITH" "DESCENDANTS" | "NODESC" ]
    interval    = "INTERVAL" "OVERLAPS" IDENT "[" NUMBER "," NUMBER "]"
                  [ "MINCOUNT" COUNT ]
    region      = "REGION" "OVERLAPS" IDENT "[" coords "]" ".." "[" coords "]"
                  [ "MINCOUNT" COUNT ]
    type        = "TYPE" IDENT
    path        = "PATH" STRING "TO" STRING [ "MAXLEN" COUNT ]
    coords      = NUMBER ("," NUMBER)*

Lexemes: keywords (case-insensitive), identifiers (a letter or ``_``, then
letters, digits, ``_``, ``:`` and ``-``), strings in ``"`` or ``'`` with
``\\`` escapes, ASCII numbers (``-?[0-9]+(.[0-9]+)?``; a COUNT is a
non-negative integer) and the punctuation ``{ } ( ) [ ] , . @ ..``; blanks
and ``#`` comments to the end of the line separate them.

:func:`parse_query` runs one compiled pattern over the text, which returns
the lexemes as a list of strings in a single call, and the descent reads
those strings directly.  Offsets are worked out only when raising: an error
reports the text's first lexical error if it has one (a text is lexed whole
before it is parsed), else the offset of the lexeme the descent stopped at.

The parser is intentionally forgiving about statement order inside the
``WHERE`` block; ordering is the planner's job, not the grammar's.
"""

from __future__ import annotations

import re
from typing import Callable, NoReturn

from repro.errors import QuerySyntaxError
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

#: Blanks and comments, then one lexeme: a word, punctuation, a string, a
#: number, a stray character (an unclosed quote among them) or the end.
_LEXEME = re.compile(
    r"""\s*(?:\#[^\n]*\s*)*
    (
        [^\W\d][\w:\-]*
      | \.\.|[{}()\[\],.@]
      | "[^"\\]*(?:\\.[^"\\]*)*"
      | '[^'\\]*(?:\\.[^'\\]*)*'
      | -?[0-9]+(?:\.[0-9]+)?
      | \S
      | \Z
    )""",
    re.VERBOSE | re.DOTALL,
)
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)

#: Reserved words: a word whose upper-cased form is one of these is a
#: keyword, never an identifier.
_KEYWORDS = frozenset(
    {
        "SELECT", "WHERE", "LIMIT",
        "CONTENTS", "REFERENTS", "GRAPH",
        "CONTENT", "REFERENT", "TYPE", "PATH",
        "CONTAINS", "REFERS", "OVERLAPS", "IN", "INTERVAL", "REGION",
        "WITH", "DESCENDANTS", "NODESC", "MINCOUNT", "MAXLEN", "TO", "AND", "OR",
        "NOT", "ANY",
    }
)
_PUNCT = frozenset({"{", "}", "(", ")", "[", "]", ",", ".", "@", ".."})
_QUOTES = frozenset({'"', "'"})
_NUMBER_HEADS = frozenset("-0123456789")

_RETURN_KINDS = {
    "CONTENTS": ReturnKind.CONTENTS,
    "REFERENTS": ReturnKind.REFERENTS,
    "GRAPH": ReturnKind.GRAPH,
}


def _unquote(lexeme: str) -> str:
    body = lexeme[1:-1]
    return _ESCAPE.sub(r"\1", body) if "\\" in body else body


def _is_number(lexeme: str) -> bool:
    return lexeme[:1] in _NUMBER_HEADS and lexeme != "-"


def _lexical_error(lexeme: str, offset: int) -> str | None:
    """What is wrong with *lexeme* on its own, or None for a valid one."""
    head = lexeme[:1]
    if head in _QUOTES:
        return None if len(lexeme) > 1 else f"unterminated string starting at offset {offset}"
    if not lexeme or lexeme in _PUNCT or _is_number(lexeme) or head.isalpha() or head == "_":
        return None
    return f"unexpected character {head!r} at offset {offset}"


def _shown(lexeme: str) -> str:
    """A lexeme as error messages show it: keywords upper-cased, strings unquoted."""
    if lexeme[:1] in _QUOTES:
        return _unquote(lexeme)
    upper = lexeme.upper()
    return upper if upper in _KEYWORDS else lexeme


class _Descent:
    """One parse: the text, its lexemes and the index of the next one."""

    __slots__ = ("text", "lexemes", "at")

    def __init__(self, text: str):
        lexemes = _LEXEME.findall(text)
        if len(lexemes) > 1 and not lexemes[-2]:
            lexemes.pop()  # after trailing blanks the end matches twice
        self.text = text
        self.lexemes = lexemes
        self.at = 0

    # -- errors ---------------------------------------------------------------

    def _fail(self, message: str | Callable[[int, str], str]) -> NoReturn:
        """Raise the text's first lexical error, else *message*; a callable
        renders it from the offset and shown value of the lexeme the descent
        stopped at."""
        matches = list(_LEXEME.finditer(self.text))
        for match in matches:
            lexical = _lexical_error(match[1], match.start(1))
            if lexical is not None:
                raise QuerySyntaxError(lexical)
        if callable(message):
            message = message(matches[self.at].start(1), _shown(self.lexemes[self.at]))
        raise QuerySyntaxError(message)

    def _expected(self, what: str) -> NoReturn:
        self._fail(lambda offset, got: f"expected {what} at offset {offset}, got {got!r}")

    # -- lexemes --------------------------------------------------------------

    def _keyword(self, *names: str) -> str:
        upper = self.lexemes[self.at].upper()
        if upper not in names:
            self._expected(f"one of {names}")
        self.at += 1
        return upper

    def _optional(self, name: str) -> bool:
        if self.lexemes[self.at].upper() == name:
            self.at += 1
            return True
        return False

    def _punct(self, value: str) -> None:
        if self.lexemes[self.at] != value:
            self._expected(repr(value))
        self.at += 1

    def _string(self) -> str:
        lexeme = self.lexemes[self.at]
        if lexeme[:1] not in _QUOTES or len(lexeme) < 2:
            self._expected("string")
        self.at += 1
        return _unquote(lexeme)

    def _ident(self) -> str:
        lexeme = self.lexemes[self.at]
        head = lexeme[:1]
        if not (head.isalpha() or head == "_") or lexeme.upper() in _KEYWORDS:
            self._expected("ident")
        self.at += 1
        return lexeme

    def _number(self) -> float:
        lexeme = self.lexemes[self.at]
        if not _is_number(lexeme):
            self._expected("number")
        self.at += 1
        return float(lexeme)

    def _count(self) -> int:
        lexeme = self.lexemes[self.at]
        if not (lexeme.isdigit() and lexeme.isascii()):
            self._expected("a non-negative integer" if _is_number(lexeme) else "number")
        try:
            count = int(lexeme)
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            self._expected("a count with fewer digits")
        self.at += 1
        return count

    # -- grammar --------------------------------------------------------------

    def query(self) -> Query:
        self._keyword("SELECT")
        return_kind = _RETURN_KINDS[self._keyword("CONTENTS", "REFERENTS", "GRAPH")]
        self._keyword("WHERE")
        query = Query(return_kind, self._block("WHERE"))
        if self._optional("LIMIT"):
            query.limit = self._count()
        if self.lexemes[self.at]:
            self._fail(lambda offset, got: f"trailing tokens after query at offset {offset}")
        return query

    def _block(self, name: str) -> list:
        """The constraints between braces, both consumed."""
        self._punct("{")
        constraints = []
        while self.lexemes[self.at] != "}":
            if not self.lexemes[self.at]:
                self._fail(f"unterminated {name} block")
            constraints.append(self._constraint())
        self.at += 1
        return constraints

    def _constraint(self):
        parse = _CONSTRAINTS.get(self.lexemes[self.at].upper())
        if parse is None:
            self._fail(
                lambda offset, got: f"unexpected token {got!r} at offset {offset} in WHERE block"
            )
        self.at += 1
        return parse(self)

    def _not(self) -> NotConstraint:
        self._punct("{")
        inner = self._constraint()
        self._punct("}")
        return NotConstraint(inner)

    def _any(self) -> OrConstraint:
        parts = self._block("ANY")
        if len(parts) < 2:
            self._fail("ANY block requires at least two constraints")
        return OrConstraint(tuple(parts))

    def _content(self) -> KeywordConstraint:
        self._keyword("CONTAINS")
        return KeywordConstraint(self._string())

    def _referent(self) -> OntologyConstraint:
        self._keyword("REFERS")
        term = self._string()
        ontology = self._ident() if self._optional("IN") else None
        include_descendants = True
        if self._optional("WITH"):
            self._keyword("DESCENDANTS")
        elif self._optional("NODESC"):
            include_descendants = False
        return OntologyConstraint(term, ontology, include_descendants)

    def _interval(self) -> OverlapConstraint:
        self._keyword("OVERLAPS")
        domain = self._ident()
        self._punct("[")
        start = self._number()
        self._punct(",")
        end = self._number()
        self._punct("]")
        min_count = self._count() if self._optional("MINCOUNT") else 1
        return OverlapConstraint(domain, start, end, min_count)

    def _region(self) -> RegionConstraint:
        self._keyword("OVERLAPS")
        space = self._ident()
        lo = self._coords()
        self._punct("..")
        hi = self._coords()
        if len(lo) != len(hi):
            self._fail("region corners must have equal dimensionality")
        min_count = self._count() if self._optional("MINCOUNT") else 1
        return RegionConstraint(space, lo, hi, min_count)

    def _coords(self) -> tuple[float, ...]:
        self._punct("[")
        coords = [self._number()]
        while self.lexemes[self.at] == ",":
            self.at += 1
            coords.append(self._number())
        self._punct("]")
        return tuple(coords)

    def _type(self) -> TypeConstraint:
        return TypeConstraint(self._ident())

    def _path(self) -> PathConstraint:
        source = self._string()
        self._keyword("TO")
        target = self._string()
        max_length = self._count() if self._optional("MAXLEN") else 6
        return PathConstraint(source, target, max_length)


#: Constraint parsers by upper-cased leading keyword (already consumed).
_CONSTRAINTS = {
    "CONTENT": _Descent._content,
    "REFERENT": _Descent._referent,
    "INTERVAL": _Descent._interval,
    "REGION": _Descent._region,
    "TYPE": _Descent._type,
    "PATH": _Descent._path,
    "NOT": _Descent._not,
    "ANY": _Descent._any,
}


def parse_query(text: str) -> Query:
    """Lex and parse GQL source text into a :class:`Query`."""
    return _Descent(text).query()

"""Writes ``gql_golden.jsonl``: what the GQL parser made of ~500 texts at a4337d2.

Each row is one text and either the ``describe()`` of the query it parsed to
or the class and message of the error it raised.  The rows pin the parser's
observable behaviour, offsets in error messages included::

    git archive a4337d2 | tar -x -C /tmp/gql && cd /tmp/gql
    PYTHONPATH=src python <this file> <repo>/tests/fixtures

Rows, by ``kind``:

* ``adhoc`` -- the first 150 texts of the e2e ``adhoc`` read stream at its
  default seed 20080407 (``benchmarks/e2e/run.py``);
* ``browse`` -- the e2e ``browse`` query pool (64 texts);
* ``hand`` -- hand-written texts: every grammar feature and every error;
* ``grammar`` -- valid queries drawn from the grammar, spelled with random
  case, blanks and comments;
* ``tokens`` -- token soup: random runs of GQL lexemes;
* ``chars`` -- character soup: random strings, and adhoc texts with a few
  characters deleted, inserted or swapped.
"""

from __future__ import annotations

import itertools
import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd()))

from benchmarks.e2e.corpus import CORPUS_SEED, FULL, Corpus  # noqa: E402
from repro.errors import QuerySyntaxError  # noqa: E402
from repro.query.parser import parse_query  # noqa: E402

ADHOC_SEED = 20080407
BROWSE_POOL = 64  # texts in the e2e browse workload's query pool

HAND = [
    # every construct, spelled in more than one way
    'SELECT contents WHERE { CONTENT CONTAINS "protease" }',
    "select CONTENTS where { content contains 'deep nuclei' }",
    'SELECT referents WHERE { REFERENT REFERS "protein:protease" IN proteins }',
    'SELECT contents WHERE { REFERENT REFERS "x" IN bo WITH DESCENDANTS }',
    'SELECT contents WHERE { REFERENT REFERS "x" NODESC }',
    "SELECT contents WHERE { INTERVAL OVERLAPS chr1 [10, 40] MINCOUNT 2 }",
    "SELECT contents WHERE { INTERVAL OVERLAPS genome:chrX [-5.5, 0.25] }",
    "SELECT graph WHERE { REGION OVERLAPS atlas [0,0] .. [100,100] }",
    "SELECT graph WHERE { REGION OVERLAPS mouse-atlas:25um [0,0,0]..[1,1,1] MINCOUNT 3 }",
    "SELECT contents WHERE { TYPE dna_sequence }",
    'SELECT graph WHERE { PATH "a" TO "b" MAXLEN 4 }',
    'SELECT graph WHERE { PATH "a" TO "b" }',
    'SELECT contents WHERE { NOT { CONTENT CONTAINS "x" } }',
    'SELECT contents WHERE { ANY { CONTENT CONTAINS "x" TYPE dna } }',
    'SELECT contents WHERE { ANY { NOT { TYPE a } ANY { TYPE b TYPE c } } }',
    'SELECT contents WHERE { CONTENT CONTAINS "x" TYPE dna INTERVAL OVERLAPS c [1,2] }',
    'SELECT contents WHERE { CONTENT CONTAINS "x" } LIMIT 5',
    'SELECT contents WHERE { CONTENT CONTAINS "x" } LIMIT 0',
    "SELECT contents WHERE { }",
    "SELECT contents WHERE {}",
    "SELECT contents WHERE { } LIMIT 007",
    'SELECT # a comment\n contents WHERE { CONTENT CONTAINS "x" } # trailing',
    'SELECT contents WHERE { # note\n CONTENT CONTAINS "foo" }',
    'SELECT contents WHERE { # note CONTENT CONTAINS "foo" }',
    "SELECT contents WHERE { CONTENT CONTAINS 'it\\'s' }",
    'SELECT contents WHERE { CONTENT CONTAINS "foo\\"  bar" }',
    'SELECT contents WHERE { CONTENT CONTAINS "foo\\\\" }',
    'SELECT contents WHERE { CONTENT CONTAINS "a # b" }',
    'SELECT contents WHERE { CONTENT CONTAINS "two\nlines" }',
    'SELECT contents WHERE { CONTENT CONTAINS "" }',
    "SELECT\tcontents\r\nWHERE\x0b{\x0cTYPE\xa0x\u2003}",
    "SELECT contents WHERE { TYPE _private }",
    "SELECT contents WHERE { TYPE naïve }",
    "ſELECT contents WHERE { TYPE x }",
    "SELECT contents WHERE { TYPE a½ }",
    "SELECT contents WHERE { INTERVAL OVERLAPS d [1..5] }",
    "SELECT contents WHERE { INTERVAL OVERLAPS d [1.5.3, 4] }",
    "SELECT contents WHERE { INTERVAL OVERLAPS d [1., 4] }",
    "SELECT contents WHERE { INTERVAL OVERLAPS d [.5, 4] }",
    "SELECT contents WHERE { INTERVAL OVERLAPS d [5abc, 4] }",
    # errors, one per message
    "",
    "   ",
    "# only a comment",
    'WHERE { CONTENT CONTAINS "x" }',
    "SELECT nothing WHERE { }",
    "SELECT contents { }",
    "SELECT contents WHERE CONTENT",
    'SELECT contents WHERE { CONTENT CONTAINS "x"',
    "SELECT contents WHERE { ",
    "SELECT contents WHERE { } garbage",
    "SELECT contents WHERE { } LIMIT",
    "SELECT contents WHERE { } LIMIT x",
    "SELECT contents WHERE { } LIMIT 5 6",
    "SELECT contents WHERE { BOGUS thing }",
    'SELECT contents WHERE { "stray" }',
    "SELECT contents WHERE { CONTENT CONTAINS x }",
    "SELECT contents WHERE { CONTENT HAS 'x' }",
    "SELECT contents WHERE { REFERENT REFERS 'x' IN 'bo' }",
    "SELECT contents WHERE { REFERENT REFERS 'x' IN contents }",
    "SELECT contents WHERE { REFERENT REFERS 'x' WITH KIDS }",
    "SELECT contents WHERE { INTERVAL OVERLAPS [1, 2] }",
    "SELECT contents WHERE { INTERVAL OVERLAPS d (1, 2) }",
    "SELECT contents WHERE { INTERVAL OVERLAPS d [1 2] }",
    "SELECT contents WHERE { INTERVAL OVERLAPS d [1, 2 }",
    "SELECT contents WHERE { INTERVAL OVERLAPS d [a, 2] }",
    "SELECT contents WHERE { INTERVAL OVERLAPS d [1, 2] MINCOUNT }",
    "SELECT graph WHERE { REGION OVERLAPS v [0,0] .. [1,1,1] }",
    "SELECT graph WHERE { REGION OVERLAPS v [0,0] . [1,1] }",
    "SELECT graph WHERE { REGION OVERLAPS v [] .. [1] }",
    "SELECT contents WHERE { TYPE }",
    "SELECT contents WHERE { TYPE 42 }",
    "SELECT contents WHERE { PATH 'a' 'b' }",
    "SELECT contents WHERE { PATH 'a' TO 'b' MAXLEN }",
    "SELECT contents WHERE { NOT CONTENT CONTAINS 'x' }",
    "SELECT contents WHERE { NOT { TYPE a TYPE b } }",
    "SELECT contents WHERE { NOT { } }",
    "SELECT contents WHERE { ANY { TYPE a } }",
    "SELECT contents WHERE { ANY { TYPE a TYPE b }",
    "SELECT contents WHERE { ANY { TYPE a",
    "SELECT contents WHERE { AND }",
    "SELECT $",
    "SELECT contents WHERE { TYPE x } !",
    "SELECT contents WHERE { TYPE ½ }",
    "SELECT contents WHERE { CONTENT CONTAINS 'unterminated }",
    'SELECT contents WHERE { CONTENT CONTAINS "esc at end\\',
    'SELECT contents WHERE { CONTENT CONTAINS "x" } LIMIT 3 "open',
    "SELECT bogus WHERE { TYPE x } $",
    "SELECT contents WHERE { TYPE x } -",
    "SELECT contents WHERE { TYPE x } --5",
    "SELECT contents WHERE { TYPE x́ }",
    # counts that are not non-negative integer literals, and non-ASCII digits
    'SELECT contents WHERE { CONTENT CONTAINS "x" } LIMIT -1',
    'SELECT contents WHERE { CONTENT CONTAINS "x" } LIMIT 2.9',
    "SELECT contents WHERE { INTERVAL OVERLAPS d [1, 2] MINCOUNT 1.5 }",
    "SELECT contents WHERE { INTERVAL OVERLAPS d [1, 2] MINCOUNT -2 }",
    "SELECT graph WHERE { REGION OVERLAPS v [0] .. [1] MINCOUNT 2.0 }",
    "SELECT graph WHERE { PATH 'a' TO 'b' MAXLEN 0.5 }",
    "SELECT graph WHERE { PATH 'a' TO 'b' MAXLEN -3 }",
    'SELECT contents WHERE { CONTENT CONTAINS "x" } LIMIT ²',
    'SELECT contents WHERE { CONTENT CONTAINS "x" } LIMIT ٣',
    "SELECT contents WHERE { INTERVAL OVERLAPS d [١, 5] }",
    "SELECT contents WHERE { INTERVAL OVERLAPS d [1², 5] }",
]

_KEYWORDS = (
    "SELECT WHERE LIMIT CONTENTS REFERENTS GRAPH CONTENT REFERENT TYPE PATH CONTAINS "
    "REFERS OVERLAPS IN INTERVAL REGION WITH DESCENDANTS NODESC MINCOUNT MAXLEN TO AND "
    "OR NOT ANY"
).split()
_PUNCT = ["{", "}", "[", "]", "(", ")", ",", ".", "..", "@"]
_STRINGS = ['"x"', "'y z'", '"a\\"b"', "'it\\'s'", '""', '"kw012"', '"#no comment"', '"two\nlines"']
_NUMBERS = ["0", "12", "-3", "4.5", "-0.25", "1.", ".5", "007"]
_IDENTS = ["chr1", "genome:chrX", "atlas:25um", "mouse-atlas:25um", "_x", "bo", "dna_sequence"]
_JUNK = ["$", '"unclosed', "'unclosed", "-", "!", "½"]
_BLANKS = [" ", " ", " ", "", "\n", "\t", "  ", " # c\n"]
_SOUP = list("abcXYZ_019-:{}[](),.@\"'\\#$ \t\n") + ["é", "ſ", "\xa0", "½"]


def _spell(word: str, rng: random.Random) -> str:
    return rng.choice((word, word.lower(), word.title()))


def _join(parts: list[str], rng: random.Random) -> str:
    text = ""
    for part in parts:
        text += part + rng.choice(_BLANKS)
    return rng.choice(("", " ", "\n")) + text


def _constraint(rng: random.Random, depth: int = 0) -> list[str]:
    kind = rng.choice(("content", "referent", "interval", "region", "type", "path", "not", "any"))
    if depth > 1 and kind in ("not", "any"):
        kind = "type"
    if kind == "content":
        return ["CONTENT", "CONTAINS", rng.choice(_STRINGS)]
    if kind == "referent":
        parts = ["REFERENT", "REFERS", rng.choice(_STRINGS)]
        if rng.random() < 0.5:
            parts += ["IN", rng.choice(_IDENTS)]
        return parts + rng.choice(([], ["WITH", "DESCENDANTS"], ["NODESC"]))
    if kind == "interval":
        parts = ["INTERVAL", "OVERLAPS", rng.choice(_IDENTS), "[", rng.choice(_NUMBERS[:5])]
        parts += [",", rng.choice(_NUMBERS[:5]), "]"]
        return parts + rng.choice(([], ["MINCOUNT", str(rng.randint(0, 3))]))
    if kind == "region":
        dims = rng.randint(1, 3)
        corners = []
        for _ in range(2):
            coords = [rng.choice(_NUMBERS[:5]) for _ in range(dims)]
            corners.append(["["] + list(itertools.chain(*zip(coords, [","] * dims)))[:-1] + ["]"])
        parts = ["REGION", "OVERLAPS", rng.choice(_IDENTS)] + corners[0] + [".."] + corners[1]
        return parts + rng.choice(([], ["MINCOUNT", str(rng.randint(0, 3))]))
    if kind == "type":
        return ["TYPE", rng.choice(_IDENTS)]
    if kind == "path":
        parts = ["PATH", rng.choice(_STRINGS), "TO", rng.choice(_STRINGS)]
        return parts + rng.choice(([], ["MAXLEN", str(rng.randint(0, 8))]))
    if kind == "not":
        return ["NOT", "{"] + _constraint(rng, depth + 1) + ["}"]
    inner = [_constraint(rng, depth + 1) for _ in range(rng.randint(2, 3))]
    return ["ANY", "{"] + list(itertools.chain(*inner)) + ["}"]


def grammar_texts(rng: random.Random, count: int) -> list[str]:
    texts = []
    for _ in range(count):
        parts = ["SELECT", rng.choice(("CONTENTS", "REFERENTS", "GRAPH")), "WHERE", "{"]
        for _ in range(rng.randint(0, 3)):
            parts += _constraint(rng)
        parts.append("}")
        if rng.random() < 0.4:
            parts += ["LIMIT", str(rng.randint(0, 99))]
        words = [_spell(part, rng) if part.isalpha() and part.isupper() else part for part in parts]
        texts.append(_join(words, rng))
    return texts


def token_soup(rng: random.Random, count: int) -> list[str]:
    pools = (_KEYWORDS, _PUNCT, _STRINGS, _NUMBERS, _IDENTS, _JUNK)
    texts = []
    for _ in range(count):
        parts = ["SELECT"] if rng.random() < 0.5 else []
        for _ in range(rng.randint(1, 14)):
            pool = rng.choices(pools, weights=(6, 4, 2, 2, 2, 1))[0]
            parts.append(_spell(rng.choice(pool), rng) if pool is _KEYWORDS else rng.choice(pool))
        texts.append(_join(parts, rng))
    return texts


def char_soup(rng: random.Random, count: int, seeds: list[str]) -> list[str]:
    texts = []
    for index in range(count):
        if index % 2:
            texts.append("".join(rng.choice(_SOUP) for _ in range(rng.randint(1, 30))))
            continue
        chars = list(rng.choice(seeds))
        for _ in range(rng.randint(1, 3)):
            at = rng.randrange(len(chars))
            edit = rng.choice(("delete", "insert", "swap"))
            if edit == "delete":
                del chars[at]
            elif edit == "insert":
                chars.insert(at, rng.choice(_SOUP))
            elif at + 1 < len(chars):
                chars[at], chars[at + 1] = chars[at + 1], chars[at]
        texts.append("".join(chars))
    return texts


def row(kind: str, text: str) -> dict:
    try:
        return {"kind": kind, "text": text, "describe": parse_query(text).describe()}
    except (QuerySyntaxError, ValueError) as exc:  # a4337d2 let some ValueErrors escape
        return {"kind": kind, "text": text, "error": type(exc).__name__, "message": str(exc)}


def main(out: Path) -> None:
    corpus = Corpus(FULL)
    adhoc = list(itertools.islice(corpus.distinct_queries(random.Random(f"{ADHOC_SEED}:adhoc:reads")), 150))
    browse = corpus.query_pool(BROWSE_POOL, random.Random(f"{CORPUS_SEED}:pool"))
    rng = random.Random("gql-golden")
    rows = (
        [row("adhoc", text) for text in adhoc]
        + [row("browse", text) for text in browse]
        + [row("hand", text) for text in HAND]
        + [row("grammar", text) for text in grammar_texts(rng, 50)]
        + [row("tokens", text) for text in token_soup(rng, 70)]
        + [row("chars", text) for text in char_soup(rng, 60, adhoc)]
    )
    with (out / "gql_golden.jsonl").open("w", encoding="utf-8") as handle:
        for item in rows:
            handle.write(json.dumps(item, ensure_ascii=False) + "\n")


if __name__ == "__main__":
    main(Path(sys.argv[1]))

"""Mini op table: every row is whole."""

from repro.service.ops import OWNER, PLAIN, WRITE, Op


def put(self, key, value):
    """Store *value* under *key*."""


def erase(self, key):
    """Drop *key*."""


OPS = {
    row.name: row
    for row in (
        Op("put", WRITE, OWNER, PLAIN, put, wal_op="put",
           apply=lambda state, payload: state.__setitem__(payload["key"], payload["value"])),
        Op("erase", WRITE, OWNER, PLAIN, erase, wal_op="erase",
           apply=lambda state, payload: state.pop(payload["key"], None)),
    )
}

"""Mini op table: "erase" is logged but can never be replayed, routed,
shipped over the wire or crash-tested; "rename" replays an op nothing logs."""

from repro.service.ops import OWNER, PLAIN, WRITE, Op


def put(self, key, value):
    """Store *value* under *key*."""


def erase(self, key):
    """Drop *key*."""


def rename(self, old, new):
    """Move a value."""


OPS = {
    row.name: row
    for row in (
        Op("put", WRITE, OWNER, PLAIN, put, wal_op="put",
           apply=lambda state, payload: state.__setitem__(payload["key"], payload["value"])),
        # BUG: no apply function, no routing, no codec.
        Op("erase", WRITE, None, None, erase, wal_op="erase"),
        # BUG: a replay function for an op no row logs.
        Op("rename", WRITE, OWNER, PLAIN, rename,
           apply=lambda state, payload: state.__setitem__(payload["new"], state.pop(payload["old"]))),
    )
}

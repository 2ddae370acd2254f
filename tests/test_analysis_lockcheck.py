"""The lock-discipline checker catches its seeded fixture and passes the twin."""

from pathlib import Path

from repro.analysis.lockcheck import check_lock_discipline

FIXTURES = Path(__file__).parent / "fixtures" / "analysis"


def _fixture_files(name: str) -> list[Path]:
    return sorted((FIXTURES / name).glob("*.py"))


def test_bad_fixture_triggers_every_lock_rule():
    findings = check_lock_discipline(_fixture_files("lock_bad"))
    rules = sorted(f.rule for f in findings)
    assert rules == ["lock-discipline", "lock-discipline", "lock-io"]

    by_line = {f.line: f for f in findings}
    # @mutates_state with no acquisition anywhere in its body.
    assert any("never acquires the write lock" in f.message for f in findings)
    # @requires_write_lock call site with no dominating with-block.
    assert any("not dominated" in f.message for f in findings)
    # Blocking fsync inside the write-locked region.
    io = [f for f in findings if f.rule == "lock-io"]
    assert len(io) == 1 and "fsync" in io[0].message
    assert all(f.path.endswith("service_mod.py") for f in by_line.values())


def test_good_fixture_is_clean():
    assert check_lock_discipline(_fixture_files("lock_good")) == []


def test_io_under_lock_ok_is_load_bearing(tmp_path):
    # Strip the decorator from the good twin's reviewed exception: the same
    # fsync that was whitelisted must now be a lock-io finding.
    source = (FIXTURES / "lock_good" / "service_mod.py").read_text()
    stripped = source.replace("    @io_under_lock_ok\n", "")
    assert stripped != source
    target = tmp_path / "service_mod.py"
    target.write_text(stripped)
    findings = check_lock_discipline([target])
    # Two sightings of the same root cause: the fsync inside the (now
    # unreviewed) @requires_write_lock body, and the transitive trace from
    # the locked caller that routes through it.
    assert {f.rule for f in findings} == {"lock-io"}
    assert len(findings) == 2
    assert all("fsync" in f.message for f in findings)


def test_requires_decorator_is_load_bearing(tmp_path):
    # Without @requires_write_lock on the helper, the unlocked call site in
    # the bad twin is no longer provably wrong — only the mutator-level and
    # io rules remain.  This pins that findings come from the annotations,
    # not from name heuristics.
    source = (FIXTURES / "lock_bad" / "service_mod.py").read_text()
    stripped = source.replace("    @requires_write_lock\n", "")
    assert stripped != source
    target = tmp_path / "service_mod.py"
    target.write_text(stripped)
    rules = sorted(f.rule for f in check_lock_discipline([target]))
    assert rules == ["lock-discipline", "lock-io"]


def test_transitive_blocking_call_is_traced(tmp_path):
    target = tmp_path / "service_mod.py"
    target.write_text(
        '''
import os

from repro.analysis.annotations import mutates_state
from repro.service.locks import ReadWriteLock


class Svc:
    def __init__(self):
        self._lock = ReadWriteLock()

    @mutates_state
    def snapshot(self):
        with self._lock.write_locked():
            self._serialize_all()

    def _serialize_all(self):
        self._land()

    def _land(self):
        os.fsync(3)
'''
    )
    findings = check_lock_discipline([target])
    io = [f for f in findings if f.rule == "lock-io"]
    assert len(io) == 1
    assert "_serialize_all -> _land -> fsync" in io[0].message


def test_reading_the_previous_snapshot_under_the_write_lock_is_flagged(tmp_path):
    target = tmp_path / "service_mod.py"
    target.write_text(
        '''
from repro.analysis.annotations import mutates_state
from repro.service.locks import ReadWriteLock


class Svc:
    def __init__(self, store):
        self._lock = ReadWriteLock()
        self._store = store

    @mutates_state
    def checkpoint(self, crc32):
        with self._lock.write_locked():
            return self._store.read_previous_snapshot(crc32)
'''
    )
    io = [f for f in check_lock_discipline([target]) if f.rule == "lock-io"]
    assert len(io) == 1 and "read_previous_snapshot" in io[0].message

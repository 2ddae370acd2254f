"""The op-table checker: seeded holes fire, the clean twin passes."""

from pathlib import Path

from repro.analysis.walcheck import check_op_table, load_table

FIXTURES = Path(__file__).parent / "fixtures" / "analysis"


def _check(name: str, with_tests: bool = True):
    table = FIXTURES / name / "ops_table.py"
    tests = [FIXTURES / name / "crash_matrix.py"] if with_tests else []
    return check_op_table(load_table(table).values(), table, tests)


def test_bad_fixture_reports_every_missing_column():
    findings = _check("wal_bad")
    assert all(f.rule == "wal-lifecycle" for f in findings)
    erase = [f for f in findings if "'erase'" in f.message]
    columns = {"apply", "routing", "codec", "crash"}
    hit = {c for c in columns for f in erase if c in f.message}
    assert hit == columns, f"missing columns only partially reported: {hit}"
    # The whole row stays silent.
    assert not any("op 'put'" in f.message for f in findings)
    # A replay function for an op no row logs is flagged in the reverse direction.
    assert any("'rename'" in f.message and "names no WAL op" in f.message for f in findings)


def test_good_fixture_is_clean():
    assert _check("wal_good") == []


def test_load_table_reads_the_rows_in_order():
    assert list(load_table(FIXTURES / "wal_good" / "ops_table.py")) == ["put", "erase"]


def test_findings_point_at_the_row():
    finding = next(f for f in _check("wal_bad") if "'erase'" in f.message)
    assert finding.path.endswith("wal_bad/ops_table.py")
    assert finding.line > 0


def test_without_test_files_the_crash_column_is_not_applicable():
    assert not any("crash" in f.message for f in _check("wal_bad", with_tests=False))


def test_a_verb_emitting_another_rows_records_needs_no_apply_of_its_own():
    # bulk_commit logs "commit" records; the commit row replays them.
    from repro.service import ops

    assert ops.bulk_commit.apply is None
    assert check_op_table([ops.commit, ops.bulk_commit], "ops.py", []) == []
    findings = check_op_table([ops.bulk_commit], "ops.py", [])
    assert len(findings) == 1 and "apply" in findings[0].message

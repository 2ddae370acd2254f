"""``repro lint`` end-to-end: the shipped tree is clean, seeded fixtures fail.

These are the acceptance-bar tests: the CLI must exit 0 (strict) on the real
repo, and nonzero on each seeded fixture with the violated rule named in the
JSON report.
"""

import json
from pathlib import Path

from repro.analysis.driver import repo_layout, run_lint
from repro.cli import main

FIXTURES = Path(__file__).parent / "fixtures" / "analysis"


def test_repo_lint_is_clean_strict():
    findings, suppressed = run_lint()
    assert findings == [], "\n".join(f.render() for f in findings)
    # The pragma machinery is exercised for real on the shipped tree
    # (injected-fault raises in net/client.py, the promotion funeral in
    # replica/replicated.py) — not just on fixtures.
    assert suppressed >= 4


def test_repo_layout_covers_the_serving_layer():
    layout = repo_layout()
    analyzed = {p.name for p in layout["lock_analyze"]}
    assert {"service.py", "wal.py", "durability.py", "follower.py", "server.py"} <= analyzed
    assert layout["ops_path"].name == "ops.py"
    assert layout["wal_test_paths"], "crash/recovery tests must be in scope"


def test_cli_strict_exits_zero_on_repo(capsys):
    assert main(["lint", "--strict"]) == 0
    assert "clean" in capsys.readouterr().out


def _cli_json(fixture: str, capsys) -> dict:
    code = main(["lint", "--strict", "--json", str(FIXTURES / fixture)])
    assert code == 1, f"{fixture} must fail the lint"
    return json.loads(capsys.readouterr().out)


def test_cli_names_rules_in_json_for_each_bad_fixture(capsys):
    expectations = {
        "lock_bad": {"lock-discipline", "lock-io"},
        "wal_bad": {"wal-lifecycle"},
        "err_bad": {"error-taxonomy", "silent-except"},
        "pragma_stale": {"stale-pragma"},
    }
    for fixture, expected_rules in expectations.items():
        report = _cli_json(fixture, capsys)
        rules = {f["rule"] for f in report["findings"]}
        assert rules == expected_rules, (fixture, rules)
        assert report["count"] == len(report["findings"]) > 0
        for finding in report["findings"]:
            assert finding["path"] and finding["line"] > 0 and finding["message"]


def test_cli_good_fixtures_pass(capsys):
    for fixture in ("lock_good", "wal_good", "err_good"):
        assert main(["lint", "--strict", str(FIXTURES / fixture)]) == 0, fixture
        capsys.readouterr()


def test_nonstrict_treats_stale_pragma_as_advisory(capsys):
    assert main(["lint", str(FIXTURES / "pragma_stale")]) == 0
    out = capsys.readouterr().out
    assert "stale-pragma" in out  # reported, but not gating without --strict
    assert main(["lint", "--strict", str(FIXTURES / "pragma_stale")]) == 1
    capsys.readouterr()

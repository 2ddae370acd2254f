"""Tests for the command-line interface."""

import hashlib
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.service import GraphittiService, ServiceConfig
from repro.service.durability import SNAPSHOT_FILE, WAL_FILE
from repro.service.wal import read_segmented_records

EDITED = 'SELECT contents WHERE { CONTENT CONTAINS "curated-edit" }'
READ_VERBS = [
    ["stats"],
    ["admin"],
    ["report"],
    ["query", 'SELECT graph WHERE { PATH "binding" TO "lineage" MAXLEN 6 }'],
    ["explain", 'SELECT contents WHERE { CONTENT CONTAINS "flu" }'],
]
WRITE_VERBS = [
    ["update", "flu-a1", "--title", "revised"],
    ["delete-object", "HA_duck"],
]


def file_digests(root: Path) -> dict[str, str]:
    return {
        str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def wal_seqs(root: Path) -> list[int]:
    records, _ = read_segmented_records(root / WAL_FILE)
    return [record["seq"] for record in records]


def test_scenarios(capsys):
    assert main(["scenarios"]) == 0
    out = capsys.readouterr().out
    assert "influenza" in out
    assert "neuroscience" in out


def test_build_and_stats(tmp_path, capsys):
    root = str(tmp_path / "flu")
    assert main(["build", "influenza", root]) == 0
    capsys.readouterr()
    assert main(["stats", root]) == 0
    out = capsys.readouterr().out
    assert "annotations: 4" in out


def test_build_neuroscience(tmp_path, capsys):
    root = str(tmp_path / "neuro")
    assert main(["build", "neuroscience", root]) == 0
    out = capsys.readouterr().out
    assert "neuroscience" in out


def test_admin(tmp_path, capsys):
    root = str(tmp_path / "flu")
    main(["build", "influenza", root])
    capsys.readouterr()
    assert main(["admin", root]) == 0
    out = capsys.readouterr().out
    assert "integrity" in out
    assert "index economy" in out
    assert "leaderboard" in out


def test_query(tmp_path, capsys):
    root = str(tmp_path / "flu")
    main(["build", "influenza", root])
    capsys.readouterr()
    assert main(["query", root, 'SELECT contents WHERE { CONTENT CONTAINS "cleavage" }']) == 0
    out = capsys.readouterr().out
    assert "result count: 2" in out
    assert "flu-a1" in out


def test_query_syntax_error(tmp_path, capsys):
    root = str(tmp_path / "flu")
    main(["build", "influenza", root])
    capsys.readouterr()
    assert main(["query", root, "NOT VALID GQL"]) == 1
    err = capsys.readouterr().err
    assert "query error" in err


def test_query_graph_return(tmp_path, capsys):
    root = str(tmp_path / "neuro")
    main(["build", "neuroscience", root])
    capsys.readouterr()
    main(["query", root, 'SELECT graph WHERE { REFERENT REFERS "Deep Cerebellar nuclei" }'])
    out = capsys.readouterr().out
    assert "subgraph" in out


def test_update_roundtrip(tmp_path, capsys):
    root = str(tmp_path / "flu")
    main(["build", "influenza", root])
    capsys.readouterr()
    assert (
        main(
            [
                "update", root, "flu-a1",
                "--title", "revised cleavage note",
                "--keywords", "cleavage,curated-edit",
                "--body", "refined by the command line",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "updated flu-a1" in out
    assert main(["query", root, 'SELECT contents WHERE { CONTENT CONTAINS "curated-edit" }']) == 0
    out = capsys.readouterr().out
    assert "result count: 1" in out
    assert "flu-a1" in out


def test_update_requires_a_change(tmp_path, capsys):
    root = str(tmp_path / "flu")
    main(["build", "influenza", root])
    capsys.readouterr()
    assert main(["update", root, "flu-a1"]) == 2
    assert "nothing to update" in capsys.readouterr().err


def test_delete_object_roundtrip(tmp_path, capsys):
    root = str(tmp_path / "flu")
    main(["build", "influenza", root])
    capsys.readouterr()
    assert main(["delete-object", root, "HA_duck"]) == 0
    out = capsys.readouterr().out
    assert "cascaded 1 annotation(s)" in out
    assert main(["stats", root]) == 0
    assert "annotations: 3" in capsys.readouterr().out


def test_delete_object_no_cascade_refuses(tmp_path, capsys):
    root = str(tmp_path / "flu")
    main(["build", "influenza", root])
    capsys.readouterr()
    assert main(["delete-object", root, "HA_duck", "--no-cascade"]) == 1
    assert "error:" in capsys.readouterr().err
    # the root is untouched
    assert main(["stats", root]) == 0
    assert "annotations: 4" in capsys.readouterr().out


def test_read_verbs_leave_every_byte_of_the_root_unchanged(tmp_path, capsys):
    root = tmp_path / "flu"
    assert main(["build", "influenza", str(root)]) == 0
    # A logged edit, so each read replays the WAL as well as the snapshot.
    assert main(["update", str(root), "flu-a1", "--keywords", "cleavage,curated-edit"]) == 0
    before = file_digests(root)
    assert SNAPSHOT_FILE in before and WAL_FILE in before
    for verb, *rest in READ_VERBS:
        assert main([verb, str(root), *rest]) == 0, verb
        assert file_digests(root) == before, verb
    capsys.readouterr()


@pytest.mark.parametrize("verb", READ_VERBS + WRITE_VERBS, ids=lambda verb: verb[0])
def test_a_verb_on_a_missing_root_exits_2_and_creates_nothing(tmp_path, capsys, verb):
    root = tmp_path / "missing"
    assert main([verb[0], str(root), *verb[1:]]) == 2
    assert str(root) in capsys.readouterr().err
    assert not root.exists()


def test_a_damaged_snapshot_is_refused_not_parsed(tmp_path, capsys):
    root = tmp_path / "flu"
    assert main(["build", "influenza", str(root)]) == 0
    snapshot = root / SNAPSHOT_FILE
    data = snapshot.read_bytes()
    assert b"cleavage" in data
    snapshot.write_bytes(data.replace(b"cleavage", b"xleavage", 1))
    capsys.readouterr()
    assert main(["query", str(root), 'SELECT contents WHERE { CONTENT CONTAINS "xleavage" }']) != 0
    captured = capsys.readouterr()
    assert "damaged" in captured.err and "crc32" in captured.err
    assert "result count" not in captured.out


def test_an_edit_is_one_wal_record_and_a_refused_one_is_none(tmp_path, capsys):
    root = tmp_path / "flu"
    assert main(["build", "influenza", str(root)]) == 0
    before = wal_seqs(root)
    assert main(["update", str(root), "flu-a1", "--keywords", "cleavage,curated-edit"]) == 0
    assert main(["delete-object", str(root), "HA_duck", "--no-cascade"]) == 1
    after = wal_seqs(root)
    assert len(after) == len(before) + 1
    capsys.readouterr()
    service = GraphittiService.recover(root, config=ServiceConfig(checkpoint_on_close=False))
    try:
        assert service.recovery_info["replayed"] == 1
        assert service.query(EDITED).annotation_ids == ["flu-a1"]
        assert service.annotation_count == 4
    finally:
        service.close()


def test_build_refuses_a_root_that_holds_state(tmp_path, capsys):
    root = tmp_path / "flu"
    assert main(["build", "influenza", str(root)]) == 0
    before = file_digests(root)
    assert main(["build", "neuroscience", str(root)]) == 2
    assert str(root) in capsys.readouterr().err
    assert file_digests(root) == before


def test_parser_requires_command():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args([])


def test_serve_fresh_and_reopen(tmp_path, capsys):
    root = str(tmp_path / "served")
    assert main(["build", "influenza", root]) == 0
    capsys.readouterr()
    args = [
        "serve", root,
        "--readers", "2", "--writers", "1", "--queries", "20", "--commits", "6",
        "--durability", "never",
    ]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "recovered instance" in out
    assert "cache:" in out and "checkpoints:" in out
    # Second invocation recovers the durable state and keeps serving.
    assert main([
        "serve", root, "--readers", "2", "--writers", "1",
        "--queries", "10", "--commits", "4", "--durability", "never",
    ]) == 0
    out = capsys.readouterr().out
    assert "recovered instance" in out


def test_serve_help_lists_options():
    parser = build_parser()
    args = parser.parse_args(["serve", "somewhere"])
    assert args.readers == 4 and args.durability == "always"
    assert args.shards is None  # unset; a sharded root's manifest decides


def test_serve_sharded_fresh_then_reopen_without_flag(tmp_path, capsys):
    """Regression: reopening a sharded root WITHOUT --shards must adopt the
    manifest and serve the shards — not open a fresh empty unsharded
    instance next to them."""
    root = str(tmp_path / "sharded-served")
    assert main([
        "serve", root, "--shards", "3",
        "--readers", "2", "--writers", "1", "--queries", "12", "--commits", "4",
        "--durability", "never",
    ]) == 0
    out = capsys.readouterr().out
    assert "opened fresh 3-shard instance" in out
    assert "shards: 3" in out

    # no --shards on reopen: the manifest wins and prior state is served
    assert main([
        "serve", root, "--readers", "1", "--writers", "1",
        "--queries", "6", "--commits", "2", "--durability", "never",
    ]) == 0
    out = capsys.readouterr().out
    assert "recovered 3-shard instance" in out

    # an explicitly conflicting count is refused, not silently resharded
    assert main([
        "serve", root, "--shards", "2",
        "--readers", "1", "--writers", "1", "--queries", "2", "--commits", "1",
    ]) == 1


def test_serve_net_flags_have_defaults():
    parser = build_parser()
    args = parser.parse_args(["serve", "somewhere", "--net"])
    assert args.net is True
    assert args.port_base is None
    assert args.heartbeat_interval == 0.5
    assert args.max_inflight == 64
    worker = parser.parse_args(["shard-worker", "somewhere", "--shard-index", "2"])
    assert worker.shard_index == 2 and worker.port == 0
    assert worker.func.__name__ == "_cmd_shard_worker"


def test_serve_net_spawns_workers_and_metrics_net_reads_them(tmp_path, capsys):
    root = str(tmp_path / "net-served")
    assert main([
        "serve", root, "--net", "--shards", "2",
        "--readers", "1", "--writers", "1", "--queries", "5", "--commits", "2",
    ]) == 0
    out = capsys.readouterr().out
    assert "shard worker process(es) over TCP" in out
    assert "annotations served:" in out
    # The same root reopens through worker processes for metrics sampling.
    assert main(["metrics", root, "--net", "--exercise", "1"]) == 0
    out = capsys.readouterr().out
    assert '"rpc.requests"' in out


def test_metrics_net_refuses_an_unsharded_root(tmp_path, capsys):
    root = str(tmp_path / "plain")
    assert main(["build", "influenza", root]) == 0
    capsys.readouterr()
    assert main(["metrics", str(tmp_path / "missing"), "--net"]) == 1

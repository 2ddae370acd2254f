"""Checkpoint crash matrix: SIGKILL at every checkpoint seam, then recover.

The non-blocking checkpoint has four distinct on-disk transitions — seal the
active WAL segment, write the temp snapshot, rename it into place, prune the
superseded segments — and a crash between any two of them leaves a different
on-disk shape (sealed segments with no new snapshot, an orphaned ``.tmp``,
a fresh snapshot next to stale segments, a fully landed checkpoint).  Each
test drives a subprocess through one seam via the ``REPRO_CKPT_KILL_AFTER``
environment variable and proves recovery loses no acknowledged write.

The second half parks a checkpoint mid-snapshot-write through the
``DurableStore.snapshot_write_hook`` test seam and proves concurrent writers
commit to completion while the checkpoint is still serializing — the whole
point of moving serialization off the write lock.
"""

import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.datatypes import DnaSequence
from repro.service import GraphittiService, ServiceConfig
from repro.service.durability import KILL_ENV

SRC = Path(__file__).resolve().parent.parent / "src"

NO_CLOSE_CHECKPOINT = ServiceConfig(checkpoint_on_close=False)

#: Annotations committed before the clean checkpoint / before the killed one.
WARM, ACKED = 8, 8

# The child: warm corpus -> clean checkpoint -> more acknowledged commits ->
# checkpoint that SIGKILLs itself at the seam named by argv[2]; the last
# acknowledged commit's body is padded by argv[6] bytes.  The clean
# checkpoint first means the killed one runs against a real prior snapshot
# and prior sealed-segment history, not a fresh root.
_CHILD_CODE = """
import os, sys
root, seam = sys.argv[1], sys.argv[2]
from repro.datatypes import DnaSequence
from repro.service import GraphittiService, ServiceConfig

service = GraphittiService.open(root, config=ServiceConfig(checkpoint_on_close=False))
service.register(DnaSequence("crash_seq", "ACGT" * 120, domain="crash:chr1"))

def commit(prefix, count, pad=0):
    for index in range(count):
        padding = " " + "x" * pad if pad and index == count - 1 else ""
        (
            service.new_annotation(
                f"{prefix}-{index}",
                title=f"{prefix} annotation {index}",
                keywords=["crash", prefix],
                body=f"{prefix} crash-matrix annotation {index}{padding}",
            )
            .mark_sequence("crash_seq", index * 12, index * 12 + 10)
            .commit()
        )

commit("warm", int(sys.argv[3]))
service.checkpoint()
commit("acked", int(sys.argv[4]), int(sys.argv[6]))
print("ACKED", flush=True)
os.environ[sys.argv[5]] = seam
service.checkpoint()
print("SURVIVED", flush=True)
"""


def _run_child_killed_at(root: Path, seam: str, pad: int = 0) -> subprocess.CompletedProcess:
    completed = subprocess.run(
        [
            sys.executable,
            "-c",
            _CHILD_CODE,
            str(root),
            seam,
            str(WARM),
            str(ACKED),
            KILL_ENV,
            str(pad),
        ],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
        timeout=120,
    )
    assert completed.returncode == -signal.SIGKILL, completed.stderr
    assert "ACKED" in completed.stdout, completed.stderr
    assert "SURVIVED" not in completed.stdout
    return completed


def _expected_ids() -> set[str]:
    return {f"warm-{i}" for i in range(WARM)} | {f"acked-{i}" for i in range(ACKED)}


@pytest.mark.parametrize("seam", ["seal", "tmp", "rename", "prune"])
def test_kill_at_checkpoint_seam_loses_no_acknowledged_write(tmp_path, seam):
    root = tmp_path / f"kill-{seam}"
    _run_child_killed_at(root, seam)

    recovered = GraphittiService.recover(root, config=NO_CLOSE_CHECKPOINT)
    try:
        ids = {a.annotation_id for a in recovered.manager.annotations()}
        assert ids == _expected_ids()
        report = recovered.check_integrity()
        assert report.ok, report.errors
        hits = recovered.query('SELECT contents WHERE { CONTENT CONTAINS "crash" }')
        assert set(hits.annotation_ids) == _expected_ids()
    finally:
        recovered.close()


@pytest.mark.parametrize(
    "seam, pad",
    [pytest.param(seam, 0, id=seam) for seam in ("seal", "tmp", "rename", "prune")]
    # The last acknowledged record is over 64 KiB: the reopened log must
    # still number its next record above it, or the next recovery refuses
    # a replayed seq that does not advance.
    + [pytest.param("seal", 70_000, id="seal-record-over-64kib")],
)
def test_recovered_root_checkpoints_cleanly_after_kill(tmp_path, seam, pad):
    """The crash leftovers (orphaned tmp, stale segments) must not poison
    what follows: recover, commit more, recover again, checkpoint, and
    recover a third time."""
    root = tmp_path / f"relife-{seam}"
    _run_child_killed_at(root, seam, pad)
    expected = _expected_ids() | {"post-crash"}

    recovered = GraphittiService.recover(root, config=NO_CLOSE_CHECKPOINT)
    try:
        # Recovered objects are catalogue-only placeholders (no native
        # payload to mark), so the post-recovery commit marks a freshly
        # registered object — the supported continue-after-crash workflow.
        recovered.register(DnaSequence("relife_seq", "GATC" * 120, domain="crash:chr2"))
        (
            recovered.new_annotation(
                "post-crash", keywords=["crash"], body="committed after recovery"
            )
            .mark_sequence("relife_seq", 300, 320)
            .commit()
        )
    finally:
        recovered.close()

    reopened = GraphittiService.recover(root, config=NO_CLOSE_CHECKPOINT)
    try:
        assert {a.annotation_id for a in reopened.manager.annotations()} == expected
        reopened.checkpoint()
    finally:
        reopened.close()
    assert not (root / "snapshot.json.tmp").exists()

    checkpointed = GraphittiService.recover(root, config=NO_CLOSE_CHECKPOINT)
    try:
        assert {a.annotation_id for a in checkpointed.manager.annotations()} == expected
        assert checkpointed.check_integrity().ok
    finally:
        checkpointed.close()


def test_kill_after_tmp_leaves_orphan_and_old_snapshot(tmp_path):
    """At the ``tmp`` seam the rename never happened: the previous snapshot is
    still the one recovery reads, and the orphaned temp file sits beside it."""
    root = tmp_path / "orphan"
    _run_child_killed_at(root, "tmp")
    assert (root / "snapshot.json.tmp").exists()
    assert (root / "snapshot.json").exists()


def test_writers_commit_while_checkpoint_is_parked_mid_write(tmp_path):
    """Concurrent writers never block on snapshot serialization.

    The hook parks the background checkpoint thread right before the
    snapshot payload hits disk; writer threads then commit to completion
    while the checkpoint is provably still in flight.
    """
    root = tmp_path / "parked"
    service = GraphittiService.open(root, config=NO_CLOSE_CHECKPOINT)
    service.register(DnaSequence("park_seq", "TGCA" * 120, domain="park:chr1"))
    for index in range(6):
        (
            service.new_annotation(
                f"before-{index}", keywords=["park"], body=f"pre-checkpoint {index}"
            )
            .mark_sequence("park_seq", index * 10, index * 10 + 8)
            .commit()
        )

    parked = threading.Event()
    release = threading.Event()

    def park() -> None:
        parked.set()
        assert release.wait(timeout=30)

    service._store.snapshot_write_hook = park
    checkpointer = threading.Thread(target=service.checkpoint, name="test-ckpt")
    checkpointer.start()
    try:
        assert parked.wait(timeout=30)

        finished: list[int] = []

        def writer(lane: int) -> None:
            for index in range(5):
                (
                    service.new_annotation(
                        f"during-{lane}-{index}",
                        keywords=["park"],
                        body=f"committed while checkpoint parked {lane}/{index}",
                    )
                    .mark_sequence("park_seq", lane * 60 + index * 10, lane * 60 + index * 10 + 8)
                    .commit()
                )
            finished.append(lane)

        writers = [threading.Thread(target=writer, args=(lane,)) for lane in range(3)]
        for thread in writers:
            thread.start()
        for thread in writers:
            thread.join(timeout=30)
        # Every writer ran to completion while the checkpoint thread was
        # still parked inside the snapshot write — serialization did not
        # gate a single commit.
        assert sorted(finished) == [0, 1, 2]
        assert checkpointer.is_alive()
    finally:
        release.set()
        checkpointer.join(timeout=30)
    assert not checkpointer.is_alive()
    service._store.snapshot_write_hook = None
    service.close()

    recovered = GraphittiService.recover(root, config=NO_CLOSE_CHECKPOINT)
    try:
        ids = {a.annotation_id for a in recovered.manager.annotations()}
        expected = {f"before-{i}" for i in range(6)} | {
            f"during-{lane}-{i}" for lane in range(3) for i in range(5)
        }
        assert ids == expected
        assert recovered.check_integrity().ok
    finally:
        recovered.close()

"""The checkpoint hands its thread the GIL-courtesy window before it starts.

``Thread.start()`` returns only once the new thread has run; at the default
5 ms switch interval that thread keeps the GIL for a whole interval first,
while the caller holds the service's write lock.  The window therefore opens
on the caller, before ``start()``, and the checkpoint thread closes it.
"""

import gc
import sys
import threading

import pytest

from repro.datatypes import DnaSequence
from repro.errors import ServiceError
from repro.service import GraphittiService, ServiceConfig
from repro.service.durability import _COURTESY_INTERVAL_S


@pytest.fixture
def service(tmp_path):
    svc = GraphittiService.open(tmp_path / "root", config=ServiceConfig(checkpoint_on_close=False))
    svc.register(DnaSequence("seq1", "ACGT" * 100, domain="chr1"))
    for index in range(4):
        svc.commit(
            svc.new_annotation(f"c-{index}", keywords=["courtesy"]).mark_sequence(
                "seq1", index * 10, index * 10 + 5
            )
        )
    yield svc
    svc.close()


@pytest.fixture
def start_intervals(monkeypatch):
    """The switch interval in force as each checkpoint thread is started."""
    seen: list[float] = []
    original = threading.Thread.start

    def start(thread):
        if thread.name == "repro-checkpoint":
            seen.append(sys.getswitchinterval())
        return original(thread)

    monkeypatch.setattr(threading.Thread, "start", start)
    return seen


def test_checkpoint_thread_starts_inside_the_window(service, start_intervals):
    interval, collecting = sys.getswitchinterval(), gc.isenabled()
    service.checkpoint()
    assert start_intervals == [_COURTESY_INTERVAL_S]
    assert sys.getswitchinterval() == interval
    assert gc.isenabled() == collecting


def test_window_closes_when_the_snapshot_write_raises(service, start_intervals):
    interval, collecting = sys.getswitchinterval(), gc.isenabled()

    def fail() -> None:
        raise OSError("disk gone")

    service._store.snapshot_write_hook = fail
    with pytest.raises(ServiceError, match="disk gone"):
        service.checkpoint()
    service._store.snapshot_write_hook = None
    assert start_intervals == [_COURTESY_INTERVAL_S]
    assert sys.getswitchinterval() == interval
    assert gc.isenabled() == collecting

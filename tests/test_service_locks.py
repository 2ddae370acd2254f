"""Tests for the serving layer's readers-writer lock."""

import threading
import time

from repro.service.locks import ReadWriteLock


def test_readers_share():
    lock = ReadWriteLock()
    entered = []
    barrier = threading.Barrier(3, timeout=5)

    def reader():
        with lock.read_locked():
            entered.append(threading.current_thread().name)
            barrier.wait()  # all three readers inside simultaneously

    threads = [threading.Thread(target=reader) for _ in range(3)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=5)
    assert len(entered) == 3


def test_writer_excludes_readers():
    lock = ReadWriteLock()
    events = []

    def writer():
        with lock.write_locked():
            events.append("w-in")
            time.sleep(0.05)
            events.append("w-out")

    lock.acquire_write()
    reader_done = threading.Event()

    def reader():
        with lock.read_locked():
            events.append("r")
        reader_done.set()

    thread = threading.Thread(target=reader)
    thread.start()
    time.sleep(0.02)
    assert not reader_done.is_set()  # blocked behind the held write lock
    events.append("release")
    lock.release_write()
    assert reader_done.wait(timeout=5)
    thread.join(timeout=5)
    assert events == ["release", "r"]
    # writer() exercised separately for completeness
    writer()
    assert events[-2:] == ["w-in", "w-out"]


def test_writers_serialize():
    lock = ReadWriteLock()
    active = []
    overlaps = []

    def writer(name):
        with lock.write_locked():
            active.append(name)
            if len(active) > 1:
                overlaps.append(tuple(active))
            time.sleep(0.01)
            active.remove(name)

    threads = [threading.Thread(target=writer, args=(index,)) for index in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=5)
    assert overlaps == []


def test_writer_preference_blocks_new_readers():
    lock = ReadWriteLock()
    order = []
    lock.acquire_read()

    wrote = threading.Event()

    def writer():
        lock.acquire_write()
        order.append("writer")
        wrote.set()
        lock.release_write()

    def late_reader():
        wrote.wait(timeout=5)  # give the writer priority deterministically
        with lock.read_locked():
            order.append("late-reader")

    writer_thread = threading.Thread(target=writer)
    writer_thread.start()
    time.sleep(0.02)  # writer now waiting on the held read lock
    assert lock.snapshot()["writers_waiting"] == 1
    reader_thread = threading.Thread(target=late_reader)
    reader_thread.start()
    lock.release_read()
    writer_thread.join(timeout=5)
    reader_thread.join(timeout=5)
    assert order == ["writer", "late-reader"]


def test_a_waiting_writer_enters_once_the_last_reader_leaves():
    # release_read wakes only when a writer is counted as waiting.
    lock = ReadWriteLock()
    lock.acquire_read()
    lock.acquire_read()
    entered = threading.Event()

    def writer():
        with lock.write_locked():
            entered.set()

    thread = threading.Thread(target=writer)
    thread.start()
    deadline = time.monotonic() + 5
    while lock.snapshot()["writers_waiting"] == 0 and time.monotonic() < deadline:
        time.sleep(0.001)
    lock.release_read()
    assert not entered.wait(timeout=0.05)  # one reader still inside
    lock.release_read()
    assert entered.wait(timeout=5)
    thread.join(timeout=5)
    assert not thread.is_alive()


def test_snapshot_counts():
    lock = ReadWriteLock()
    assert lock.snapshot() == {
        "active_readers": 0,
        "writer_active": False,
        "writers_waiting": 0,
    }
    lock.acquire_read()
    assert lock.snapshot()["active_readers"] == 1
    lock.release_read()
    lock.acquire_write()
    assert lock.snapshot()["writer_active"] is True
    lock.release_write()

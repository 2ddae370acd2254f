"""Crash tests: every durable op has a crash/replay case."""


def check_put_replay(harness):
    harness.crash_after("put")
    harness.recover()


def check_erase_replay(harness):
    harness.crash_after("erase")
    harness.recover()

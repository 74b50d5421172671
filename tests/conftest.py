"""Checks that hold for every test of the suite."""

import threading

import pytest


@pytest.fixture(autouse=True)
def no_thread_left():
    """Fail a test that leaves alive a thread it did not find alive: the
    field pool joins its helper threads before PairingTable.build
    returns, whatever fails."""
    before = set(threading.enumerate())
    yield
    left = [t for t in threading.enumerate() if t not in before]
    if left:
        pytest.fail(f"threads left alive: {left}")


class InlineThread:
    """A stand-in for threading.Thread whose start() runs the target on the
    calling thread.  Swapped in for operators.Thread, it makes
    PairingTable.build serial: its one helper builds every field, largest
    first, before meanwhile runs, and no thread starts."""

    def __init__(self, target):
        self._target = target

    def start(self):
        self._target()

    def join(self):
        pass

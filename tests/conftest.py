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

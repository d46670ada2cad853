"""Shared fixtures."""

import signal

import pytest


class DeadlinePassed(Exception):
    pass


@pytest.fixture
def deadline():
    """deadline(seconds) arms a real-time alarm that raises DeadlinePassed in the
    test, so a call that should return at once fails instead of hanging; the
    alarm is disarmed when the test ends.  Skips where setitimer is missing."""
    if not hasattr(signal, "setitimer"):
        pytest.skip("signal.setitimer is not available")

    def expire(signum, frame):
        raise DeadlinePassed("the deadline passed")

    previous = signal.signal(signal.SIGALRM, expire)
    yield lambda seconds: signal.setitimer(signal.ITIMER_REAL, seconds)
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, previous)

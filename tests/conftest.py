"""Shared fixtures for the test-suite."""

from __future__ import annotations

import contextlib
import gc
import multiprocessing
import signal

import numpy as np
import pytest

from repro.maps import (
    map2_exponential,
    map2_from_moments_and_decay,
    map2_hyperexponential_renewal,
)


@pytest.fixture(scope="session", autouse=True)
def no_leaked_workers():
    """Fail the session if any forked worker outlives the tests.

    Worker pools are closed by their owners (a run, or a service's
    ``close``/finalizer); ``gc.collect`` first drops services that only a
    reference cycle still holds.
    """
    yield
    gc.collect()
    leaked = multiprocessing.active_children()
    assert not leaked, f"worker processes still running at session end: {leaked}"


#: Bound on a test that recovers from an injected hang: seconds of work, so a
#: hang that is never reaped fails the test instead of stalling the run.
HANG_DEADLINE_SECONDS = 30.0


@contextlib.contextmanager
def deadline(seconds: float):
    """Fail the test if the ``with`` body runs longer than ``seconds``.

    Arms ``ITIMER_REAL``; its ``SIGALRM`` handler fails the test from the main
    thread, also out of a blocking wait.  The timer is always cancelled and
    the previous handler restored.
    """

    def expire(signum, frame):
        pytest.fail(f"still running after its {seconds:g} s deadline", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator for tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def poisson_map():
    """A Poisson process with rate 2 expressed as a MAP."""
    return map2_exponential(0.5)


@pytest.fixture
def renewal_h2_map():
    """A renewal MAP(2) with hyper-exponential marginal (mean 1, SCV 3)."""
    return map2_hyperexponential_renewal(1.0, 3.0)


@pytest.fixture
def bursty_map():
    """A strongly autocorrelated MAP(2) (mean 1, SCV 3, decay 0.98)."""
    return map2_from_moments_and_decay(1.0, 3.0, 0.98)

"""A per-test time limit from the standard library.

A test that runs past TIME_LIMIT_S seconds fails with TimeoutError, so a
fault that makes a loop spin (a Euclid pass that never lowers a degree, say)
fails the suite instead of hanging it.  The limit is far above the slowest
test, test_criterion_01, which takes about 80 s.  Where the platform has no
SIGALRM interval timer (Windows), tests run without a limit.
"""

import signal

import pytest

TIME_LIMIT_S = 900


@pytest.fixture(autouse=True)
def _time_limit(request):
    if not hasattr(signal, "setitimer"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError(f"{request.node.nodeid} ran past its {TIME_LIMIT_S} s limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)

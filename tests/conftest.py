"""Test settings: a test that hangs fails, and the run goes on.

pytest's `faulthandler_timeout` (pyproject.toml) dumps every thread's
traceback once a test has run that long, but the dump itself can crash the
interpreter. So where POSIX offers SIGALRM, a real-time timer set at three
quarters of that limit raises a test failure in the main thread first,
with the traceback of where the test stood. The timer starts once the
test's wider-scoped fixtures are set up, so the quarter left over is their
margin. A hang that never returns to the interpreter, in C code that does
not yield to signal handlers, still gets the faulthandler dump.
"""
import signal

import pytest


@pytest.fixture(autouse=True)
def deadline(request):
    try:
        limit = float(request.config.getini("faulthandler_timeout") or 0)
    except ValueError:  # the faulthandler plugin is off
        limit = 0
    if limit <= 0 or not hasattr(signal, "SIGALRM"):
        yield
        return
    seconds = 0.75 * limit

    def expire(signum, frame):
        pytest.fail(f"still running after {seconds:g} s, three quarters of "
                    f"faulthandler_timeout")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)

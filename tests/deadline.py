"""A wall-clock bound for a block of test code."""

import signal
from contextlib import contextmanager


@contextmanager
def within(seconds):
    """Raise ``TimeoutError`` when the block outlasts ``seconds``: a kernel
    whose sums wrap, or a guard that counts too long, may never end."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)

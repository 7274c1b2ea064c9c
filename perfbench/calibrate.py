"""Reference-speed calibration for times measured on a shared host.

On a host whose cores are shared with other machines, the speed of the same
Python code drifts by up to 2x within a minute, and every request slows by
the same factor.  Each time the benchmark reports is therefore scaled to a
reference speed: a fixed exact-arithmetic kernel (Fraction elimination, the
same kind of work copocert does) is timed on the same thread right before
and right after the measured interval (the sample after one interval is
the sample before the next) and, through ``Sampler``, every 0.1 s
inside it; the interval, less the time the samples inside it took, is
multiplied by ``REFERENCE_S / mean kernel time``.  Measured while
developing the benchmark, raw request times on a drifting host varied 2x
while the scaled ones stayed within 3%.

The kernel runs with the cyclic garbage collector off, so its time does not
depend on how many objects the program keeps alive or on how the program
sets the collector; only the host's speed moves it.  What the kernel cannot
shut out is the cache and memory state the program leaves behind, so the
raw (unscaled) figures are printed next to the scaled ones.

``REFERENCE_S`` is the kernel's time on an unloaded 2-core host under
Python 3.11, so scaled times read as wall times on that host.  It is a
constant: a change to the program never moves it.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

REFERENCE_S = 0.0015
INTERVAL_S = 0.1
_ORDER = 7
_ROUNDS = 2


def _kernel() -> Fraction:
    n = _ORDER
    M = [[Fraction(1, i + j + 1) + (i == j) for j in range(n)] + [Fraction(i + 1)]
         for i in range(n)]
    for c in range(n):
        for r in range(c + 1, n):
            f = M[r][c] / M[c][c]
            M[r] = [a - f * b for a, b in zip(M[r], M[c])]
    return M[n - 1][n]


def sample() -> float:
    """Seconds the reference kernel takes now, with the collector off."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(_ROUNDS):
            _kernel()
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


class Sampler:
    """Takes a sample every ``INTERVAL_S`` seconds of wall time, from a
    SIGALRM handler on the main thread, while the ``with`` block runs.

    ``samples`` holds ``(start, end, seconds)`` per sample.  An alarm that
    arrives while a sample is being taken is dropped, so samples never nest.
    """

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []
        self._previous = None
        self._last = None
        self._sampling = False

    def _sample(self) -> float:
        self._sampling = True
        try:
            return sample()
        finally:
            self._sampling = False

    def _handler(self, signum, frame):
        if self._sampling:
            return
        start = time.perf_counter()
        took = self._sample()
        self.samples.append((start, time.perf_counter(), took))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def timed(self, fn, *args):
        """``(scaled seconds, raw seconds, result)`` of ``fn(*args)``."""
        first = len(self.samples)
        before = self._last if self._last is not None else self._sample()
        start = time.perf_counter()
        result = fn(*args)
        end = time.perf_counter()
        after = self._last = self._sample()
        inside = [s for s in self.samples[first:] if start <= s[0] and s[1] <= end]
        spent = sum(s[1] - s[0] for s in inside)
        speeds = [before, after] + [s[2] for s in inside]
        raw = end - start - spent
        return raw * REFERENCE_S * len(speeds) / sum(speeds), raw, result

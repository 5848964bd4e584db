"""Host speed, sampled while the timed calls run.

On a shared host the same process switches, for seconds to minutes at a
time, between a fast and a slow state: a fixed pure-Python loop, timed in
2-second bins over 5 minutes on the reference host, took either ~7 ms or
~10.5 ms.  A 15-second run catches some mix of the two, so the run-to-run
spread of raw wall time over ten runs was 12-25% (quartile distance over
median), wider than any useful regression bound.

A ``Sampler`` times a fixed ~1.5 ms kernel of the kinds of work the
program does (an interpreter loop, vector-by-matrix products, scattered
memory reads, calls on small arrays; it keeps no memory) on entry, every
``INTERVAL_S`` of wall time from a SIGALRM handler, and on exit.  Each
sample runs the kernel once untimed, so that what the program left in the
caches does not count, then once timed.  ``factor`` is the mean of
REFERENCE_S / kernel seconds over a block's samples; a timed call's wall
seconds times that factor are its reference-host seconds.  The kernel is
the benchmark's own code, so a change to the program moves scaled times as
it moves raw ones; only the host's state cancels.  Over the same sets of
runs, scaling cut the spread of time per predicted record from 14-24% to
2-6%, of epoch time from 8-21% to 5-7% and of step time from 15% to 3%.
The samples taken inside a call add about 0.6% to its wall time, the same
on every commit.  Raw times stay in the run record.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# Kernel seconds on the reference host in its fast state: 2 cores,
# Python 3.11.7, NumPy 2.4.6 on OpenBLAS 0.3.31, one BLAS thread.
REFERENCE_S = 0.0015
INTERVAL_S = 0.5

_rng = np.random.default_rng(0)
_W = _rng.standard_normal((180, 180)) / np.sqrt(180.0)
_X = _rng.standard_normal((1, 180))
_TABLE = _rng.standard_normal(1 << 19)  # 4 MB, more than a core's own cache
_ROWS = _rng.integers(0, 1 << 19, size=20000)
_SMALL = np.ones(16)


def kernel_s() -> float:
    """Seconds one run of the fixed kernel takes now."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(6000):  # interpreter loop
        acc += i * i
    x = _X
    for _ in range(60):  # vector-by-matrix products, as at paper dimensions
        x = np.tanh(x @ _W)
    for _ in range(5):  # scattered memory reads
        acc += _TABLE[_ROWS].sum()
    y = _SMALL
    for _ in range(150):  # calls on 16-float arrays, as at the small dimensions
        y = np.tanh(y * 0.5 + y)
    return time.perf_counter() - start


class Sampler:
    """Samples host speed for the length of a ``with`` block."""

    def __init__(self):
        self.speeds: list[float] = []  # REFERENCE_S / kernel seconds, in the last block
        self._previous = None

    def _sample(self, *_signal_args) -> None:
        kernel_s()  # brings the kernel's arrays back into cache after the program's work
        self.speeds.append(REFERENCE_S / kernel_s())

    def __enter__(self) -> "Sampler":
        self.speeds = []
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def factor(self) -> float:
        """Reference-host seconds per wall second over the last block."""
        return statistics.fmean(self.speeds)

"""Host-speed sampling while the timed runs execute.

On a shared machine the same code runs up to 60% slower for seconds to
minutes at a time, so raw wall times of two calls disagree more than any
useful regression bound.  `HostSampler` measures the host's speed during the
runs themselves: a timer signal fires every `INTERVAL_S` seconds and its
handler times `calibration_block`, a fixed piece of work of the same kinds as
the workloads' (FFTs, interpreted Python, numpy calls on tiny arrays) that
does not touch kamconj.  A run's cost is its wall time divided by the median
block time sampled during it (widened by `PAD_S` on each side), so a slow
phase of the host lengthens both and cancels, while a slower program raises
the cost.

The handler's own time is subtracted from the run it interrupted.  Python
runs signal handlers between bytecodes, so a sample never splits a numpy call
and never changes a result.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.1
PAD_S = 0.5

# Calibration inputs, made once.  The FFT writes into preallocated arrays so
# that a sample adds nothing to the process's peak memory.
_GRID = np.exp(2j * np.pi * np.random.default_rng(0).random((128, 128)))
_SPECTRUM = np.empty_like(_GRID)
_BACK = np.empty_like(_GRID)
_POINTS = [(math.cos(0.37 * k), math.sin(0.91 * k)) for k in range(2800)]
_SMALL = np.linspace(0.0, 1.0, 16)


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def calibration_block() -> float:
    """A fixed ~4 ms of work in three equal parts; returns a checksum.

    The parts stand for the three kinds of time in the workloads: FFTs on a
    128x128 grid, interpreted Python (sorting and a hull-style cross-product
    loop) and many numpy calls on tiny arrays.
    """
    for _ in range(2):
        np.fft.fft2(_GRID, out=_SPECTRUM)
        np.fft.ifft2(_SPECTRUM, out=_BACK)
    pts = sorted(_POINTS)
    acc = 0.0
    for i in range(len(pts) - 2):
        acc += _cross(pts[i], pts[i + 1], pts[i + 2])
    v = _SMALL
    for _ in range(480):
        v = np.sin(v) + 0.5 * v
    return acc + float(v[0]) + float(_BACK[0, 0].real)


class HostSampler:
    """Times `calibration_block` on SIGALRM between `start` and `stop`."""

    def __init__(self):
        self.starts: list[float] = []  # perf_counter at each sample's start, ascending
        self.durations: list[float] = []
        self._busy = 0.0  # total handler time so far
        self._previous = None

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        calibration_block()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.durations.append(t1 - t0)
        self._busy += time.perf_counter() - t0

    def start(self):
        calibration_block()  # first call pays numpy's FFT plan set-up
        for _ in range(5):  # so that even a lone sub-interval run has samples
            self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def busy(self) -> float:
        """Total time spent in the handler so far; subtract the change over a run."""
        return self._busy

    def block_s(self, begin: float, end: float) -> float | None:
        """Median block time sampled in [begin - PAD_S, end + PAD_S], or None if none was."""
        lo = bisect.bisect_left(self.starts, begin - PAD_S)
        hi = bisect.bisect_right(self.starts, end + PAD_S)
        return statistics.median(self.durations[lo:hi]) if hi > lo else None

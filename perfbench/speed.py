"""Timing corrected for the speed the CPU gives this process at the moment.

On a shared machine the same code can run at two speeds about 1.4x apart,
switching every 10 to 70 seconds as other tenants load the core.  A timer
signal runs a fixed reference computation every ``INTERVAL_S`` while calls
are timed; a call's seconds, minus the time spent in the samples taken during
it, are scaled by ``NOMINAL_S`` over the median sample within ``WINDOW_S`` of
the call.  The result reads as the seconds the call would take at the speed
where the reference takes ``NOMINAL_S``.  The window is short next to the
speed states and long next to a call, so a short call is not corrected by
its own handful of samples alone.  The reference mixes interpreter work with
small NumPy calls; of the candidates tried (a scalar float loop, an imitation
of the kernel's right-hand side, a walk over a large list, this one) it
tracked the workloads' own slowdowns best.
"""
from __future__ import annotations

import signal
import statistics
import time

import numpy as np

#: repetitions of the FFT round trip in one reference sample
REPEATS = 40
#: nominal duration of one reference sample (close to it on a 2 GHz core)
NOMINAL_S = 2e-3
#: sampling period of the reference while calls are timed
INTERVAL_S = 0.05
#: samples this long before a call's start or after its end also set its speed
WINDOW_S = 1.0
_X = np.linspace(0.0, 1.0, 512)


def reference_loop():
    for _ in range(REPEATS):
        y = np.fft.irfft(np.fft.rfft(_X) * 0.5, n=512)
        (y * y + _X) ** 1.5


def reference_s(repeats: int = 5) -> float:
    """Median duration of a few back-to-back reference samples.

    One untimed sample first: a fresh process pays for first-call set-up.
    """
    reference_loop()
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        reference_loop()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


class SpeedClock:
    """Context manager that samples the reference on SIGALRM."""

    def __init__(self):
        self.samples = []       # (start, seconds) of each reference sample

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        reference_loop()
        self.samples.append((t0, time.perf_counter() - t0))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def time(self, fn):
        """Run ``fn()``; return (result, seconds, span).

        The seconds exclude the reference samples taken during the call;
        ``corrected(seconds, span)`` scales them once the samples after the
        call are in.
        """
        k = len(self.samples)
        t0 = time.perf_counter()
        result = fn()
        t1 = time.perf_counter()
        return result, t1 - t0 - sum(d for _, d in self.samples[k:]), (t0, t1)

    def corrected(self, seconds, span):
        t0, t1 = span
        near = [d for t, d in self.samples if t0 - WINDOW_S <= t <= t1 + WINDOW_S]
        ref = statistics.median(near) if near else reference_s()
        return seconds * NOMINAL_S / ref


class RawClock:
    """Plain timing for traced runs, where samples would land in layer spans."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass

    def time(self, fn):
        t0 = time.perf_counter()
        result = fn()
        return result, time.perf_counter() - t0, None

    def corrected(self, seconds, span):
        return seconds

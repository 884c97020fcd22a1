"""Timing corrected for the speed of a shared host.

On the shared host this benchmark was written on, a fixed pure-Python loop
ran 1.6 to 2 times slower while other tenants were busy, in phases of ten
seconds to minutes, so raw wall time varied by a third between runs.  A
``HostClock`` therefore times a short calibration loop (``kernel``) before
and after each measured call and, every ``SAMPLE_INTERVAL_S`` during it, from
a SIGALRM handler in the same thread.  The call's time, minus the time spent
in those samples, is scaled by ``REFERENCE_KERNEL_S`` / (median sample): it
reads as seconds on a host where the kernel takes ``REFERENCE_KERNEL_S``.
"""

import signal
import statistics
from time import perf_counter

# the kernel's time on the reference host (Intel Xeon, 2 vCPUs, Python
# 3.11.7) when no other tenant slows it down
REFERENCE_KERNEL_S = 0.00028
SAMPLE_INTERVAL_S = 0.02


def kernel():
    """Fixed interpreter work of the kind galdescent does: tuple keys, dict
    lookups and modular integer arithmetic."""
    table = {}
    acc = 1
    for i in range(1200):
        key = (i & 31, i % 7)
        acc = (acc * 31 + table.get(key, i)) % 65521
        table[key] = acc
    return acc


def kernel_seconds():
    start = perf_counter()
    kernel()
    return perf_counter() - start


class HostClock:
    """Times calls in reference seconds; use as a context manager, which
    installs the sampling signal handler."""

    def __init__(self):
        self.samples = []       # (start, duration) of each kernel run
        self.raw_seconds = 0.0  # total uncorrected time of the timed calls
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, *_):
        start = perf_counter()
        kernel()
        self.samples.append((start, perf_counter() - start))

    def time(self, call):
        """(result, reference seconds) of ``call()``."""
        self.samples.clear()
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        try:
            start = perf_counter()
            result = call()
            end = perf_counter()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self._sample()
        raw = end - start - sum(d for s, d in self.samples if start <= s < end)
        self.raw_seconds += raw
        speed = statistics.median(d for _, d in self.samples)
        return result, raw * REFERENCE_KERNEL_S / speed

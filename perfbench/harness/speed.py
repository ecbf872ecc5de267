"""The host's speed, sampled while a request runs, and times scaled by it.

The benchmark runs on shared hosts whose vCPUs switch between a fast and
a slow state (about 1.8x apart) from one tenth of a second to the next,
in CPU time as much as in wall time, for every program alike.  Two runs
of the same request differ by a third for that alone.  So the process
being timed also times a fixed pure-Python kernel: once just before,
once just after, and every ``INTERVAL_S`` in between from a SIGALRM
handler, on the vCPU and in the state the request runs in.  A time is
reported at the reference speed: multiplied by ``REFERENCE_S`` over the
kernel's mean time.  The handler's own time is taken out first.  A
change to torusq does not touch the kernel, so it moves the scaled
times as it moves the raw ones; the raw ones are reported beside them.
"""

from __future__ import annotations

import signal
import time

# The kernel's typical time on a 2-vCPU Xeon VM at 2.0 GHz with Python
# 3.11, so that scaled times read close to raw ones there.  Only ratios
# to it matter.
REFERENCE_S = 0.0003
INTERVAL_S = 0.02


def kernel() -> int:
    """A fixed mix of the interpreter work torusq does: small tuples,
    sorting, set and dict lookups, integer arithmetic."""
    seen = set()
    table = {}
    total = 0
    for i in range(100):
        key = tuple((i * k + 3) % 13 for k in range(1, 8))
        if key not in seen:
            seen.add(key)
            table[key] = sorted(key, reverse=True)
        row = table[key]
        total += row[0] * 3 + row[-1] - (i & 7)
    return total


def _timed_kernel() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def scale(seconds: float, kernel_s: float) -> float:
    """``seconds`` measured while the kernel took ``kernel_s``, at the reference speed."""
    return seconds * REFERENCE_S / kernel_s


class Sampler:
    """``with Sampler() as s:`` times its body (``s.elapsed``, without the
    handler's time) and samples the kernel around and within it
    (``s.kernel_s``, the mean)."""

    def __enter__(self):
        kernel()  # takes the page faults a fork leaves, untimed
        self.samples = [_timed_kernel()]
        self.handler_s = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self.start = time.perf_counter()
        return self

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(_timed_kernel())
        self.handler_s += time.perf_counter() - start

    def __exit__(self, *exc):
        end = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.elapsed = end - self.start - self.handler_s
        self.samples.append(_timed_kernel())
        self.kernel_s = sum(self.samples) / len(self.samples)
        return False

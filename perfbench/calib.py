"""Host-speed calibration of the benchmark's timings.

On a shared host the speed of one core drifts with its neighbours' load:
the same request list, in one process, ran 30-70% slower for a minute at
a time, and a bare integer loop slowed with it. Such drift is no property
of the engine, yet it swamps the change a later commit makes.

So every pass times a fixed integer loop (the kernel) every CAL_EVERY_S
seconds, between requests, and once at its end. Each request's time is
multiplied by REF_KERNEL_S over the mean of the kernel samples taken just
before and just after it, giving its time at reference speed: the speed at
which the kernel takes REF_KERNEL_S. A faster engine still shows as a
shorter time, since the kernel does not touch the engine; a slower or
faster host does not. The raw times are printed and recorded beside the
scaled ones.
"""

from __future__ import annotations

import bisect
import time

KERNEL_N = 20000
REF_KERNEL_S = 1.5e-3  # the kernel's time at reference speed
# The host's speed moves within a second, so sample often: the kernel then
# costs about 3% of a pass, and its time is left out of the pass's times.
CAL_EVERY_S = 0.05


def kernel() -> int:
    s = 0
    for i in range(KERNEL_N):
        s += i * i
    return s


def time_kernel() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def warm_up(n: int = 20) -> None:
    for _ in range(n):
        kernel()


class Pace:
    """Kernel times sampled at positions of a sequence of timed steps."""

    def __init__(self):
        self.at = []  # step index the sample was taken before
        self.k = []  # kernel seconds

    def sample(self, step: int) -> float:
        k = time_kernel()
        self.at.append(step)
        self.k.append(k)
        return k

    def scale(self, times) -> list:
        """Each step's time at reference speed, from the samples taken just
        before and just after it (the one before alone, if none follows)."""
        if not self.k:
            raise ValueError("no kernel sample taken")
        last = len(self.k) - 1
        out = []
        for i, t in enumerate(times):
            j = max(bisect.bisect_right(self.at, i) - 1, 0)
            near = (self.k[j] + self.k[min(j + 1, last)]) / 2
            out.append(t * REF_KERNEL_S / near)
        return out

"""The reference loop: a fixed piece of pure-Python work, owned by the
benchmark, that measures how fast the machine runs Python at the moment.

The benchmark runs on a shared host whose speed for the same work swings by
up to 1.5x within minutes, as neighbours load the host's caches and memory
(it is not CPU steal: the guest reports almost none).  Within the same few
milliseconds that slowdown hits the program and this loop alike.  While a
``Sampler`` is on, a timer interrupts the program every INTERVAL_S and runs
a short slice of this loop; the slices' own time is taken out of every
timed region, and their speed during the region is its yardstick.  The
metrics with unit ``ref`` are program times divided by the time of one
pass of the loop measured during them: the cost of the program in
reference passes.  A change to the program moves them; the host's load
moves both sides and cancels.  One pass takes about 0.3 ms on the 2-core
2.1 GHz Xeon this was written on.

The loop never changes with the program: it imports nothing from it.
"""

from __future__ import annotations

import gc
import signal
from bisect import bisect_left, bisect_right
from statistics import mean
from time import perf_counter

#: Reference passes per slice (about 1.2 ms) and wall time between slices.
SLICE_PASSES = 4
INTERVAL_S = 0.02


def one_pass() -> int:
    """Dict, tuple, set and int work of the kind the program does."""
    d: dict = {}
    for i in range(300):
        t = (i, i * 7 % 13, i ^ 5)
        d[t] = d.get(t[1:], 0) + 1
        d[t[1:]] = len(d)
    s = sorted(d.items(), key=lambda kv: kv[1])
    big = 1
    for k, v in s[:60]:
        big = big * (v + 2) % 1_000_000_007 + k[0]
    return len(frozenset(k for k, v in s if v & 1)) + big


class Sampler:
    """While on (``with sampler:``), runs a reference slice every
    INTERVAL_S of wall time from a SIGALRM handler, and one slice on
    entering and leaving.  Slices are recorded as (start, end) pairs, in
    order and disjoint.  Only one sampler may be on at a time."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._old = None

    def slice(self, *_) -> None:
        """SLICE_PASSES passes with the garbage collector off, so that a
        collection of the program's heap never lands in a slice."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = perf_counter()
            for _ in range(SLICE_PASSES):
                one_pass()
            self.starts.append(t0)
            self.ends.append(perf_counter())
        finally:
            if enabled:
                gc.enable()

    def __enter__(self):
        self.slice()
        self._old = signal.signal(signal.SIGALRM, self.slice)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self.slice()

    def _inside(self, t0: float, t1: float) -> tuple[int, int]:
        """Indices [i, j) of the slices wholly inside [t0, t1]."""
        return bisect_left(self.starts, t0), bisect_right(self.ends, t1)

    def net(self, t0: float, t1: float) -> float:
        """Seconds of [t0, t1] not spent in reference slices."""
        i, j = self._inside(t0, t1)
        return (t1 - t0) - sum(self.ends[k] - self.starts[k] for k in range(i, j))

    def pass_s(self, t0: float, t1: float) -> float:
        """Seconds per reference pass during [t0, t1]: the mean over the
        slices inside it without the fastest and slowest tenth, or the mean
        of the slice before and the slice after it when none is."""
        i, j = self._inside(t0, t1)
        if j <= i:
            i, j = max(i - 1, 0), min(i + 1, len(self.starts))
        d = sorted(self.ends[k] - self.starts[k] for k in range(i, j))
        trim = len(d) // 10
        return mean(d[trim : len(d) - trim]) / SLICE_PASSES

    def cost(self, t0: float, t1: float) -> float:
        """The region [t0, t1] in reference passes, its slices taken out."""
        return self.net(t0, t1) / self.pass_s(t0, t1)

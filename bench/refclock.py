"""Reference clock for the end-to-end timings.

On a shared host the CPU speed of this process drifts, by up to 2.5x within
minutes, as other tenants come and go. Raw timings of the same code then
move far beyond any useful regression bound. So every end-to-end time is
reported in reference seconds: the raw duration times REF_KERNEL_S / k,
where k is the mean time a fixed kernel took just before and just after
the measured interval. On a machine where the kernel takes REF_KERNEL_S,
reference time and raw time agree. The kernel does not touch toricvol, so a
change to the package cannot move it. Raw times are reported next to the
reference times in the run's detail line.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from time import perf_counter

REF_KERNEL_S = 0.0005


def kernel() -> tuple[int, int, int, int]:
    """Fixed interpreter work of the package's kind.

    Calls, tuples, dicts, sets, int arithmetic, Fractions and str formatting.
    """
    acc = 0
    d: dict = {}
    s: set = set()
    out: list[str] = []
    for i in range(400):
        t = (i, (i * 7) % 13)
        d[t] = acc
        s.add(t[1])
        acc += t[0] * t[1] - (acc >> 3)
        if i % 8 == 0:
            out.append(str(Fraction(acc % 97 + 1, i + 1)))
    out.sort()
    return acc, len(d), len(s), len(out)


def kernel_seconds() -> float:
    """Time of two kernel calls, with the collector off so heap state cannot move it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        kernel()
        kernel()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class ReferenceClock:
    """Converts raw durations to reference seconds, by the kernel times around them."""

    def __init__(self):
        self.kernel_samples = [kernel_seconds()]

    def scale(self, raw: list[float]) -> list[float]:
        """Reference durations of `raw`, measured since the previous call."""
        before = self.kernel_samples[-1]
        after = kernel_seconds()
        self.kernel_samples.append(after)
        factor = REF_KERNEL_S / ((before + after) / 2)
        return [x * factor for x in raw]

"""Reference computations that measure how fast the host runs right now.

Shared hosts change speed by tens of percent from one second to the next,
and every request slows down with them.  The benchmark samples a fixed
reference between requests and scales each request's time by
nominal / (median of the reference samples taken around it, within
WINDOW_NS or the request's own duration, whichever is longer):
that is, to what it would read on a host that runs the reference in the
nominal time.  No reference touches `dualpair`, so no change to the
library moves them.

* `compute_reference_ns` mixes small-int elliptic-curve arithmetic
  (interpreter and allocation bound, like the desk sizes) with 256-bit
  arithmetic (big-int bound, like crypto-256).  It scales in-process work.
* A cli workload samples `python -c pass` instead, because process start
  drifts with the host's kernel and page-cache load, which pure Python
  arithmetic does not see.
"""

from __future__ import annotations

import bisect
import statistics
import time

import ecint

COMPUTE_NOMINAL_MS = 1.5
WINDOW_NS = 1_000_000_000

_SMALL_P = 1_000_003
_BIG_P = 2**255 - 19


def _point(p: int):
    x = 5
    while ecint.sqrt_mod(x**3 + 2 * x + 3, p) is None:
        x += 1
    return x, ecint.sqrt_mod(x**3 + 2 * x + 3, p)


_SMALL_G = _point(_SMALL_P)
_BIG_G = _point(_BIG_P)


def compute_reference_ns() -> int:
    """Wall time of one fixed piece of plain-int elliptic-curve arithmetic."""
    t0 = time.perf_counter_ns()
    for k in range(16):
        ecint.mul(0xB5A3D + k, _SMALL_G, 2, _SMALL_P)
    ecint.mul(0xD1CE5, _BIG_G, 2, _BIG_P)
    return time.perf_counter_ns() - t0


class Speedometer:
    """Reference samples over time, and the local scale factor they give."""

    def __init__(self, reference, nominal_ms: float, every_ns: int):
        self.reference = reference
        self.nominal_ns = nominal_ms * 1e6
        self.every_ns = every_ns
        self.at: list[int] = []  # sample times, increasing
        self.ns: list[int] = []  # sample values

    def sample(self) -> None:
        self.at.append(time.perf_counter_ns())
        self.ns.append(self.reference())

    def sample_if_due(self) -> None:
        if not self.at or time.perf_counter_ns() - self.at[-1] >= self.every_ns:
            self.sample()

    def scale(self, start: int, end: int) -> float:
        """nominal / median reference over [start - w, end + w], w = max(WINDOW_NS, end - start)."""
        w = max(WINDOW_NS, end - start)
        lo = bisect.bisect_left(self.at, start - w)
        hi = bisect.bisect_right(self.at, end + w)
        if lo == hi:  # no sample that close: take the nearest one
            lo = max(0, min(lo, len(self.at) - 1))
            hi = lo + 1
        return self.nominal_ns / statistics.median(self.ns[lo:hi])

    def median_ms(self) -> float:
        return statistics.median(self.ns) / 1e6

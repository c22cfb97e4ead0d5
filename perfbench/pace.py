"""Host-pace correction for wall times.

The benchmark runs on shared hosts where the speed of pure-Python code
swings by up to 1.6x within seconds, as other tenants load the sibling
hardware thread; CPU time swings with it, so it is no refuge.  Between ops
the measurement loop times a fixed reference computation: small row
reductions over F_7 and over the rationals, written here so that it never
changes with the package under test.  Each op's wall time is then scaled by
``REFERENCE_S / r``, where ``r`` is the reference time measured around the
op.  The reported times are wall times at a fixed reference pace: the pace
at which the reference takes ``REFERENCE_S``.  On an idle host of the kind
the constant was taken on, they equal plain wall times.

The raw wall times are reported beside the corrected ones in each run's
detail line.
"""

from __future__ import annotations

import statistics
import time
from array import array
from bisect import bisect_left, bisect_right
from fractions import Fraction

# The reference's time at the fast end of its range on a 2-vCPU Intel Xeon
# host under CPython 3.11 (about the 5th percentile of 600 timings).
REFERENCE_S = 0.0007
# Reference timings are taken between ops at most this often.
INTERVAL_S = 0.05

_FP_ROWS = tuple(
    tuple((i * i * j + 3 * j + i) % 7 for j in range(10)) for i in range(10)
)
_Q_ROWS = tuple(
    tuple(Fraction((i * j) % 5 - 2, 1 + (i + j) % 3) for j in range(5)) for i in range(5)
)


def _rref(rows, p=None):
    rows = [list(r) for r in rows]
    n, m, r = len(rows), len(rows[0]), 0
    for c in range(m):
        piv = next((i for i in range(r, n) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        if p:
            inv = pow(rows[r][c], p - 2, p)
            rows[r] = [(inv * x) % p for x in rows[r]]
        else:
            inv = 1 / rows[r][c]
            rows[r] = [inv * x for x in rows[r]]
        prow = rows[r]
        for i in range(n):
            t = rows[i][c]
            if i != r and t:
                if p:
                    rows[i] = [(x - t * y) % p for x, y in zip(rows[i], prow)]
                else:
                    rows[i] = [x - t * y for x, y in zip(rows[i], prow)]
        r += 1
    return tuple(map(tuple, rows))


def reference():
    """About a millisecond of the package's kind of work: list-comprehension
    row operations mod p, tuple building, dict lookups and Fractions."""
    seen = {}
    for k in range(6):
        seen[_rref(_FP_ROWS, 7)] = k
    seen[_rref(_Q_ROWS)] = 6
    return seen


class Pace:
    """Reference timings along the run, and the factors they imply."""

    def __init__(self):
        self.at = array("d")
        self.took = array("d")
        self._last = float("-inf")
        self.clock = time.perf_counter

    def sample(self):
        t0 = self.clock()
        reference()
        t1 = self.clock()
        self.at.append(t0)
        self.took.append(t1 - t0)
        self._last = t1

    def maybe_sample(self):
        if self.clock() - self._last >= INTERVAL_S:
            self.sample()

    def factor(self, start, end):
        """REFERENCE_S over the median reference time from one sample
        before the last one preceding ``start`` to one after the first one
        following ``end``."""
        at = self.at
        lo = max(0, bisect_right(at, start) - 2)
        hi = min(len(at), bisect_left(at, end) + 2)
        return REFERENCE_S / statistics.median(self.took[lo:hi])

"""Host-speed normalization of measured times.

A shared host runs this benchmark at speeds that drift by up to about 1.8x
within seconds, as other tenants load the cores.  A fixed reference job,
run between ops, reads that speed.  It does the package's two kinds of
work, Fraction polynomial arithmetic and integer pseudo-remainder
sequences, in plain Python, and calls nothing of the package, so a change
to the program does not change it.  An op's normalized time is its
measured time times REF_NOMINAL_S over the reference job's time around the
op: the op's time on a host where the reference job takes REF_NOMINAL_S.
On a 2-core shared host, ten seeded runs of each workload gave quartile
spreads of 0.04-0.10 of the median for normalized times and 0.08-0.23 for
the measured ones.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time
from fractions import Fraction

REF_NOMINAL_S = 0.020  # the reference job's time that normalized times are expressed at
REF_EVERY_S = 0.2  # op time between two reference jobs
REF_NEIGHBOURS = 3  # reference jobs on each side of an op that judge its host speed

_A = [Fraction(i * 7 % 13 - 6, i % 5 + 1) for i in range(45)]
_B = [Fraction(i * 5 % 11 - 5, i % 3 + 1) for i in range(30)]
_P = [i * 37 % 23 - 11 for i in range(46)] + [1]
_Q = [i * 29 % 19 - 9 for i in range(39)] + [3]


def _fraction_job() -> list:
    """Dense product of two Fraction polynomials, then its remainder by the second."""
    prod = [Fraction(0)] * (len(_A) + len(_B) - 1)
    for i, x in enumerate(_A):
        for j, y in enumerate(_B):
            prod[i + j] += x * y
    for i in reversed(range(len(prod) - len(_B) + 1)):
        c = prod[i + len(_B) - 1] / _B[-1]
        for j, y in enumerate(_B):
            prod[i + j] -= c * y
    return prod


def _integer_job() -> list:
    """Primitive pseudo-remainder sequence of two integer polynomials (lowest degree first)."""
    a, b = _P, _Q
    while len(b) > 1:
        r = list(a)
        while len(r) >= len(b):
            c, shift = r[-1], len(r) - len(b)
            r = [x * b[-1] for x in r]
            for j, y in enumerate(b):
                r[shift + j] -= c * y
            while r and r[-1] == 0:
                r.pop()
        if not r:
            break
        g = 0
        for x in r:
            g = math.gcd(g, x)
        a, b = b, [x // g for x in r]
    return b


def reference_job() -> None:
    """The package's two kinds of work: Fraction polynomial arithmetic and integer PRS gcds."""
    _fraction_job()
    for _ in range(6):
        _integer_job()


def reference_time() -> float:
    t0 = time.perf_counter()
    reference_job()
    return time.perf_counter() - t0


def normalize(seconds: float, refs: "list[float]") -> float:
    """A time measured while the reference job took median(refs), at REF_NOMINAL_S."""
    return seconds * REF_NOMINAL_S / statistics.median(refs)


class HostClock:
    """Reference-job times along a run, to normalize the op times around them."""

    def __init__(self):
        self.at: list = []  # index of the op each reference job precedes
        self.ref: list = []  # reference-job times, s
        reference_job()  # not measured: first call

    def sample(self, before_op: int) -> None:
        self.ref.append(reference_time())
        self.at.append(before_op)

    def local(self, op: int) -> float:
        k = bisect.bisect_right(self.at, op)  # reference jobs [0, k) precede the op
        return statistics.median(self.ref[max(0, k - REF_NEIGHBOURS) : k + REF_NEIGHBOURS])

    def normalized(self, latencies: "list[float]") -> "list[float]":
        return [normalize(x, [self.local(i)]) for i, x in enumerate(latencies)]

    def summary(self) -> dict:
        return {
            "reference_jobs": len(self.ref),
            "nominal_ms": REF_NOMINAL_S * 1e3,
            "min_ms": min(self.ref) * 1e3,
            "median_ms": statistics.median(self.ref) * 1e3,
            "max_ms": max(self.ref) * 1e3,
        }

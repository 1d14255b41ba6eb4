"""Exact linear algebra over the rationals.

Ranks take Fraction or int entries: they clear each row's denominators in
integer arithmetic, skipping zeros, and hand the int rows to the kernel's
fraction-free elimination (``kernel.bareiss_rank``), which touches only the
rows each pivot changes; sparse slice matrices rank in time proportional
to that fill.  Independence certificates (``pivots_or_relation``) take int
rows and stay in integer arithmetic throughout.
"""

from __future__ import annotations

import math
from typing import Sequence

from . import kernel


def _cleared_int_rows(rows: Sequence[Sequence]) -> "list[list[int]]":
    """Each row times the lcm of its denominators, as ints; entries may be ints."""
    out = []
    for row in rows:
        den = math.lcm(*(x.denominator for x in row if x))
        out.append([x.numerator * (den // x.denominator) if x else 0 for x in row])
    return out


def rank(rows: Sequence[Sequence]) -> int:
    """Exact rank via fraction-free elimination in the integer kernel."""
    if not rows:
        return 0
    return kernel.bareiss_rank(_cleared_int_rows(rows))


def pivots_or_relation(rows: Sequence[Sequence[int]]) -> "tuple[bool, list[int]]":
    """(True, pivot columns) for independent int rows, else (False, relation).

    Rows are taken in order and each is reduced, fraction-free, against the
    echelon rows kept so far, oldest first, carrying its integer combination
    of the input rows along.  Each kept row is zero at the leading columns
    of the rows kept before it, so a reduced row is zero at all of them: a
    row that survives brings a new leading column, and the leading columns
    are those of the row space, the pivot columns of its reduced echelon
    form, returned in increasing order.  A row that vanishes lies in the
    span of the rows before it, which are independent, so its combination
    is their unique relation up to scale; it is returned primitive, with
    its first nonzero entry positive.
    """
    n = len(rows)
    # (leading column, reduced row, its combination of the input rows)
    echelon: "list[tuple[int, list[int], list[int]]]" = []
    for i, row in enumerate(rows):
        r = list(row)
        comb = [int(j == i) for j in range(n)]
        for lead, e, ecomb in echelon:
            h = r[lead]
            if h:
                g = math.gcd(e[lead], h)
                a, b = e[lead] // g, h // g
                r = [a * x - b * y for x, y in zip(r, e)]
                comb = [a * x - b * y for x, y in zip(comb, ecomb)]
        lead = next((c for c, x in enumerate(r) if x), None)
        if lead is None:
            g = math.gcd(*comb)
            if next(x for x in comb if x) < 0:
                g = -g
            return False, [x // g for x in comb]
        g = math.gcd(*r, *comb)
        echelon.append((lead, [x // g for x in r], [x // g for x in comb]))
    return True, sorted(lead for lead, _, _ in echelon)

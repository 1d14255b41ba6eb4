"""Exact linear algebra over the rationals.

Ranks and row bases hand their rows, unchanged, to the kernel's
fraction-free elimination (``kernel.bareiss_rank``, ``kernel.pivot_rows``).
A row is a map from column index to int, as slices build them, or a dense
list of Fraction or int entries; the kernel clears a dense row's
denominators as it reads the row and touches only the rows each pivot
changes, so sparse slice matrices rank in time proportional to that fill.
Independence certificates (``pivots_or_relation``) take int rows and stay
in integer arithmetic throughout.
"""

from __future__ import annotations

import math
from typing import Sequence

from . import kernel


def rank(rows: Sequence) -> int:
    """Exact rank via fraction-free elimination in the integer kernel."""
    return kernel.bareiss_rank(rows)


def row_basis(rows: Sequence) -> "list[dict[int, int]]":
    """Independent int rows, as maps from column to entry, spanning `rows` over Q.

    They are the kernel elimination's pivot rows, so there are rank(rows)
    of them, and the rank of any rows together with them equals the rank of
    those rows together with `rows`.
    """
    return kernel.pivot_rows(rows)


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

"""Exact linear algebra over the rationals.

Ranks and independence certificates run on one elimination, the kernel's
fraction-free ``kernel.pivot_rows`` (``kernel.bareiss_rank`` counts its
pivot rows).  A row is a map from column index to int, as slices build
them, or a dense list of Fraction or int entries; the kernel clears a dense
row's denominators as it reads the row and touches only the rows each pivot
changes, so sparse slice matrices rank in time proportional to that fill.
``pivots_or_relation`` appends a unit tail to each int row, so the pivot
rows that vanish on the rows' own columns carry integer relations.
"""

from __future__ import annotations

import math
from typing import Sequence

from . import kernel


def rank(rows: Sequence) -> int:
    """Exact rank via fraction-free elimination in the integer kernel."""
    return kernel.bareiss_rank(rows)


def pivots_or_relation(rows: Sequence[Sequence[int]]) -> "tuple[bool, list[int]]":
    """(True, pivot columns) for independent int rows, else (False, relation).

    Row i of n rows of width w is eliminated with a unit entry appended at
    column w + n - 1 - i, so every pivot row is some combination of the
    input rows that carries its coefficients in that tail.  Pivot rows
    leading left of w lead at the pivot columns of the rows' reduced echelon
    form, returned in increasing order; the rows are independent when there
    are n of them.  A pivot row leading at or past w is zero on the first w
    columns, so its tail is a relation, and the one leading furthest right
    involves only the rows up to the first one in the span of those before
    it.  Those earlier rows are independent, so that relation is unique up
    to scale; it is returned primitive, with its first nonzero entry positive.
    """
    n = len(rows)
    w = max(map(len, rows), default=0)
    tail = w + n - 1
    pivots = kernel.pivot_rows(
        [{**{c: x for c, x in enumerate(row) if x}, tail - i: 1} for i, row in enumerate(rows)]
    )
    if not pivots or min(pivots[-1]) < w:
        return True, [min(p) for p in pivots]
    relation = [pivots[-1].get(tail - i, 0) for i in range(n)]
    g = math.gcd(*relation)
    if next(x for x in relation if x) < 0:
        g = -g
    return False, [x // g for x in relation]

"""Exact linear algebra over the rationals.

Entries are Fractions or ints.  Ranks clear each row's denominators in
integer arithmetic, skipping zeros, and hand the int rows to the kernel's
fraction-free elimination (``kernel.bareiss_rank``), which touches only the
rows each pivot changes; sparse slice matrices rank in time proportional
to that fill.  Reduced row echelon form and null spaces stay in Fraction
arithmetic (they are only used on small certificate matrices).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Sequence

from . import kernel

Row = List[Fraction]


def _cleared_int_rows(rows: Sequence[Sequence[Fraction]]) -> "list[list[int]]":
    """Each row times the lcm of its denominators, as ints; entries may be ints."""
    out = []
    for row in rows:
        den = math.lcm(*(x.denominator for x in row if x))
        out.append([x.numerator * (den // x.denominator) if x else 0 for x in row])
    return out


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Exact rank via fraction-free elimination in the integer kernel."""
    if not rows:
        return 0
    return kernel.bareiss_rank(_cleared_int_rows(rows))


def rref(rows: Sequence[Sequence[Fraction]]) -> "tuple[list[Row], list[int]]":
    """Reduced row echelon form and pivot column indices."""
    m = [[Fraction(x) for x in row] for row in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    pivots: "list[int]" = []
    pr = 0
    for pc in range(nc):
        piv = next((r for r in range(pr, nr) if m[r][pc] != 0), None)
        if piv is None:
            continue
        m[pr], m[piv] = m[piv], m[pr]
        inv = Fraction(1) / m[pr][pc]
        m[pr] = [x * inv for x in m[pr]]
        for r in range(nr):
            if r != pr and m[r][pc] != 0:
                factor = m[r][pc]
                m[r] = [x - factor * y for x, y in zip(m[r], m[pr])]
        pivots.append(pc)
        pr += 1
        if pr == nr:
            break
    return m, pivots


def nullspace(rows: Sequence[Sequence[Fraction]], ncols: int) -> "list[Row]":
    """Basis of the right null space, one vector per free column."""
    if not rows:
        return [[Fraction(i == j) for j in range(ncols)] for i in range(ncols)]
    m, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][fc]
        basis.append(v)
    return basis


def left_nullspace(rows: Sequence[Sequence[Fraction]]) -> "list[Row]":
    """Basis of vectors w with w . rows = 0."""
    nr = len(rows)
    transposed = [[Fraction(rows[r][c]) for r in range(nr)] for c in range(len(rows[0]))] if nr else []
    return nullspace(transposed, nr)


def primitive_integer_vector(v: Sequence[Fraction]) -> "list[int]":
    """Scale a nonzero rational vector to coprime ints, first nonzero entry positive."""
    den = 1
    for x in v:
        f = Fraction(x)
        den = den * f.denominator // math.gcd(den, f.denominator)
    ints = [int(Fraction(x) * den) for x in v]
    g = 0
    for x in ints:
        g = math.gcd(g, x)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    ints = [x // g for x in ints]
    lead = next(x for x in ints if x)
    if lead < 0:
        ints = [-x for x in ints]
    return ints

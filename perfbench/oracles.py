"""Independent answers from sympy for sampled benchmark ops.

These run after the timed region.  sympy shares no code with the package,
so agreement is evidence that the package's answer is right, not just
repeatable.
"""

from __future__ import annotations

from functools import reduce

import sympy

Z = sympy.Symbol("z")
POINTS = (sympy.Rational(7, 3), sympy.Rational(-5, 2), sympy.Integer(11), sympy.Rational(13, 17))


def _expr(text: str):
    return sympy.sympify(text.replace("^", "**"))


def _reduced_max_degree(entries) -> int:
    """Max degree of a projective polynomial vector after dividing out its gcd."""
    nonzero = [e for e in entries if e != 0]
    g = reduce(sympy.gcd, nonzero)
    return max(sympy.degree(sympy.cancel(e / g), Z) for e in nonzero)


def sweep_degree(F: str, G: str, bases, k: int, track: str) -> int:
    """deg gcd of the numerators of F(g^k), G(g^k) (track n), or the gcd characteristic (track t)."""
    xs = sympy.symbols(f"x1:{len(bases) + 1}")
    sub = {x: _expr(g) ** k for x, g in zip(xs, bases)}
    nf, df = sympy.fraction(sympy.cancel(_expr(F).subs(sub)))
    ng, dg = sympy.fraction(sympy.cancel(_expr(G).subs(sub)))
    if track == "n":
        return int(sympy.degree(sympy.gcd(nf, ng), Z))
    den = sympy.lcm(df, dg)
    entries = [den, sympy.cancel(nf * den / df), sympy.cancel(ng * den / dg)]
    return int(_reduced_max_degree(entries) - _reduced_max_degree(entries[1:]))


def wronskian_matches(fs, w: str) -> bool:
    """Whether w agrees with det(d^j f_i / dz^j) at exact rational points.

    Expanding the symbolic determinant takes sympy minutes at M = 5, so the
    matrix is evaluated first: two rational functions of this size that
    agree at several points off their poles are equal with overwhelming
    likelihood, and a disagreement is always a real one.
    """
    rows = [[_expr(f) for f in fs]]
    for _ in range(len(fs) - 1):
        rows.append([sympy.diff(e, Z) for e in rows[-1]])
    w = _expr(w)
    checked = 0
    for z0 in POINTS:
        values = [[e.subs(Z, z0) for e in row] for row in rows]
        expected = w.subs(Z, z0)
        if any(not v.is_finite for v in [expected, *sum(values, [])]):
            continue
        if sympy.Matrix(values).det() != expected:
            return False
        checked += 1
    return checked >= 2


def _multiplicity(poly, place) -> int:
    p, q, e = sympy.Poly(poly, Z), sympy.Poly(place, Z), 0
    while True:
        quo, rem = sympy.div(p, q)
        if not rem.is_zero:
            return e
        p, e = quo, e + 1


def _vplus(expr, place) -> int:
    num, den = sympy.fraction(sympy.cancel(expr))
    return max(0, _multiplicity(num, place) - _multiplicity(den, place))


def ordw_sides(fs, w: str, place: str) -> "tuple[int, int]":
    """(sum_j v+(f_j) - M(M-1)/2, v+(w)) at a finite place, by sympy division."""
    pl = _expr(place)
    M = len(fs)
    lhs = sum(_vplus(_expr(f), pl) for f in fs) - M * (M - 1) // 2
    return lhs, _vplus(_expr(w), pl)


def rank_of(term_maps) -> int:
    """Rank over Q of polynomials given as {exponent: coefficient} maps."""
    columns = sorted({e for t in term_maps for e in t})
    index = {e: i for i, e in enumerate(columns)}
    rows = [[0] * len(columns) for _ in term_maps]
    for row, terms in zip(rows, term_maps):
        for e, c in terms.items():
            row[index[e]] = sympy.Rational(c.numerator, c.denominator)
    return sympy.Matrix(rows).rank()

"""Wronskians of rational tuples and the two local inequality checks.

The Wronskian of (f_1, ..., f_M) is det(d^j f_i / dz^j), with the
derivatives reduced rational functions.  Column i is cleared by q_i^M, q_i
the denominator of f_i: each entry's denominator divides q_i^M, so its
cell is its numerator times the exact quotient q_i^M / den, with no gcd.
The determinant scales each column of that polynomial matrix to integer
coefficients and runs fraction-free (Bareiss) elimination on integer
polynomials, where every division is exact; the column scales and the
product of the q_i^M are divided back out in one reduction.  W is built
and formatted once per tuple: a memo of the last tuple holds W and its
text for ordw_check at every place of it.

The local checks are exact valuation inequalities at one place:
  ordw_check:  sum_j v+(eta_j) - M(M-1)/2  <=  v+(W(eta))
  bs_check:    the basis-slice counting inequality for a coprime pair
               F, G composed with zero-free polynomial tuples.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

from . import kernel
from .errors import HypothesisError
from .idealslice import binom, build_basis_slice, slice_constants
from .multipoly import MultiPoly, evaluate_poly
from .ordering import Weight
from .ratfunc import Place, RationalFunction, format_ratfunc, place_multiplicity, valuation
from .unipoly import UniPoly, _canon, exact_div, format_unipoly, uni_gcd_cofactors, uni_gcd_list


def _poly_det(m: "list[list[UniPoly]]") -> UniPoly:
    """Determinant of a square polynomial matrix by fraction-free elimination.

    Column j is multiplied by the lcm s_j of its denominators, so Bareiss
    elimination runs on integer polynomials, and det(m) is the result over
    the product of the s_j.  By Sylvester's identity every Bareiss quotient
    is an integer polynomial; a step that leaves a remainder raises.
    """
    n = len(m)
    scales = [math.lcm(*(row[j].den for row in m)) for j in range(n)]
    a = [[[x * (s // p.den) for x in p.ints] for p, s in zip(row, scales)] for row in m]
    sign = 1
    prev = [1]
    for c in range(n - 1):
        piv = next((r for r in range(c, n) if a[r][c]), None)
        if piv is None:
            return UniPoly()
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            sign = -sign
        top = a[c]
        for row in a[c + 1 :]:
            for j in range(c + 1, n):
                cell = _sub(kernel.mul(top[c], row[j]), kernel.mul(row[c], top[j]))
                quot = kernel.exact_quotient(cell, prev)
                if quot is None:
                    raise ArithmeticError("Bareiss step left a remainder")
                row[j] = quot
        prev = top[c]
    return _canon(a[n - 1][n - 1], sign * math.prod(scales))


def _sub(a: "list[int]", b: "list[int]") -> "list[int]":
    out = a + [0] * (len(b) - len(a))
    for i, y in enumerate(b):
        out[i] -= y
    return kernel.normalize(out)


def _derivative_rows(fs: Sequence[RationalFunction]) -> "list[list[RationalFunction]]":
    rows = [list(fs)]
    for _ in range(len(fs) - 1):
        rows.append([f.derivative() for f in rows[-1]])
    return rows


def wronskian(fs: Sequence[RationalFunction]) -> RationalFunction:
    """W(f_1, ..., f_M); zero exactly when the tuple is linearly dependent."""
    if not fs:
        raise ValueError("need at least one function")
    return _wronskian(tuple(fs))[0]


@functools.lru_cache(maxsize=1)
def _wronskian(fs: "tuple[RationalFunction, ...]") -> "tuple[RationalFunction, str]":
    # (W, W's text) for one tuple only: ordw_check at every place of a
    # tuple builds and formats W once, and no W outlives the next tuple.
    # The key compares exactly by value and W is immutable, so a hit is
    # what a rebuild would return.
    M = len(fs)
    rows = _derivative_rows(fs)
    # clear column i by q_i^M: every entry d^j f_i has denominator dividing
    # q_i^(j+1) with j+1 <= M, so each cell is a polynomial
    clear = [f.den**M for f in fs]
    poly_m = [
        [entry.num * exact_div(c, entry.den) for entry, c in zip(row, clear)]
        for row in rows
    ]
    W = RationalFunction(_poly_det(poly_m), math.prod(clear, start=UniPoly.constant(1)))
    return W, format_ratfunc(W)


def _vplus(f: RationalFunction, pl: Place) -> int:
    return max(0, valuation(f, pl))


@dataclass(frozen=True)
class LocalCheckReport:
    """One exact local inequality: pass iff lhs <= rhs at the place."""

    check: str
    place: Place
    lhs: int
    rhs: int
    passed: bool
    vacuous: bool = False
    info: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "check": self.check,
            "place": str(self.place),
            "lhs": self.lhs,
            "rhs": self.rhs,
            "passed": self.passed,
            "vacuous": self.vacuous,
            "info": self.info,
        }


def ordw_check(etas: Sequence[RationalFunction], pl: Place) -> LocalCheckReport:
    """Check sum_j v+(eta_j) - M(M-1)/2 <= v+(W) at one place.

    Linearly dependent tuples have W = 0; the inequality says nothing there
    and the report is marked vacuous (and passing).
    """
    M = len(etas)
    if M == 0:
        raise ValueError("need at least one function")
    for j, f in enumerate(etas):
        if f.is_zero():
            raise HypothesisError("local data of the zero function", {"index": j, "eta": "0"})
    lhs = sum(_vplus(f, pl) for f in etas) - M * (M - 1) // 2
    W, text = _wronskian(tuple(etas))
    vacuous = W.is_zero()
    rhs = 0 if vacuous else _vplus(W, pl)
    return LocalCheckReport(
        check="ordw",
        place=pl,
        lhs=lhs,
        rhs=rhs,
        passed=vacuous or lhs <= rhs,
        vacuous=vacuous,
        info={"wronskian": text, "M": M},
    )


def bs_check(
    F: MultiPoly,
    G: MultiPoly,
    m: int,
    gs: Sequence[UniPoly],
    pl: Place,
) -> LocalCheckReport:
    """The local counting inequality over a degree-m slice at a finite place.

    With u_i = v_pl(g_i) and the slice family B built for the weight order
    induced by u, h = gcd(F(g), G(g)) and eta_j = B_j(g)/h:

        c * sum_i v+(g_i)  -  C(m+n-2d, n) * min_{i in I} u . i
            <=  sum_j v+(eta_j)

    where I indexes the monomials of F and G.  Hypothesis violations (shared
    factors, common zeros of the g's, vanishing compositions, the place at
    infinity) are rejected with certificates rather than checked around.

    Each slice element is a generator times a monomial, B_j = F_s x^i, so
    eta_j = (F_s(g)/h) g^i and v(eta_j) = a_s + u . i by additivity, with
    a_s = v(F_s(g)/h) >= 0 since h divides F_s(g).  The sum therefore takes
    two valuations and integer dot products.  It rejects exactly what
    valuing each eta_j would: a valuation is rejected when the irreducible
    factors of the place divide its argument to different powers; each g_k
    passed that test when u was read, so multiplying by g^i shifts every
    factor's order by the same u . i, and both families are nonempty.
    """
    if pl.is_infinite():
        raise HypothesisError("the local inequality is checked at finite places")
    nvars = F.nvars
    n = nvars - 1
    if len(gs) != nvars:
        raise HypothesisError(
            "need one polynomial per variable", {"nvars": nvars, "given": len(gs)}
        )
    for g in gs:
        if g.is_zero():
            raise HypothesisError("base polynomials must be nonzero")
    common = uni_gcd_list(list(gs))
    if common.degree > 0:
        raise HypothesisError(
            "base polynomials must have no common zero",
            {"common_factor": format_unipoly(common)},
        )
    u = tuple(place_multiplicity(g, pl.poly) for g in gs)
    order = Weight(u)
    s = build_basis_slice(F, G, m, order)
    d = s.d
    consts = slice_constants(m, n, d)
    fg = evaluate_poly(s.F1, list(gs))
    gg = evaluate_poly(s.F2, list(gs))
    if fg.is_zero() or gg.is_zero():
        raise HypothesisError(
            "a composed polynomial vanishes identically",
            {"F1(g)": format_unipoly(fg), "F2(g)": format_unipoly(gg)},
        )
    h, fh, gh = uni_gcd_cofactors(fg, gg)
    a1 = place_multiplicity(fh, pl.poly)
    a2 = place_multiplicity(gh, pl.poly)

    def weight(e: "tuple[int, ...]") -> int:
        return sum(a * b for a, b in zip(u, e))

    rhs = sum(a1 + weight(e) for e in s.kept)
    rhs += sum(a2 + weight(e) for e in s.multipliers)
    exps = set(s.F1.ints) | set(s.F2.ints)
    min_ui = min(weight(e) for e in exps)
    lhs = consts.c * sum(u) - binom(m + n - 2 * d, n) * min_ui
    return LocalCheckReport(
        check="bs",
        place=pl,
        lhs=lhs,
        rhs=rhs,
        passed=lhs <= rhs,
        info={
            "m": m,
            "n": n,
            "d": d,
            "c": consts.c,
            "M": consts.M,
            "u": list(u),
            "swapped": s.swapped,
            "tm_tie": s.tm_tie,
            "h": format_unipoly(h),
            "min_weighted_exponent": min_ui,
        },
    )

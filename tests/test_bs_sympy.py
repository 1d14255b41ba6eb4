"""The basis-slice local check against sympy as an independent oracle.

``bs_check`` sums two valuations and integer dot products.  Here sympy
composes every slice element B_j = F_s x^e at the base polynomials, divides
by h = gcd(F1(g), F2(g)), and reads the multiplicity of each irreducible
factor of the place (``factor_list``) in each B_j(g)/h and each g_i.  When
the factors of the place divide one of them to different powers, the
valuation is not defined and ``bs_check`` must reject the input; otherwise
its lhs and rhs are the sums the inequality names.  The slice itself is the
package's ``build_basis_slice`` at the weight u = (v(g_i)), and the constant
c its ``slice_constants`` (both have oracles of their own).
"""

import math
import random

import pytest

from torigcd.errors import HypothesisError
from torigcd.idealslice import build_basis_slice, slice_constants
from torigcd.ordering import Weight
from torigcd.parsing import parse_unipoly
from torigcd.randgen import random_coprime_pair, random_unipoly
from torigcd.ratfunc import Place
from torigcd.unipoly import ONE, UniPoly
from torigcd.wronskian import bs_check

sympy = pytest.importorskip("sympy")
z = sympy.Symbol("z")

OVERLAP = "place polynomial overlaps the argument only partially"


def to_sympy(p: UniPoly):
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)]
    return sympy.Poly(coeffs or [0], z, domain=sympy.QQ)


def compose(F, gs):
    """F(g_1, ..., g_n) by sympy's own products."""
    out = sympy.Poly(0, z, domain=sympy.QQ)
    for exp, c in F.ints.items():
        term = sympy.Poly(sympy.Rational(c, F.den), z, domain=sympy.QQ)
        for g, e in zip(gs, exp):
            term = term * g**e
        out = out + term
    return out


def multiplicity(p, q) -> int:
    k = 0
    while p.rem(q).is_zero:
        p = p.quo(q)
        k += 1
    return k


def valuation(p, factors) -> "int | None":
    """The power of the place in p, or None when its irreducible factors differ in it."""
    ks = {multiplicity(p, q) for q in factors}
    return ks.pop() if len(ks) == 1 else None


def sympy_bs(F, G, m, gs, place):
    """(lhs, rhs, u) of the local inequality, or the reason it is rejected."""
    factors = [q for q, _ in to_sympy(place).factor_list()[1]]
    sgs = [to_sympy(g) for g in gs]
    common = sgs[0]
    for g in sgs[1:]:
        common = sympy.gcd(common, g)
    if common.degree() > 0:
        return "base polynomials must have no common zero"
    u = [valuation(g, factors) for g in sgs]
    if None in u:
        return OVERLAP
    s = build_basis_slice(F, G, m, Weight(tuple(u)))
    n = F.nvars - 1
    f1, f2 = compose(s.F1, sgs), compose(s.F2, sgs)
    if f1.is_zero or f2.is_zero:
        return "a composed polynomial vanishes identically"
    h = sympy.gcd(f1, f2)
    rhs = 0
    for beta in s.B:
        eta, rem = compose(beta, sgs).div(h)
        assert rem.is_zero
        v = valuation(eta, factors)
        if v is None:
            return OVERLAP
        rhs += max(0, v)
    exps = set(s.F1.ints) | set(s.F2.ints)
    min_ui = min(sum(a * b for a, b in zip(u, e)) for e in exps)
    top = m + n - 2 * s.d  # C(top, n) is 0 below n, negative top included
    lhs = slice_constants(m, n, s.d).c * sum(u) - (math.comb(top, n) if top >= 0 else 0) * min_ui
    return lhs, rhs, u


def ours(F, G, m, gs, place):
    try:
        rep = bs_check(F, G, m, gs, Place.finite(place))
    except HypothesisError as exc:
        return str(exc)
    assert rep.passed == (rep.lhs <= rep.rhs)
    return rep.lhs, rep.rhs, rep.info["u"]


# places as their factors over Q: linear ones with unit and non-unit leading
# coefficients, irreducible quadratics, and reducible squarefree ones
PLACES = [
    ["z"],
    ["2*z+3"],
    ["z^2+1"],
    ["z^2-2"],
    ["z", "z+1"],
    ["z", "z-1", "z+1"],
    ["3*z-1", "z^2+2"],
]


def test_bs_check_matches_sympy_valuations():
    rng = random.Random(1301)
    seen = {"passed": 0, "positive rhs": 0, "overlap": 0}
    for _ in range(240):
        nvars = rng.randint(2, 3)
        d = rng.randint(1, 2) if nvars == 2 else 1
        m = rng.randint(d, d + 2)
        F, G = random_coprime_pair(rng, nvars, d)
        fs = [parse_unipoly(t) for t in rng.choice(PLACES)]
        place = math.prod(fs, start=ONE)
        gs = []
        for _ in range(nvars):
            g = random_unipoly(rng, 1, nonzero=True)
            for f in fs:
                g = g * f ** rng.choice((0, 0, 1, 2))
            gs.append(g)
        got = ours(F, G, m, gs, place)
        assert got == sympy_bs(F, G, m, gs, place), (F, G, m, gs, place)
        if isinstance(got, tuple):
            seen["passed"] += 1
            seen["positive rhs"] += got[1] > 0
        seen["overlap"] += got == OVERLAP
    assert all(seen.values()), seen

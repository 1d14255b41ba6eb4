"""UniPoly arithmetic against sympy's Poly over QQ as an independent oracle."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from torigcd.unipoly import (
    ONE,
    ZERO,
    UniPoly,
    divide_out,
    exact_div,
    uni_gcd,
)

sympy = pytest.importorskip("sympy")
z = sympy.Symbol("z")

# denominators up to 40 give coefficients with many distinct denominators;
# leading coefficients take both signs, and empty or one-entry lists give
# the zero and constant polynomials
rationals = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 40))
polys = st.lists(rationals, max_size=7).map(UniPoly)
nonzero = polys.filter(lambda p: not p.is_zero())
nonconstant = polys.filter(lambda p: p.degree >= 1)
points = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))


def to_sympy(p: UniPoly):
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)]
    return sympy.Poly(coeffs or [0], z, domain=sympy.QQ)


def frac(v) -> Fraction:
    return Fraction(int(v.p), int(v.q))


def from_sympy(P) -> UniPoly:
    return UniPoly(frac(c) for c in reversed(P.all_coeffs()))


def check(p: UniPoly, P) -> None:
    """p is canonical and equals the sympy polynomial P."""
    assert p.den > 0
    assert not p.ints or p.ints[-1] != 0
    assert math.gcd(p.den, *p.ints) == 1
    if not p.ints:
        assert p.den == 1
    assert p == from_sympy(P)
    assert to_sympy(p) == P


@given(polys, polys)
@settings(max_examples=200, deadline=None)
def test_ring_operations(p, q):
    P, Q = to_sympy(p), to_sympy(q)
    check(p + q, P + Q)
    check(p - q, P - Q)
    check(p * q, P * Q)
    check(-p, -P)


@given(polys, rationals)
@settings(max_examples=100, deadline=None)
def test_scalar_operations(p, c):
    P, C = to_sympy(p), sympy.Rational(c.numerator, c.denominator)
    check(p * c, P * C)
    check(c * p, P * C)
    check(p + c, P + C)
    check(c - p, C - P)
    if c:
        check(p / c, P * (1 / C))


@given(polys, st.integers(0, 5))
@settings(max_examples=100, deadline=None)
def test_power(p, k):
    check(p**k, to_sympy(p) ** k)


@given(polys, nonzero)
@settings(max_examples=200, deadline=None)
def test_divmod(p, q):
    """Exact division only: (Quo, 0) when sympy leaves no remainder, else raise."""
    Quo, Rem = sympy.div(to_sympy(p), to_sympy(q))
    if Rem.is_zero:
        quo, rem = divmod(p, q)
        check(quo, Quo)
        assert rem == ZERO
    else:
        with pytest.raises(ValueError):
            divmod(p, q)
    with pytest.raises(TypeError):
        p // q
    with pytest.raises(TypeError):
        p % q


@given(nonconstant, nonconstant)
@settings(max_examples=100, deadline=None)
def test_divmod_nonzero_remainder(p, q):
    """Products plus a nonzero remainder of lower degree: the division raises."""
    r = from_sympy(sympy.rem(to_sympy(p), to_sympy(q)))
    assume(not r.is_zero())
    with pytest.raises(ValueError):
        divmod(p * q + r, q)


@given(polys, nonzero)
@settings(max_examples=200, deadline=None)
def test_exact_div(p, q):
    P, Q = to_sympy(p), to_sympy(q)
    check(exact_div(p * q, q), sympy.exquo(P * Q, Q))
    if sympy.rem(P, Q).is_zero:
        check(exact_div(p, q), sympy.exquo(P, Q))
    else:
        with pytest.raises(ValueError):
            exact_div(p, q)


@given(nonzero, nonconstant, st.integers(0, 3))
@settings(max_examples=100, deadline=None)
def test_divide_out(p, q, e):
    e_out, rest = divide_out(p * q**e, q)
    P, Q = to_sympy(p * q**e), to_sympy(q)
    count = 0
    while sympy.rem(P, Q).is_zero:
        P = sympy.exquo(P, Q)
        count += 1
    assert e_out == count >= e
    check(rest, P)


@given(polys, polys, polys)
@settings(max_examples=200, deadline=None)
def test_gcd(p, q, w):
    p, q = p * w, q * w
    if p.is_zero() and q.is_zero():
        with pytest.raises(ZeroDivisionError):
            uni_gcd(p, q)
        return
    check(uni_gcd(p, q), sympy.gcd(to_sympy(p), to_sympy(q)))


@given(polys)
@settings(max_examples=100, deadline=None)
def test_monic_and_derivative(p):
    P = to_sympy(p)
    check(p.monic(), P.monic() if not p.is_zero() else P)
    check(p.derivative(), P.diff(z))
    assert (Fraction(p.ints[-1], p.den) if p.ints else 0) == frac(P.LC())


@given(polys, points)
@settings(max_examples=150, deadline=None)
def test_evaluate(p, x):
    P = to_sympy(p)
    assert p.evaluate(x) == frac(P.eval(sympy.Rational(x.numerator, x.denominator)))
    assert p.evaluate(x.numerator) == frac(P.eval(x.numerator))


@given(polys, polys)
@settings(max_examples=150, deadline=None)
def test_canonical_form(p, q):
    """Equal values reached by different routes are equal and hash equal."""
    routes = [
        p,
        UniPoly(p.coeffs),
        (p + q) - q,
        (p * 6 + q) / 6 - q / 6,
        from_sympy(to_sympy(p)),
    ]
    if not q.is_zero():
        routes.append(exact_div(p * q, q))
        routes.append(divmod(p * q, q)[0])
    for r in routes:
        assert r == p
        assert hash(r) == hash(p)
        assert (r.ints, r.den) == (p.ints, p.den)
    assert UniPoly(p.coeffs) == p


def test_zero_and_constants_are_canonical():
    assert (ZERO.ints, ZERO.den) == ((), 1)
    assert (UniPoly([0, Fraction(0, 7)]).ints, UniPoly([0, Fraction(0, 7)]).den) == ((), 1)
    assert UniPoly([Fraction(1, 2)]) * 2 == ONE
    half = UniPoly([Fraction(-1, 2), Fraction(3, 2)])
    assert (half.ints, half.den) == ((-1, 3), 2)
    assert ((half - half).ints, (half - half).den) == ((), 1)
    assert hash(UniPoly([Fraction(6, 3)])) == hash(UniPoly.constant(2))
    assert UniPoly.constant(Fraction(4, 6)) == UniPoly([Fraction(2, 3)])
    assert UniPoly.constant(0) == ZERO and UniPoly.constant(0).den == 1

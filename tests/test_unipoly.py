"""Dense univariate polynomials over the rationals."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torigcd.parsing import parse_unipoly
from torigcd.unipoly import (
    ONE,
    ZERO,
    Z,
    UniPoly,
    divide_out,
    exact_div,
    format_unipoly,
    is_squarefree,
    uni_gcd,
    uni_gcd_list,
    uni_lcm,
)

coeffs = st.lists(
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)), max_size=6
)
polys = coeffs.map(UniPoly)


def test_degree_and_zero_sentinel():
    assert ZERO.degree == -1
    assert UniPoly([0, 0]).degree == -1
    assert UniPoly([5]).degree == 0
    assert UniPoly([0, 0, 3]).degree == 2
    assert not ZERO
    assert UniPoly([Fraction(1, 2)])


def test_immutability():
    p = UniPoly([1, 2])
    with pytest.raises(AttributeError):
        p.coeffs = (Fraction(0),)


@given(polys, polys, polys)
@settings(max_examples=150, deadline=None)
def test_ring_laws(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + ZERO == p
    assert p * ONE == p
    assert p - p == ZERO


@given(polys, polys)
@settings(max_examples=150, deadline=None)
def test_divmod_reconstructs(p, q):
    # divmod is exact only: it gives back p from p*q, and raises once a
    # nonzero remainder of lower degree than q is added
    if q.is_zero():
        return
    assert divmod(p * q, q) == (p, ZERO)
    r = UniPoly(p.coeffs[: q.degree])
    if not r.is_zero():
        with pytest.raises(ValueError):
            divmod(p * q + r, q)


def test_pow():
    p = parse_unipoly("z^2+z+1")
    assert p**0 == ONE
    assert p**3 == p * p * p


def test_derivative_product_rule():
    rng = random.Random(5)
    for _ in range(40):
        p = UniPoly([rng.randint(-4, 4) for _ in range(rng.randint(1, 6))])
        q = UniPoly([rng.randint(-4, 4) for _ in range(rng.randint(1, 6))])
        assert (p * q).derivative() == p.derivative() * q + p * q.derivative()


def test_evaluate_horner():
    p = parse_unipoly("2*z^3-z+1/2")
    x = Fraction(3, 2)
    assert p.evaluate(x) == 2 * x**3 - x + Fraction(1, 2)


def test_gcd_examples():
    assert uni_gcd(parse_unipoly("z^2-1"), parse_unipoly("z-1")) == parse_unipoly("z-1")
    assert uni_gcd(parse_unipoly("z^6-1"), parse_unipoly("(z+1)^6-1")) == parse_unipoly(
        "z^2+z+1"
    )
    p = parse_unipoly("3*z^2-3")
    assert uni_gcd(p, ZERO) == parse_unipoly("z^2-1")
    with pytest.raises(ZeroDivisionError):
        uni_gcd(ZERO, ZERO)


def test_gcd_is_monic_and_divides():
    rng = random.Random(17)
    for _ in range(80):
        p = UniPoly([rng.randint(-5, 5) for _ in range(rng.randint(1, 7))])
        q = UniPoly([rng.randint(-5, 5) for _ in range(rng.randint(1, 7))])
        if p.is_zero() and q.is_zero():
            continue
        g = uni_gcd(p, q)
        assert g.ints[-1] == g.den
        for h in (p, q):
            if not h.is_zero():
                assert divmod(h, g)[1].is_zero()


def test_gcd_common_factor_pulls_out():
    rng = random.Random(19)
    for _ in range(60):
        w = UniPoly([rng.randint(-4, 4) for _ in range(rng.randint(1, 5))])
        p = UniPoly([rng.randint(-4, 4) for _ in range(rng.randint(1, 5))])
        q = UniPoly([rng.randint(-4, 4) for _ in range(rng.randint(1, 5))])
        if w.is_zero() or p.is_zero() or q.is_zero():
            continue
        assert uni_gcd(p * w, q * w) == (uni_gcd(p, q) * w).monic()


def test_gcd_list_and_lcm():
    ps = [parse_unipoly(t) for t in ("z^2-1", "z^2+2*z+1", "z+1")]
    assert uni_gcd_list(ps) == parse_unipoly("z+1")
    a, b = parse_unipoly("z^2-1"), parse_unipoly("z^2+2*z+1")
    l = uni_lcm(a, b)
    assert divmod(l, a)[1].is_zero() and divmod(l, b)[1].is_zero()
    assert l.degree == 3


def test_exact_div_raises_on_remainder():
    with pytest.raises(ValueError):
        exact_div(parse_unipoly("z^2+1"), parse_unipoly("z-1"))
    assert exact_div(parse_unipoly("z^2-1"), parse_unipoly("z-1")) == parse_unipoly(
        "z+1"
    )


def test_divide_out_at_z_matches_the_division_loop():
    # divide_out at a multiple of z against a reference that divides with
    # exact_div once per unit of multiplicity, until it raises
    rng = random.Random(31)
    for e in range(51):
        core = [Fraction(rng.choice([-5, -1, 2, 7]), rng.randint(1, 4))]
        core += [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(rng.randint(0, 6))]
        p = UniPoly([0] * e + core)
        for q in (Z, UniPoly([0, Fraction(-3, 2)])):
            count, rest = 0, p
            while True:
                try:
                    quot = exact_div(rest, q)
                except ValueError:
                    break
                count, rest = count + 1, quot
            assert count == e
            assert divide_out(p, q) == (e, rest)


def test_squarefree_detection():
    assert is_squarefree(parse_unipoly("z^2+z+1"))
    assert not is_squarefree(parse_unipoly("z^2+2*z+1"))
    assert not is_squarefree(ONE)


def test_format_parse_round_trip():
    rng = random.Random(29)
    for _ in range(60):
        p = UniPoly(
            [
                Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                for _ in range(rng.randint(0, 6))
            ]
        )
        assert parse_unipoly(format_unipoly(p)) == p
    assert format_unipoly(Z) == "z"
    assert format_unipoly(ZERO) == "0"


def test_ints_over_one_denominator():
    p = UniPoly([Fraction(1, 2), Fraction(2, 3)])
    assert p.den == 6 and p.ints == (3, 4)
    assert p.coeffs == (Fraction(1, 2), Fraction(2, 3))

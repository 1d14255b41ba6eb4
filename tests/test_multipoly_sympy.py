"""substitute and evaluate_poly against sympy composition, mv_gcd and
mv_exact_div against sympy's gcd and div, all over QQ."""

from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from torigcd.multipoly import MultiPoly, evaluate_poly, mv_exact_div, mv_gcd, substitute
from torigcd.parsing import parse_multipoly, parse_ratfunc, parse_unipoly
from torigcd.ratfunc import RationalFunction
from torigcd.unipoly import UniPoly

sympy = pytest.importorskip("sympy")
z = sympy.Symbol("z")
NVARS = 3
xs = sympy.symbols(f"x0:{NVARS}")

rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
# up to five terms of degree at most 3 in each variable: constants, zero and
# polynomials that miss a variable all come up
mpolys = st.dictionaries(
    st.tuples(*(st.integers(0, 3) for _ in range(NVARS))), rationals, max_size=5
).map(lambda t: MultiPoly(NVARS, t))
# numerators and denominators with scalar denominators of their own; the
# empty list is the zero polynomial
unipolys = st.lists(rationals, max_size=3).map(UniPoly)
ratfuncs = st.tuples(unipolys, unipolys.filter(lambda p: not p.is_zero())).map(
    lambda nd: RationalFunction(*nd)
)


def to_sympy(F: MultiPoly):
    return sum(
        (sympy.Rational(c.numerator, c.denominator) * sympy.prod(x**e for x, e in zip(xs, exp))
         for exp, c in F.terms.items()),
        sympy.Integer(0),
    )


def uni_to_sympy(p: UniPoly):
    return sum(
        (sympy.Rational(c.numerator, c.denominator) * z**i for i, c in enumerate(p.coeffs)),
        sympy.Integer(0),
    )


def poly_qq(expr):
    return sympy.Poly(expr, z, domain=sympy.QQ)


@given(mpolys, st.lists(ratfuncs, min_size=NVARS, max_size=NVARS))
@settings(max_examples=150, deadline=None)
@example(
    parse_multipoly("3/2*x0^2*x2-x2+1/3", NVARS),
    [parse_ratfunc("(z/2+1)/(3*z-1)"), parse_ratfunc("0"), parse_ratfunc("(2/3*z)/(z^2/5-1)")],
)
@example(parse_multipoly("-7/4", NVARS), [parse_ratfunc("(z/2+1)/(3*z-1)")] * NVARS)
@example(parse_multipoly("x0*x1^3", NVARS), [parse_ratfunc("0")] * NVARS)
def test_substitute_matches_sympy(F, hs):
    value = substitute(F, hs)
    composed = to_sympy(F).xreplace(
        {x: uni_to_sympy(h.num) / uni_to_sympy(h.den) for x, h in zip(xs, hs)}
    )
    num, den = sympy.fraction(sympy.cancel(sympy.together(composed)))
    num, den = poly_qq(num), poly_qq(den)
    lc = den.LC()
    # both sides reduced with a monic denominator, so they agree exactly
    assert poly_qq(uni_to_sympy(value.num)) == num.quo_ground(lc)
    assert poly_qq(uni_to_sympy(value.den)) == den.quo_ground(lc)
    assert value.den.ints[-1] == value.den.den


@given(mpolys, st.lists(unipolys, min_size=NVARS, max_size=NVARS))
@settings(max_examples=150, deadline=None)
@example(
    parse_multipoly("x0^3*x1-1/2*x1^2+5/6", NVARS),
    [parse_unipoly("z/2+1"), parse_unipoly("2/3*z^2-z/7"), parse_unipoly("0")],
)
@example(parse_multipoly("11/3", NVARS), [parse_unipoly("z/2+1")] * NVARS)
def test_evaluate_poly_matches_sympy(F, gs):
    value = evaluate_poly(F, gs)
    composed = to_sympy(F).xreplace({x: uni_to_sympy(g) for x, g in zip(xs, gs)})
    assert poly_qq(uni_to_sympy(value)) == poly_qq(sympy.expand(composed))
    assert value == substitute(F, [RationalFunction(g) for g in gs]).num


# in 2 to 4 variables, up to four terms of degree at most 2 in each variable
def _mpolys_in(nvars):
    return st.dictionaries(
        st.tuples(*(st.integers(0, 2) for _ in range(nvars))), rationals, max_size=4
    ).map(lambda t: MultiPoly(nvars, t))


def _triples(nvars):
    return st.tuples(*(_mpolys_in(nvars) for _ in range(3)))


triples = st.integers(2, 4).flatmap(_triples)


def poly_qq_x(F: MultiPoly):
    gens = sympy.symbols(f"x0:{F.nvars}")
    expr = sum(
        (sympy.Rational(c.numerator, c.denominator) * sympy.prod(x**e for x, e in zip(gens, exp))
         for exp, c in F.terms.items()),
        sympy.Integer(0),
    )
    return sympy.Poly(expr, *gens, domain=sympy.QQ)


def mp2(text):
    return parse_multipoly(text, 2)


# x1 - 4 vanishes at x1 = 4, the first point tried for the pair
# x0 + x1, x1 - 4; the planted factor x0 - x1 + 1 keeps an image vanishing
@given(triples)
@settings(max_examples=150, deadline=None)
@example((mp2("x0+x1"), mp2("x1-4"), mp2("1")))
@example((mp2("x0+x1"), mp2("x1-4"), mp2("x0-x1+1")))
def test_mv_gcd_matches_sympy(case):
    A, B, H = case
    assume(not H.is_zero() and not (A.is_zero() and B.is_zero()))
    F, G = A * H, B * H
    # sympy's gcd over QQ is monic in lex order with x0 > x1 > ..., the
    # order whose leading coefficient mv_gcd sets to 1
    assert poly_qq_x(mv_gcd(F, G)) == poly_qq_x(F).gcd(poly_qq_x(G))


@given(triples)
@settings(max_examples=150, deadline=None)
@example((mp2("x0+x1"), mp2("x1-4"), mp2("0")))
@example((mp2("x0^2+x1"), mp2("x0+1"), mp2("-x0^2*x1")))
def test_mv_exact_div_matches_sympy(case):
    Q, B, R = case
    assume(not B.is_zero())
    A = Q * B + R
    # {B} is a Groebner basis of the ideal it generates, so sympy's
    # remainder is zero exactly when B divides A
    quot, rem = poly_qq_x(A).div(poly_qq_x(B))
    if rem.is_zero:
        assert poly_qq_x(mv_exact_div(A, B)) == quot
    else:
        with pytest.raises(ValueError):
            mv_exact_div(A, B)

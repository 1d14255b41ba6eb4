"""substitute and evaluate_poly against sympy composition over QQ."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from torigcd.multipoly import MultiPoly, evaluate_poly, substitute
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
    assert value.den.lc == 1


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

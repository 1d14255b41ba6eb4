"""Grammar coverage: precedence, rejection cases, round trips."""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torigcd.errors import HypothesisError, ParseError
from torigcd.expunits import parse_quad
from torigcd.ordering import parse_order
from torigcd.parsing import (
    MAX_COEFF_BITS,
    MAX_NESTING,
    MAX_POWER_DEGREE,
    MAX_POWER_SIZE,
    MAX_POWER_TERMS,
    _MAX_DIGITS,
    infer_homogeneous_nvars,
    parse_multipoly,
    parse_place,
    parse_ratfunc,
    parse_rational,
    parse_unipoly,
)
from torigcd.ratfunc import Place
from torigcd.unipoly import UniPoly


def test_precedence():
    # ^ binds over * binds over +; unary minus distributes
    assert parse_unipoly("2*z^2+1") == UniPoly((Fraction(1), Fraction(0), Fraction(2)))
    assert parse_unipoly("-z^2") == -parse_unipoly("z^2")
    assert parse_unipoly("(2*z)^2") == parse_unipoly("4*z^2")
    assert parse_ratfunc("1/2*z") == parse_ratfunc("z/2")
    assert parse_ratfunc("z+1/z") == parse_ratfunc("(z^2+1)/z")


def test_whitespace_insensitive():
    assert parse_unipoly(" z ^ 2 - 1 ") == parse_unipoly("z^2-1")
    assert parse_multipoly("x0 * x1 + 2", 2) == parse_multipoly("x0*x1+2", 2)


def test_rational_function_field_arithmetic():
    f = parse_ratfunc("(z^2-1)/(z+1)")
    assert f.is_polynomial() and f.num == parse_unipoly("z-1")
    g = parse_ratfunc("1/(z-2)^3")
    assert g.den == parse_unipoly("(z-2)^3")


def test_unipoly_must_reduce_to_polynomial():
    with pytest.raises(ParseError):
        parse_unipoly("1/z")
    with pytest.raises(ParseError):
        parse_unipoly("(z+1)/(z-1)")
    assert parse_unipoly("(z^3-z)/(z)") == parse_unipoly("z^2-1")


def test_multivariate_division_restricted_to_constants():
    assert parse_multipoly("x0/2", 1) == parse_multipoly("1/2*x0", 1)
    with pytest.raises(ParseError):
        parse_multipoly("x0/x1", 2)
    with pytest.raises(ParseError):
        parse_multipoly("1/0", 1)


def test_variable_range_enforced():
    with pytest.raises(ParseError):
        parse_multipoly("x3", 3)  # x0..x2 only
    with pytest.raises(ParseError):
        parse_multipoly("x0", 2, first_index=1)  # x1..x2 only
    with pytest.raises(ParseError):
        parse_multipoly("z", 2)
    with pytest.raises(ParseError):
        parse_ratfunc("x0")


def test_multi_digit_variables():
    F = parse_multipoly("x10 - 2*x12^2", 13)
    assert F.terms == {
        tuple(int(i == 10) for i in range(13)): 1,
        tuple(2 * (i == 12) for i in range(13)): -2,
    }
    assert parse_multipoly(str(F), 13) == F
    assert parse_multipoly("x10*x1", 11) == parse_multipoly("x1*x10", 11)
    assert infer_homogeneous_nvars("x0+x12", "x10") == 13
    with pytest.raises(ParseError, match="outside x0..x11"):
        parse_multipoly("x12", 12)
    with pytest.raises(ParseError, match="outside x1..x10"):
        parse_multipoly("x11", 10, first_index=1)


def test_malformed_input_rejected():
    for bad in ("", "z+", "(z", "z)", "z^", "z^-1", "z^(2)", "2**z", "z y", "x10", "3..5"):
        with pytest.raises(ParseError):
            parse_ratfunc(bad) if "x" not in bad else parse_multipoly(bad, 2)


def test_unary_signs():
    assert parse_unipoly("-z+-1") == parse_unipoly("-(z+1)")
    assert parse_unipoly("+z") == parse_unipoly("z")
    assert parse_unipoly("--z") == parse_unipoly("z")
    # a run of signs is read in a loop: no recursion, and parity decides
    assert parse_ratfunc("-" * 1000 + "z") == parse_ratfunc("z")
    assert parse_ratfunc("-" * 1001 + "z") == parse_ratfunc("-z")
    assert parse_ratfunc("+-" * 500 + "z^2") == parse_ratfunc("z^2")
    assert parse_ratfunc("-z^2") == -parse_ratfunc("z^2")


def test_nesting_cap():
    deep = "(" * MAX_NESTING + "z" + ")" * MAX_NESTING
    assert parse_ratfunc(deep) == parse_ratfunc("z")
    assert parse_multipoly(deep.replace("z", "x0"), 1) == parse_multipoly("x0", 1)
    for text in ("(" + deep + ")", "(" * 200 + "z" + ")" * 200):
        with pytest.raises(ParseError, match="nest"):
            parse_ratfunc(text)


def test_infer_homogeneous_nvars():
    assert infer_homogeneous_nvars("x0+x1", "x1^2") == 2
    assert infer_homogeneous_nvars("x2") == 3
    with pytest.raises(ParseError):
        infer_homogeneous_nvars("z+1")


def test_parse_place():
    assert parse_place("inf") == Place.infinity()
    assert parse_place("INF") == Place.infinity()
    assert parse_place("z-1") == Place.finite(parse_unipoly("z-1"))
    assert parse_place("2*z-2") == Place.finite(parse_unipoly("z-1"))  # monicized
    with pytest.raises(ParseError):
        parse_place("1/z")


def test_parse_rational():
    assert parse_rational("3") == 3
    assert parse_rational("-7/2") == Fraction(-7, 2)
    assert parse_rational("0.25") == Fraction(1, 4)  # exact decimal accepted
    with pytest.raises(ParseError):
        parse_rational("seven")
    with pytest.raises(ParseError):
        parse_rational("1/0")


def test_str_then_parse_round_trip():
    for text in ("z^5-3*z+1/2", "(z^2+1)/(z^3-z)", "-2/3*z^4"):
        f = parse_ratfunc(text)
        assert parse_ratfunc(str(f)) == f
    for text in ("x0^2*x1-1/3*x2^3", "x1+x2", "0"):
        F = parse_multipoly(text, 3)
        assert parse_multipoly(str(F), 3) == F


# each rejected text would build a power of degree far above the cap
HUGE_POWERS = ("z^999999999", "((z^1000)^1000)^1000")


@pytest.mark.parametrize("text", HUGE_POWERS)
def test_power_degree_cap(text):
    with pytest.raises(ParseError, match="degree cap"):
        parse_ratfunc(text)
    with pytest.raises(ParseError, match="degree cap"):
        parse_multipoly(text.replace("z", "x1"), 2)


def test_power_degree_cap_boundary():
    cap = MAX_POWER_DEGREE
    assert parse_ratfunc(f"z^{cap}").num.degree == cap
    assert parse_ratfunc(f"(1/z^2)^{cap // 2}").den.degree == cap
    assert parse_multipoly(f"(x0*x1)^{cap // 2}", 2).total_degree() == cap
    for text in (f"z^{cap + 1}", f"(1/z^2)^{cap // 2 + 1}", f"2^{cap + 1}"):
        with pytest.raises(ParseError):
            parse_ratfunc(text)
    with pytest.raises(ParseError):
        parse_multipoly(f"(x0*x1)^{cap // 2 + 1}", 2)


def test_power_term_cap_boundary():
    # C(14, 4) = 1001 terms in five variables, C(15, 4) = 1365 one step on
    assert MAX_POWER_TERMS == 1001
    assert len(parse_multipoly("(x0+x1+x2+x3+x4)^10", 5).ints) == MAX_POWER_TERMS
    assert len(parse_multipoly("(x0+x1)^1000", 2).ints) == MAX_POWER_TERMS
    for text in ("(x0+x1+x2+x3+x4)^11", "(x0+x1+x2+x3+x4)^40", "(x0+x1+1)^44"):
        with pytest.raises(ParseError, match="term cap"):
            parse_multipoly(text, 5)
    # the degree bound applies when the terms bound overcounts: 1 + 9k
    base = "+".join(f"x0^{j}" for j in range(10))
    assert parse_multipoly(f"({base})^111", 1).total_degree() == 999
    # (x0+1)^1000, at the degree cap, is still accepted
    assert len(parse_multipoly(f"(x0+1)^{MAX_POWER_DEGREE}", 1).ints) == MAX_POWER_TERMS


def test_product_term_cap():
    # each factor has C(14, 4) = 1001 terms, so each product could have
    # min(1001^2, C(25, 5)) = 53130; it is refused before it is built
    five = "(x0+x1+x2+x3+x4)^10"
    with pytest.raises(ParseError, match="term cap"):
        parse_multipoly(f"{five}*{five}*{five}", 5)
    # at the cap: 1001 terms times one, and 1001 monomials of degree 1000
    # in one variable however many terms the factors have
    assert len(parse_multipoly(f"3*{five}*x0", 5).ints) == MAX_POWER_TERMS
    assert len(parse_multipoly("(x0+1)^500*(x0-1)^500", 1).ints) == 501
    with pytest.raises(ParseError, match="term cap"):
        parse_multipoly("(x0+1)^500*(x0-1)^501", 1)


def test_power_size_cap_boundary():
    # (2^19*x0+x1)^k has at most k+1 terms of 20k bits: k = 386 gives
    # 387*20*386 = 2987640 and k = 387 gives 3003120, both inside the
    # degree, coefficient and term caps
    assert MAX_POWER_SIZE == 3 * 10**6
    assert len(parse_multipoly("(2^19*x0+x1)^386", 2).ints) == 387
    assert parse_ratfunc("(2^19*z+1)^386").num.degree == 386
    for text in ("(2^19*x0+x1)^387", "(1023*x0+1023*x1)^1000"):
        with pytest.raises(ParseError, match="size cap"):
            parse_multipoly(text, 2)
    for text in ("(2^19*z+1)^387", "(1023*z+1023)^1000"):
        with pytest.raises(ParseError, match="size cap"):
            parse_ratfunc(text)


def test_long_integer_literal_is_parse_error():
    # over 4300 digits, int() itself would raise a plain ValueError
    with pytest.raises(ParseError, match="coefficient cap"):
        parse_ratfunc("1" * 5000 + "*z")
    with pytest.raises(ParseError, match="coefficient cap"):
        parse_multipoly("1" * 5000 + "*x0", 1)
    with pytest.raises(ParseError):
        parse_ratfunc("z^" + "9" * 5000)
    assert parse_ratfunc("0" * 5000 + "7") == parse_ratfunc("7")


def test_coefficient_bit_cap_boundary():
    cap = MAX_COEFF_BITS
    assert parse_ratfunc(str(2**cap - 1)).as_constant() == 2**cap - 1
    with pytest.raises(ParseError, match="coefficient cap"):
        parse_ratfunc(str(2**cap))
    # 2^999 has 1000 bits, so its tenth power just reaches the cap
    assert parse_ratfunc("(2^999)^10").as_constant() == 2**9990
    assert parse_ratfunc("(1/2^999)^10").as_constant() == Fraction(1, 2**9990)
    assert parse_multipoly("(2^999*x0)^10", 1) == parse_multipoly(f"{2**9990}*x0^10", 1)
    for text in (
        "(2^1000)^10",
        "(1/2^1000)^10",
        "(z+2^1000)^10",
        "(2^1000)^1000",
        "((2^1000)^1000)^1000",
    ):
        with pytest.raises(ParseError, match="coefficient cap"):
            parse_ratfunc(text)
    with pytest.raises(ParseError, match="coefficient cap"):
        parse_multipoly("(2^1000*x0)^10", 1)


def test_coefficient_bit_cap_reduces_each_coefficient():
    # 1/2^40 and 1/3^25 are 41 and 40 bits each; over their common
    # denominator they would read 80 bits, so the cap counts 41 per step:
    # 41 * 243 = 9963 passes and 41 * 244 = 10004 does not
    base = "(z/2^40+1/3^25)"
    assert MAX_COEFF_BITS == 10000
    assert parse_ratfunc(f"{base}^243").num.degree == 243
    assert len(parse_multipoly(f"{base.replace('z', 'x0')}^243", 1).ints) == 244
    with pytest.raises(ParseError, match="coefficient cap"):
        parse_ratfunc(f"{base}^244")
    with pytest.raises(ParseError, match="coefficient cap"):
        parse_multipoly(f"{base.replace('z', 'x0')}^244", 1)


def test_rational_exponent_cap():
    assert parse_rational("1e-3") == Fraction(1, 1000)
    assert parse_rational("1e3010").numerator.bit_length() == MAX_COEFF_BITS
    for text in ("1e3011", "1E-3011", "1e999999999", "2.5e1_000_000"):
        with pytest.raises(ParseError, match="coefficient cap"):
            parse_rational(text)


@pytest.fixture
def no_int_digit_limit():
    """Lift the interpreter's int-to-str digit limit, as the CLI does."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int-to-str digit limit")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(limit)


def test_numeral_digit_caps(no_int_digit_limit):
    at_cap, past_cap = "9" * _MAX_DIGITS, "1" + "0" * _MAX_DIGITS
    assert parse_rational(at_cap) == int(at_cap)
    assert parse_rational(f"1/{at_cap}") == Fraction(1, int(at_cap))
    assert parse_rational("0" * 5000 + "7") == 7  # leading zeros aside
    assert parse_quad(f"{at_cap}*sqrt2").b == int(at_cap)
    assert parse_quad(f"1/{at_cap}").a == Fraction(1, int(at_cap))
    assert parse_order(f"weight:{at_cap},1").u == (int(at_cap), 1)
    for parse, text in (
        (parse_rational, past_cap),
        (parse_rational, f"1/{past_cap}"),
        (parse_rational, f"{past_cap}.5"),
        (parse_quad, past_cap),
        (parse_quad, f"1/{past_cap}*sqrt2"),
        (parse_order, f"weight:1,{past_cap}"),
    ):
        with pytest.raises(ParseError, match="digits exceeds the cap"):
            parse(text)


# pieces of every grammar the parsers read, hostile sizes included
_TOKENS = [
    "0", "1", "2", "7", "3/2", "99999999999999", "x0", "x1", "x4", "x12", "x", "z",
    "+", "-", "*", "/", "^", "(", ")", " ", ".", ",", ":", "_", "e", "E",
    "sqrt", "sqrt2", "inf", "oo", "lex", "weight:", "#", "\u00e9",
]
_SOUP = st.lists(st.sampled_from(_TOKENS), max_size=12).map("".join)


@settings(max_examples=400, deadline=None)
@given(_SOUP)
def test_parsers_return_or_raise_parse_error(text):
    """Token soup: every parser returns a value or raises ParseError.

    Only parse_place may also raise HypothesisError, for a constant or
    non-squarefree place.  The multivariate parser reads five variables,
    where only the term cap stops a short power such as
    (x0+x1+x2+x3+x4)^40 from running for minutes.
    """
    parsers = [
        parse_ratfunc,
        parse_unipoly,
        lambda t: parse_multipoly(t, 5),
        parse_quad,
        parse_order,
        parse_rational,
    ]
    for parse in parsers:
        try:
            parse(text)
        except ParseError:
            pass
    try:
        parse_place(text)
    except (ParseError, HypothesisError):
        pass

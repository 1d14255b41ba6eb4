"""Grammar coverage: precedence, rejection cases, round trips."""

from fractions import Fraction

import pytest

from torigcd.errors import ParseError
from torigcd.parsing import (
    MAX_COEFF_BITS,
    MAX_POWER_DEGREE,
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

"""Text grammar for polynomials and rational functions.

Variables are x with a decimal index (x0, x1, ..., x10, x12, ...;
multivariate) or z (univariate); literals are integers or rationals (3,
3/2); operators are + - * / ^ with parentheses.  Univariate input
evaluates in the rational-function field, so (z^2-1)/(z+1) is accepted
anywhere; multivariate input may divide by constants only.  A power whose
degree, counting a constant base as degree 1, would exceed MAX_POWER_DEGREE
is rejected before it is built, and so is a power whose exponent times the
largest bit length of a numerator or denominator among the coefficients of
its base would exceed MAX_COEFF_BITS.  An integer literal of more than
MAX_COEFF_BITS bits is rejected before it is converted, and so is a
variable index that long.  MAX_SLICE_MONOMIALS, the largest slice the
`basis` and `bs-check` subcommands accept, sits here with the other caps.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import ParseError
from .multipoly import MultiPoly
from .ratfunc import Place, RationalFunction
from .unipoly import UniPoly

MAX_POWER_DEGREE = 1000
MAX_COEFF_BITS = 10000
# largest graded slice `basis` and `bs-check` build: C(m+n, n) monomials of
# degree m in n+1 variables, the column count of the slice's rank matrices
MAX_SLICE_MONOMIALS = 1000

# a literal with more digits than this is at least 10^_MAX_DIGITS > 2^MAX_COEFF_BITS
_MAX_DIGITS = math.floor(MAX_COEFF_BITS * math.log10(2)) + 1

_TOKEN = re.compile(r"\s*(?:(\d+)|(x\d+)|(z)|([-+*/^()]))")


def _tokenize(text: str) -> "list[str]":
    tokens = []
    text = text.strip()
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r} at column {pos}")
        tokens.append(m.group(m.lastindex))
        pos = m.end()
    return tokens


def _int_literal(tok: str) -> int:
    """The value of a digit string, rejected above MAX_COEFF_BITS bits."""
    digits = tok.lstrip("0") or "0"
    n = int(digits) if len(digits) <= _MAX_DIGITS else None
    if n is None or n.bit_length() > MAX_COEFF_BITS:
        raise ParseError(
            f"integer literal of {len(digits)} digits exceeds the coefficient cap"
            f" of {MAX_COEFF_BITS} bits"
        )
    return n


def _bits(values) -> int:
    """Largest bit length among the numerators and denominators of rationals."""
    return max(
        (max(v.numerator.bit_length(), v.denominator.bit_length()) for v in values),
        default=0,
    )


class _Parser:
    """Recursive-descent evaluator over an algebra of constants and variables."""

    def __init__(self, tokens, algebra):
        self.tokens = tokens
        self.pos = 0
        self.alg = algebra

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of expression")
        self.pos += 1
        return tok

    def parse(self):
        value = self.expr()
        if self.peek() is not None:
            raise ParseError(f"trailing input near {self.peek()!r}")
        return value

    def expr(self):
        value = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self):
        value = self.unary()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.unary()
            value = value * rhs if op == "*" else self.alg.div(value, rhs)
        return value

    def unary(self):
        if self.peek() == "-":
            self.take()
            return -self.unary()
        if self.peek() == "+":
            self.take()
            return self.unary()
        return self.power()

    def power(self):
        value = self.atom()
        if self.peek() == "^":
            self.take()
            tok = self.take()
            if not tok.isdigit():
                raise ParseError("exponent must be a nonnegative integer literal")
            k = _int_literal(tok)
            deg = self.alg.degree(value)
            if max(deg, 1) * k > MAX_POWER_DEGREE:
                raise ParseError(
                    f"power too large: exponent {k} on a base of degree {deg}"
                    f" exceeds the degree cap {MAX_POWER_DEGREE}"
                )
            bits = self.alg.coeff_bits(value)
            if bits * k > MAX_COEFF_BITS:
                raise ParseError(
                    f"power too large: exponent {k} on coefficients of {bits} bits"
                    f" exceeds the coefficient cap of {MAX_COEFF_BITS} bits"
                )
            value = value**k
        return value

    def atom(self):
        tok = self.take()
        if tok.isdigit():
            return self.alg.const(Fraction(_int_literal(tok)))
        if tok == "(":
            value = self.expr()
            if self.take() != ")":
                raise ParseError("expected closing parenthesis")
            return value
        if tok == ")":
            raise ParseError("unbalanced closing parenthesis")
        if tok in "+-*/^":
            raise ParseError(f"misplaced operator {tok!r}")
        return self.alg.var(tok)


class _UniAlgebra:
    """Full field arithmetic in the univariate rational-function field."""

    def const(self, c: Fraction) -> RationalFunction:
        return RationalFunction.constant(c)

    def var(self, name: str) -> RationalFunction:
        if name != "z":
            raise ParseError(f"unknown univariate variable {name!r} (use z)")
        return RationalFunction(UniPoly.monomial(1))

    def degree(self, f: RationalFunction) -> int:
        return max(f.num.degree, f.den.degree, 0)

    def coeff_bits(self, f: RationalFunction) -> int:
        return _bits(f.num.coeffs + f.den.coeffs)

    def div(self, a: RationalFunction, b: RationalFunction) -> RationalFunction:
        if b.is_zero():
            raise ParseError("division by zero")
        return a / b


class _MultiAlgebra:
    """Polynomial arithmetic where division is restricted to constants."""

    def __init__(self, nvars: int, first_index: int):
        self.nvars = nvars
        self.first_index = first_index

    def const(self, c: Fraction) -> MultiPoly:
        return MultiPoly.constant(self.nvars, c)

    def var(self, name: str) -> MultiPoly:
        if name == "z":
            raise ParseError("variable z is univariate; use x<index> here")
        axis = _int_literal(name[1:]) - self.first_index
        if not 0 <= axis < self.nvars:
            last = self.first_index + self.nvars - 1
            raise ParseError(
                f"variable {name} outside x{self.first_index}..x{last}"
            )
        return MultiPoly.variable(self.nvars, axis)

    def degree(self, F: MultiPoly) -> int:
        return max(F.total_degree(), 0)

    def coeff_bits(self, F: MultiPoly) -> int:
        return _bits(F.terms.values())

    def div(self, a: MultiPoly, b: MultiPoly) -> MultiPoly:
        if b.is_zero():
            raise ParseError("division by zero")
        if not b.is_constant():
            raise ParseError("multivariate division only by nonzero constants")
        return a / b.as_constant()


def parse_ratfunc(text: str) -> RationalFunction:
    """Parse a univariate rational function in z."""
    return _Parser(_tokenize(text), _UniAlgebra()).parse()


def parse_unipoly(text: str) -> UniPoly:
    """Parse univariate input that must reduce to a polynomial."""
    f = parse_ratfunc(text)
    if not f.is_polynomial():
        raise ParseError(f"{text!r} is not a polynomial")
    return f.num


def parse_multipoly(text: str, nvars: int, first_index: int = 0) -> MultiPoly:
    """Parse a polynomial in x<first_index>..x<first_index + nvars - 1>."""
    return _Parser(_tokenize(text), _MultiAlgebra(nvars, first_index)).parse()


def infer_homogeneous_nvars(*texts: str) -> int:
    """Number of variables x0..xn mentioned across homogeneous inputs."""
    top = -1
    for text in texts:
        for m in re.finditer(r"x(\d+)", text):
            top = max(top, _int_literal(m.group(1)))
    if top < 0:
        raise ParseError("no x-variables found in homogeneous input")
    return top + 1


def parse_place(text: str) -> Place:
    """Parse 'inf' or a univariate polynomial naming a finite place."""
    if text.strip().lower() in ("inf", "infinity", "oo"):
        return Place.infinity()
    return Place.finite(parse_unipoly(text))


def parse_rational(text: str) -> Fraction:
    """Parse an integer, p/q, or exact decimal literal."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational literal {text!r}") from exc

"""Text grammar for polynomials and rational functions.

Variables are x with a decimal index (x0, x1, ..., x10, x12, ...;
multivariate) or z (univariate); literals are integers or rationals (3,
3/2); operators are + - * / ^ with parentheses.  Univariate input
evaluates in the rational-function field, so (z^2-1)/(z+1) is accepted
anywhere; multivariate input may divide by constants only.  A power whose
degree, counting a constant base as degree 1, would exceed MAX_POWER_DEGREE
is rejected before it is built, and so is a power whose exponent times the
largest bit length of a numerator or denominator among the coefficients of
its base would exceed MAX_COEFF_BITS, and so is a multivariate power or
product whose term count could exceed MAX_POWER_TERMS, and so is a power
whose term bound times exponent times coefficient bits would exceed
MAX_POWER_SIZE.  An integer literal of more than MAX_COEFF_BITS bits is
rejected before it is converted, and so is a variable index that long;
check_numeral holds the numerals of the other grammars (rationals, quadratic
literals, weight vectors) to the same digit count.  Parentheses nest at most
MAX_NESTING deep, and a run of signs is read in a loop, so no input recurses
past the interpreter's stack.  MAX_SLICE_MONOMIALS (`basis`, `bs-check`) and
MAX_SWEEP_WORK (the power sweep) sit here with the other caps.
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
# a one-variable power the degree cap accepts has at most this many terms
MAX_POWER_TERMS = MAX_POWER_DEGREE + 1
MAX_COEFF_BITS = 10000
# terms times coefficient bits of a power, bounded before it is built: the
# other caps alone admit (1023*x0+1023*x1)^1000, 1001 terms of about 10000
# bits that take seconds to build; (x0+x1)^1000 sits near 10^6
MAX_POWER_SIZE = 3 * 10**6
# largest graded slice `basis` and `bs-check` build: C(m+n, n) monomials of
# degree m in n+1 variables, the column count of the slice's rank matrices
MAX_SLICE_MONOMIALS = 1000
# sum over a sweep's rows of V_k^2, V_k as in nevandeg._point_bits: a gcd of
# two V-bit values took 2.2*10^-12 s * V^2 (z+3, z-2; 2-core container,
# CPython 3.11), so over z+3, z-2 it admits kmax 411 (13 s), not rows 991..1000
MAX_SWEEP_WORK = 10**13
# deepest parenthesis nesting: each level takes five parser frames
MAX_NESTING = 100

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


def check_numeral(numeral: str) -> None:
    """Reject a numeral of more than _MAX_DIGITS digits, leading zeros aside,
    before it is converted: the CLI lifts the interpreter's own digit limit."""
    digits = "".join(re.findall(r"\d", numeral)).lstrip("0")
    if len(digits) > _MAX_DIGITS:
        raise ParseError(
            f"numeral of {len(digits)} digits exceeds the cap of {_MAX_DIGITS} digits"
        )


def _bits(ints, den: int) -> int:
    """Largest bit length among the numerators and denominators of the
    coefficients c/den, each reduced on its own as a ``Fraction`` is."""
    top = 0
    for c in ints:
        g = math.gcd(c, den)
        top = max(top, (c // g).bit_length(), (den // g).bit_length())
    return top


class _Parser:
    """Recursive-descent evaluator over an algebra of constants and variables."""

    def __init__(self, tokens, algebra):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
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
            value = self.alg.mul(value, rhs) if op == "*" else self.alg.div(value, rhs)
        return value

    def unary(self):
        negate = False
        while self.peek() in ("+", "-"):
            negate ^= self.take() == "-"
        value = self.power()
        return -value if negate else value

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
            terms = self.alg.term_bound(value, k)
            if terms > MAX_POWER_TERMS:
                raise ParseError(
                    f"power too large: exponent {k} can give more terms than"
                    f" the term cap {MAX_POWER_TERMS}"
                )
            if terms * bits * k > MAX_POWER_SIZE:
                raise ParseError(
                    f"power too large: exponent {k} can give {terms} terms of"
                    f" {bits * k} bits, over the size cap of {MAX_POWER_SIZE} bits"
                )
            value = value**k
        return value

    def atom(self):
        tok = self.take()
        if tok.isdigit():
            return self.alg.const(Fraction(_int_literal(tok)))
        if tok == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(f"parentheses nest deeper than the cap {MAX_NESTING}")
            value = self.expr()
            if self.take() != ")":
                raise ParseError("expected closing parenthesis")
            self.depth -= 1
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
        return max(_bits(p.ints, p.den) for p in (f.num, f.den))

    def term_bound(self, f: RationalFunction, k: int) -> int:
        """Most coefficients of the numerator or denominator of f^k; the
        degree cap already keeps this within MAX_POWER_TERMS."""
        return self.degree(f) * k + 1

    def mul(self, a: RationalFunction, b: RationalFunction) -> RationalFunction:
        return a * b

    def div(self, a: RationalFunction, b: RationalFunction) -> RationalFunction:
        if b.is_zero():
            raise ParseError("division by zero")
        return a / b


def _active_count(*polys: MultiPoly) -> int:
    """Number of variables that occur in at least one of the polynomials."""
    return len({axis for F in polys for e in F.ints for axis, x in enumerate(e) if x})


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
        return _bits(F.ints.values(), F.den)

    def term_bound(self, F: MultiPoly, k: int) -> int:
        """Most terms F^k can have, without building it.

        With t terms, F^k has at most C(k+t-1, t-1) terms, one per multiset
        of k of them; in n active variables its terms have degree at most
        k deg F, and there are C(n + k deg F, n) such monomials.
        """
        t = len(F.ints)
        if t <= 1:
            return 1
        n = _active_count(F)
        return min(
            math.comb(k + t - 1, t - 1), math.comb(n + k * F.total_degree(), n)
        )

    def mul(self, A: MultiPoly, B: MultiPoly) -> MultiPoly:
        """A*B, rejected before it is built when it could have more terms
        than MAX_POWER_TERMS: at most t_A*t_B, and at most C(n + deg A +
        deg B, n), the monomials of that degree in the n active variables."""
        n = _active_count(A, B)
        deg = self.degree(A) + self.degree(B)
        if min(len(A.ints) * len(B.ints), math.comb(n + deg, n)) > MAX_POWER_TERMS:
            raise ParseError(
                f"product too large: factors of {len(A.ints)} and {len(B.ints)}"
                f" terms can give more terms than the term cap {MAX_POWER_TERMS}"
            )
        return A * B

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
    """Parse an integer, p/q, or exact decimal literal.

    A decimal exponent (1e-3) is rejected when its power of ten alone has
    more than MAX_COEFF_BITS bits, so 1e999999999 fails at once instead of
    building a billion-digit integer; a longer numerator or denominator than
    check_numeral allows fails the same way.
    """
    exponent = re.search(r"[eE][-+]?([\d_]+)", text)
    if exponent:
        digits = exponent.group(1).replace("_", "").lstrip("0")
        if len(digits) > len(str(_MAX_DIGITS)) or int(digits or 0) >= _MAX_DIGITS:
            raise ParseError(
                f"exponent in {text!r} exceeds the coefficient cap of {MAX_COEFF_BITS} bits"
            )
    for numeral in re.split(r"[/eE]", text):
        check_numeral(numeral)
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational literal {text!r}") from exc

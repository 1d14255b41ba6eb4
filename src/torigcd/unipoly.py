"""Dense univariate polynomials over exact rationals.

A polynomial is stored as integer numerators ``ints`` (little-endian, no
trailing zeros) over one positive denominator ``den``, in lowest terms:
gcd(content(ints), den) = 1, and the zero polynomial is ((), 1).  The form
is canonical, so two polynomials are equal iff their (ints, den) pairs are,
and hashing is exact.  Arithmetic, evaluation and gcds run on the integer
lists (products and gcds in the integer kernel); ``coeffs`` gives a Fraction
view for the edges that want one.  The degree of the zero polynomial is
the sentinel -1 (callers that rely on deg(0) = -infinity semantics must
special-case zero).

Division (``divmod``, and through it ``exact_div``) and ``divide_out``
are exact only: they divide the integer numerators by the primitive part
of the divisor in the kernel's exact quotient.  By Gauss's lemma the
quotient is an integer polynomial whenever the division is exact, so the
first leading coefficient that does not divide proves there is a
remainder, and the division raises.
``uni_gcd_cofactors`` returns the quotients by the gcd that the kernel's
gcd check has already computed, for callers that divide by the gcd.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

from . import kernel
from .kernel.intpoly_py import _power

Scalar = Union[int, Fraction]


class UniPoly:
    """Immutable univariate polynomial over the rationals."""

    __slots__ = ("ints", "den")

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        fs = [Fraction(c) for c in coeffs]
        # the lcm of reduced denominators leaves no factor common to all numerators
        den = math.lcm(*(f.denominator for f in fs))
        ints = [f.numerator * (den // f.denominator) for f in fs]
        while ints and not ints[-1]:
            ints.pop()
        _set_ints(self, tuple(ints))
        _set_den(self, den if ints else 1)

    def __setattr__(self, name, value):
        raise AttributeError("UniPoly is immutable")

    @staticmethod
    def constant(c: Scalar) -> "UniPoly":
        c = Fraction(c)
        return _new((c.numerator,), c.denominator) if c else ZERO

    @staticmethod
    def monomial(k: int) -> "UniPoly":
        """z^k."""
        return _new((0,) * k + (1,), 1)

    @property
    def coeffs(self) -> "tuple[Fraction, ...]":
        """Coefficients as Fractions, little-endian; built on every access."""
        den = self.den
        return tuple(Fraction(c, den) for c in self.ints)

    @property
    def degree(self) -> int:
        """Degree, with -1 as the zero-polynomial sentinel."""
        return len(self.ints) - 1

    def is_zero(self) -> bool:
        return not self.ints

    def is_constant(self) -> bool:
        return len(self.ints) <= 1

    def __bool__(self) -> bool:
        return bool(self.ints)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = UniPoly.constant(other)
        if isinstance(other, UniPoly):
            return self.ints == other.ints and self.den == other.den
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.ints, self.den))

    def __neg__(self) -> "UniPoly":
        return _new(tuple(-c for c in self.ints), self.den)

    def _combine(self, other, sign: int) -> "UniPoly":
        """self + sign * other over the lcm of the two denominators."""
        a, b = self.ints, other.ints
        da, db = self.den, other.den
        if da != db:
            g = math.gcd(da, db)
            a = [c * (db // g) for c in a]
            b = [c * (da // g) for c in b]
            da = da * (db // g)
        if sign < 0:
            b = [-c for c in b]
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return _canon(out, da)

    def __add__(self, other) -> "UniPoly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self._combine(other, 1)

    __radd__ = __add__

    def __sub__(self, other) -> "UniPoly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self._combine(other, -1)

    def __rsub__(self, other) -> "UniPoly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other._combine(self, -1)

    def __mul__(self, other) -> "UniPoly":
        if isinstance(other, UniPoly):
            if not self.ints or not other.ints:
                return ZERO
            return _canon(kernel.mul(self.ints, other.ints), self.den * other.den)
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return _canon([x * c.numerator for x in self.ints], self.den * c.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other) -> "UniPoly":
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        return NotImplemented

    def __pow__(self, k: int) -> "UniPoly":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        if k == 0:
            return ONE
        # content^k stays coprime to den^k, so the power needs no reduction
        return _new(tuple(_power(self.ints, k, kernel.mul)), self.den**k)

    def __divmod__(self, other: "UniPoly"):
        """(self / other, ZERO) when other divides self; exact division only.

        Raises ``ValueError`` when other does not divide self, and
        ``ZeroDivisionError`` when other is zero.
        """
        if not isinstance(other, UniPoly):
            return NotImplemented
        if not other.ints:
            raise ZeroDivisionError("polynomial division by zero")
        c, b = _primitive(other.ints)
        quot = kernel.exact_quotient(self.ints, b)
        if quot is None:
            raise ValueError("polynomial division with nonzero remainder")
        # self / other = (self.ints / b) * other.den / (self.den * c)
        return _canon([x * other.den for x in quot], self.den * c), ZERO

    def monic(self) -> "UniPoly":
        """Scale to leading coefficient 1; zero stays zero."""
        ints = self.ints
        if not ints or ints[-1] == self.den:
            return self
        return _canon(list(ints), ints[-1])

    def derivative(self) -> "UniPoly":
        return _canon([i * c for i, c in enumerate(self.ints) if i], self.den)

    def evaluate(self, x: Scalar) -> Fraction:
        if not self.ints:
            return Fraction(0)
        x = Fraction(x)
        n, d = x.numerator, x.denominator
        return Fraction(_homogeneous_value(self.ints, n, d), self.den * d**self.degree)

    def __repr__(self) -> str:
        return f"UniPoly({list(self.coeffs)!r})"

    def __str__(self) -> str:
        return format_unipoly(self)


_set_ints = UniPoly.ints.__set__
_set_den = UniPoly.den.__set__


def _new(ints: "tuple[int, ...]", den: int) -> UniPoly:
    """Wrap a pair that is already canonical."""
    p = object.__new__(UniPoly)
    _set_ints(p, ints)
    _set_den(p, den)
    return p


def _canon(ints: "list[int]", den: int) -> UniPoly:
    """The polynomial ints/den in canonical form; den must be nonzero."""
    while ints and not ints[-1]:
        ints.pop()
    if not ints:
        return ZERO
    if den != 1:
        if den < 0:
            ints = [-c for c in ints]
            den = -den
        g = math.gcd(den, *ints)
        if g != 1:
            ints = [c // g for c in ints]
            den //= g
    return _new(tuple(ints), den)


def _coerce(value) -> "UniPoly | None":
    if isinstance(value, UniPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return UniPoly.constant(value)
    return None


ZERO = UniPoly()
ONE = UniPoly.constant(1)
Z = UniPoly.monomial(1)


def _primitive(ints: "Sequence[int]") -> "tuple[int, Sequence[int]]":
    """(content, primitive part) of a nonzero integer polynomial."""
    c = math.gcd(*ints)
    return c, ints if c == 1 else [x // c for x in ints]


def uni_gcd(p: UniPoly, q: UniPoly) -> UniPoly:
    """Monic gcd of p and q; error when both are zero."""
    if p.is_zero() and q.is_zero():
        raise ZeroDivisionError("gcd(0, 0) is undefined")
    if p.is_zero():
        return q.monic()
    if q.is_zero():
        return p.monic()
    # primitive with positive leading coefficient: g / lc(g) is canonical
    g = kernel.gcd(p.ints, q.ints)
    return _new(tuple(g), g[-1])


def uni_gcd_cofactors(p: UniPoly, q: UniPoly) -> "tuple[UniPoly, UniPoly, UniPoly]":
    """(g, p/g, q/g) with g = uni_gcd(p, q), the quotients from the kernel's gcd.

    The kernel's gcd check divides both numerators by the gcd already, so
    the cofactors cost no further division.  Error when both are zero.
    """
    h, a, b = kernel.gcd_cofactors(p.ints, q.ints)
    if len(h) == 1:
        return ONE, p, q
    # p = h * a / p.den and g = h / lc(h), so p / g = a * lc(h) / p.den
    lh = h[-1]
    return (
        _new(tuple(h), lh),
        _canon([x * lh for x in a], p.den),
        _canon([x * lh for x in b], q.den),
    )


def uni_gcd_list(ps: Sequence[UniPoly]) -> UniPoly:
    """Monic gcd of a nonempty family, ignoring zeros unless all are zero."""
    nonzero = [p for p in ps if not p.is_zero()]
    if not nonzero:
        raise ZeroDivisionError("gcd of an all-zero family")
    g = nonzero[0].monic()
    for p in nonzero[1:]:
        if g.is_constant():
            break
        g = uni_gcd(g, p)
    return g


def uni_lcm(p: UniPoly, q: UniPoly) -> UniPoly:
    """Monic lcm of two nonzero polynomials."""
    if p.is_zero() or q.is_zero():
        raise ZeroDivisionError("lcm with zero polynomial")
    _, p_over_g, _ = uni_gcd_cofactors(p, q)
    return (p_over_g * q).monic()


def exact_div(p: UniPoly, q: UniPoly) -> UniPoly:
    """Quotient p/q when q divides p exactly; raise ``ValueError`` otherwise."""
    return divmod(p, q)[0]


def divide_out(p: UniPoly, q: UniPoly) -> "tuple[int, UniPoly]":
    """(e, p / q^e) for the largest e such that q^e divides p.

    p must be nonzero and q nonconstant.
    """
    if p.is_zero():
        raise ZeroDivisionError("dividing out of the zero polynomial")
    if q.degree < 1:
        raise ValueError("divide_out needs a nonconstant divisor")
    c, b = _primitive(q.ints)
    e, a = _strip(p.ints, b)
    if e == 0:
        return 0, p
    scale = q.den**e
    return e, _canon([x * scale for x in a], p.den * c**e)


def _strip(a: "Sequence[int]", b: "Sequence[int]") -> "tuple[int, Sequence[int]]":
    """(e, a / b^e) for the largest e such that b^e divides a, on integer lists.

    a is nonzero and b primitive and nonconstant.  At a linear b = b1*z + b0
    each exact quotient is preceded by a root test: a divides by b iff
    a(-b0/b1) = 0, and a Horner evaluation at the root, homogenized by the
    powers of b1, costs no quotient list when it does not.
    """
    e = 0
    while len(b) != 2 or _homogeneous_value(a, -b[0], b[1]) == 0:
        quot = kernel.exact_quotient(a, b)
        if quot is None:
            break
        a = quot
        e += 1
    return e, a


def _homogeneous_value(a: "Sequence[int]", n: int, d: int) -> int:
    """d^deg(a) * a(n/d) for a nonzero integer polynomial a, by Horner on integers."""
    # dk runs through the powers of d
    acc, dk = 0, 1
    for c in reversed(a):
        acc = acc * n + c * dk
        dk *= d
    return acc


def _irreducible(q: UniPoly) -> bool:
    """Whether q is linear, or quadratic with a non-square discriminant: both irreducible over Q."""
    if q.degree == 1:
        return True
    if q.degree != 2:
        return False
    # the integer numerators' discriminant is den^2 times q's, a square iff q's is
    c0, c1, c2 = q.ints
    disc = c1 * c1 - 4 * c0 * c2
    return disc < 0 or math.isqrt(disc) ** 2 != disc


def is_squarefree(p: UniPoly) -> bool:
    """True iff p is nonconstant with no repeated factor.

    A polynomial irreducible over Q (``_irreducible``) is squarefree with no
    gcd: a linear one has one simple root, and a quadratic with a
    non-square discriminant has a nonzero one.
    """
    if p.degree < 1:
        return False
    if _irreducible(p):
        return True
    return uni_gcd(p, p.derivative()).is_constant()


def yun_factors(p: UniPoly) -> "list[tuple[UniPoly, int]]":
    """The pairs (a_i, i) for the nonconstant monic Yun factors a_i of p, in increasing i.

    p = c * prod a_i^i with a_i squarefree and pairwise coprime: a_i is the
    product of the irreducible factors of multiplicity exactly i.  Yun's
    algorithm (SYMSAC 1976) starts from b = p / gcd(p, p') and
    c = p' / gcd(p, p'); at step i, d = c - b' is zero exactly when every
    factor left in b has multiplicity i, so b is the last factor, and
    otherwise a_i = gcd(b, d), b <- b / a_i and c <- d / a_i.  So it runs
    one gcd of high degree and then one per multiplicity, each against the
    shrinking squarefree b.  An irreducible p is its own factor a_1, with
    no gcd.
    """
    if p.is_zero():
        raise ZeroDivisionError("squarefree parts of the zero polynomial")
    p = p.monic()
    if p.degree < 1:
        return []
    if _irreducible(p):
        return [(p, 1)]
    g, b, c = uni_gcd_cofactors(p, p.derivative())
    if g.degree < 1:  # p is squarefree
        return [(p, 1)]
    parts = []
    i = 1
    while b.degree > 0:
        d = c - b.derivative()
        if d.is_zero():
            parts.append((b, i))
            break
        a, b, c = uni_gcd_cofactors(b, d)
        if a.degree > 0:
            parts.append((a, i))
        i += 1
    return parts


def _magnitude(c: int, den: int) -> str:
    """|c|/den in lowest terms, as 'p' or 'p/q'."""
    g = math.gcd(c, den)
    return str(abs(c) // g) if g == den else f"{abs(c) // g}/{den // g}"


def _render(terms: "Iterable[tuple[int, str]]", den: int) -> str:
    """The sum of c/den times each monomial, over (c, monomial text) terms.

    The CLI grammar: the sign of each term, its magnitude as p or p/q, no
    unit coefficient before a monomial ('' for 1), and '0' for the empty sum.
    """
    parts = []
    for c, mono in terms:
        mag = _magnitude(c, den)
        body = f"{mag}*{mono}" if mono and mag != "1" else mono or mag
        parts.append(("-" if c < 0 else "+" if parts else "") + body)
    return "".join(parts) or "0"


def format_unipoly(p: UniPoly) -> str:
    """Render in the CLI grammar: '+', '-', '*', '^', rationals as p/q."""
    terms = [(c, "z" if i == 1 else f"z^{i}" if i else "") for i, c in enumerate(p.ints) if c]
    return _render(reversed(terms), p.den)

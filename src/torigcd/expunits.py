"""Exact slope arithmetic for exponential units c * e^(a z).

Frequencies live in one real quadratic field Q(sqrt(D)) so that the
rationality of a frequency ratio — the whole content of multiplicative
independence for two units — is decidable.  Slopes are reported as exact
coefficients of r/pi; nothing is ever evaluated numerically.

The common zeros of e^(kaz) - 1 and e^(kbz) - 1 form the intersection of
two lattices on the imaginary axis: trivial when b/a is irrational, and
(2 pi i q / (k a)) Z when b/a = p/q in lowest terms, which gives the
counting slope k|a|/q.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

from .errors import ParseError


def _is_squarefree(n: int) -> bool:
    if n < 1:
        return False
    p = 2
    while p * p <= n:
        if n % (p * p) == 0:
            return False
        p += 1
    return True


@dataclass(frozen=True)
class QuadExt:
    """a + b*sqrt(d) with rational a, b and squarefree d >= 1.

    Rational values normalize to d = 1 and b = 0, so structural equality is
    value equality.  Mixing two genuinely irrational values from different
    fields is an error.
    """

    a: Fraction
    b: Fraction
    d: int

    def __init__(self, a, b=0, d: int = 1):
        a = Fraction(a)
        b = Fraction(b)
        if d < 1 or not _is_squarefree(d):
            raise ValueError("field discriminant must be squarefree and positive")
        if d == 1:
            a, b = a + b, Fraction(0)
        if b == 0:
            d = 1
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)

    @classmethod
    def _of(cls, a: Fraction, b: Fraction, d: int) -> "QuadExt":
        """a + b*sqrt(d) from arithmetic on checked values, where d = 1 forces b = 0."""
        out = object.__new__(cls)
        for name, value in zip("abd", (a, b, d if b else 1)):
            object.__setattr__(out, name, value)
        return out

    @staticmethod
    def rational(x) -> "QuadExt":
        return QuadExt._of(Fraction(x), Fraction(0), 1)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def is_rational(self) -> bool:
        return self.b == 0

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("irrational value")
        return self.a

    def _join(self, other: "QuadExt") -> int:
        if self.b == 0:
            return other.d
        if other.b == 0 or other.d == self.d:
            return self.d
        raise ValueError("values live in different quadratic fields")

    def __add__(self, other: "QuadExt") -> "QuadExt":
        d = self._join(other)
        return QuadExt._of(self.a + other.a, self.b + other.b, d)

    def __sub__(self, other: "QuadExt") -> "QuadExt":
        d = self._join(other)
        return QuadExt._of(self.a - other.a, self.b - other.b, d)

    def __neg__(self) -> "QuadExt":
        return QuadExt._of(-self.a, -self.b, self.d)

    def __mul__(self, other: "QuadExt") -> "QuadExt":
        d = self._join(other)
        return QuadExt._of(
            self.a * other.a + self.b * other.b * d,
            self.a * other.b + self.b * other.a,
            d,
        )

    def inverse(self) -> "QuadExt":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        # conjugate over norm; the norm a^2 - b^2 d is nonzero for d squarefree
        norm = self.a * self.a - self.b * self.b * self.d
        return QuadExt._of(self.a / norm, -self.b / norm, self.d)

    def __truediv__(self, other: "QuadExt") -> "QuadExt":
        return self * other.inverse()

    def __pow__(self, k: int) -> "QuadExt":
        if k < 0:
            return self.inverse() ** (-k)
        out = QuadExt.rational(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def sign(self) -> int:
        if self.b == 0:
            return (self.a > 0) - (self.a < 0)
        if self.a == 0:
            return (self.b > 0) - (self.b < 0)
        # a and b nonzero, sqrt(d) irrational: compare a^2 against b^2 d
        norm = self.a * self.a - self.b * self.b * self.d
        if self.a > 0:
            return 1 if (self.b > 0 or norm > 0) else -1
        return -1 if (self.b < 0 or norm > 0) else 1

    def __abs__(self) -> "QuadExt":
        return -self if self.sign() < 0 else self

    def __lt__(self, other: "QuadExt") -> bool:
        return (self - other).sign() < 0

    def __le__(self, other: "QuadExt") -> bool:
        return (self - other).sign() <= 0

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        babs = abs(self.b)
        root = f"sqrt{self.d}" if babs == 1 else f"{babs}*sqrt{self.d}"
        if self.a == 0:
            return root if self.b > 0 else f"-{root}"
        sign = "+" if self.b > 0 else "-"
        return f"{self.a}{sign}{root}"


# squarefreeness is checked by trial division up to sqrt(d): about 0.3 s at the cap
MAX_QUAD_DISCRIMINANT = 10**12
_MAX_D_DIGITS = len(str(MAX_QUAD_DISCRIMINANT))

_QUAD_RAT = r"\d+(?:/\d+)?"
_QUAD_TERM = re.compile(
    rf"^(?:(?P<coeff>{_QUAD_RAT})\*)?sqrt(?P<d>\d+)$|^(?P<rat>{_QUAD_RAT})$"
)
_QUAD_SPLIT = re.compile(r"([+-]?)([^+-]+)")


def parse_quad(text: str) -> QuadExt:
    """Literals like 3/2, sqrt2, 1+2*sqrt5, -1/2*sqrt3; sqrt<d> needs d <= 10^12."""
    squeezed = text.replace(" ", "")
    if not squeezed:
        raise ParseError("empty quadratic literal")
    pos = 0
    total = QuadExt.rational(0)
    for match in _QUAD_SPLIT.finditer(squeezed):
        if match.start() != pos:
            raise ParseError(f"bad quadratic literal: {text!r}")
        pos = match.end()
        sign, chunk = match.groups()
        term = _QUAD_TERM.match(chunk)
        if term is None:
            raise ParseError(f"bad quadratic term: {chunk!r}")
        d = term.group("d")
        if d is not None and (
            len(d.lstrip("0")) > _MAX_D_DIGITS or int(d) > MAX_QUAD_DISCRIMINANT
        ):
            raise ParseError(
                f"discriminant in {chunk!r} exceeds the cap {MAX_QUAD_DISCRIMINANT}"
            )
        factor = Fraction(-1 if sign == "-" else 1)
        try:
            if term.group("rat") is not None:
                value = QuadExt(factor * Fraction(term.group("rat")))
            else:
                coeff = Fraction(term.group("coeff") or 1)
                value = QuadExt(0, factor * coeff, int(d))
            total = total + value
        except (ValueError, ZeroDivisionError) as exc:
            # non-squarefree discriminant, mixed fields, zero denominator
            raise ParseError(f"bad quadratic literal: {text!r} ({exc})") from exc
    if pos != len(squeezed):
        raise ParseError(f"bad quadratic literal: {text!r}")
    return total


def format_quad(x: QuadExt) -> str:
    return str(x)


@dataclass(frozen=True)
class ExpUnit:
    """The zero-free entire function coeff * e^(freq z)."""

    coeff: QuadExt
    freq: QuadExt

    def __post_init__(self):
        if self.coeff.is_zero():
            raise ValueError("unit coefficient must be nonzero")


def exp_char_slope(a: QuadExt) -> QuadExt:
    """Characteristic slope of e^(az): the coefficient |a| of r/pi."""
    return abs(a)


def exp_ngcd_slope(a: QuadExt, b: QuadExt, k: int) -> QuadExt:
    """Common-zero counting slope of e^(kaz)-1 and e^(kbz)-1.

    Zero when b/a is irrational; k|a|/q when b/a = p/q in lowest terms,
    since the two zero lattices intersect in (2 pi i q / (ka)) Z.
    """
    if a.is_zero() or b.is_zero():
        raise ZeroDivisionError("zero frequency")
    if k < 1:
        raise ValueError("k must be positive")
    ratio = b / a
    if not ratio.is_rational():
        return QuadExt.rational(0)
    q = ratio.as_fraction().denominator
    return abs(a) * QuadExt.rational(Fraction(k, q))


def exp_asym_ratio(a: QuadExt, b: QuadExt, k: int) -> QuadExt:
    """exp_ngcd_slope normalized by k max(|a|, |b|): the dichotomy ratio.

    Independent pairs give 0 for every k; dependent pairs give the same
    positive constant for every k, which is exactly why independence is
    needed for the vanishing-ratio conclusion.
    """
    scale = QuadExt.rational(k) * max(abs(a), abs(b))
    return exp_ngcd_slope(a, b, k) / scale


@dataclass(frozen=True)
class BorelClass:
    indices: Tuple[int, ...]
    freq: QuadExt
    coeff_sum: QuadExt
    vanishes: bool


@dataclass(frozen=True)
class BorelPartition:
    classes: Tuple[BorelClass, ...]
    total_vanishes: bool


def borel_partition(units: Sequence[ExpUnit], power: int = 1) -> BorelPartition:
    """Group units by equal frequency and sum coefficients per class.

    The full sum of the units vanishes identically iff every class sum is
    zero.  power > 1 applies the same test to the k-th powers (frequency
    k*freq, coefficient coeff^k).
    """
    if len(units) == 0:
        raise ValueError("empty input")
    if len(units) < 2:
        raise ValueError("need at least two units")
    if power < 1:
        raise ValueError("power must be positive")
    transformed = [
        (u.coeff**power, u.freq * QuadExt.rational(power)) for u in units
    ]
    classes: List[List[int]] = []
    reps: List[QuadExt] = []
    for i, (_, freq) in enumerate(transformed):
        # same class iff the unit ratio is constant, i.e. frequencies differ by 0
        home = next(
            (j for j, r in enumerate(reps) if (freq - r).is_zero()), None
        )
        if home is None:
            reps.append(freq)
            classes.append([i])
        else:
            classes[home].append(i)
    out = []
    for members, rep in zip(classes, reps):
        total = QuadExt.rational(0)
        for i in members:
            total = total + transformed[i][0]
        out.append(
            BorelClass(
                indices=tuple(members),
                freq=rep,
                coeff_sum=total,
                vanishes=total.is_zero(),
            )
        )
    return BorelPartition(
        classes=tuple(out), total_vanishes=all(c.vanishes for c in out)
    )

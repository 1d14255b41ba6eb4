"""Reduced rational functions, places, valuations, and gcd-free bases.

A RationalFunction always satisfies gcd(num, den) = 1 with monic nonzero
denominator, so degrees and valuations read directly off the representation.
Places are either Infinity or a monic squarefree nonconstant polynomial;
valuations at finite places are multiplicities in the squarefree-refined
factorization, never via factorization into irreducibles.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence, Union

from .errors import HypothesisError
from .unipoly import (
    ONE,
    UniPoly,
    divide_out,
    format_unipoly,
    is_squarefree,
    squarefree_parts,
    uni_gcd,
    uni_gcd_cofactors,
)

Scalar = Union[int, Fraction]


class RationalFunction:
    """Immutable reduced quotient of univariate rational polynomials."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=ONE):
        num = _as_poly(num)
        den = _as_poly(den)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            den = ONE
        else:
            _, num, den = uni_gcd_cofactors(num, den)
            lc = den.lc
            if lc != 1:
                num = num / lc
                den = den / lc
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    @classmethod
    def _coprime(cls, num: UniPoly, den: UniPoly) -> "RationalFunction":
        """num/den without the gcd: the caller knows they are coprime and den is monic."""
        rf = object.__new__(cls)
        object.__setattr__(rf, "num", num)
        object.__setattr__(rf, "den", den)
        return rf

    @staticmethod
    def constant(c: Scalar) -> "RationalFunction":
        return RationalFunction(UniPoly.constant(c))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def is_polynomial(self) -> bool:
        return self.den.is_constant()

    def as_constant(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("not a constant rational function")
        return self.num.lc if not self.num.is_zero() else Fraction(0)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __neg__(self) -> "RationalFunction":
        return RationalFunction._coprime(-self.num, self.den)

    def __add__(self, other) -> "RationalFunction":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __sub__(self, other) -> "RationalFunction":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "RationalFunction":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "RationalFunction":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalFunction":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other) -> "RationalFunction":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, k: int) -> "RationalFunction":
        # powers of a coprime pair stay coprime, and of a monic den stay monic
        if k < 0:
            if self.is_zero():
                raise ZeroDivisionError("negative power of zero")
            lc = self.num.lc
            return RationalFunction._coprime(self.den / lc, self.num / lc) ** -k
        if k == 1:
            return self
        return RationalFunction._coprime(self.num**k, self.den**k)

    def derivative(self) -> "RationalFunction":
        return RationalFunction(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    def __repr__(self) -> str:
        return f"RationalFunction({self.num!r}, {self.den!r})"

    def __str__(self) -> str:
        return format_ratfunc(self)


def _as_poly(value) -> UniPoly:
    if isinstance(value, UniPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return UniPoly.constant(value)
    raise TypeError(f"cannot interpret {value!r} as a polynomial")


def _coerce(value) -> "RationalFunction | None":
    if isinstance(value, RationalFunction):
        return value
    if isinstance(value, (int, Fraction, UniPoly)):
        return RationalFunction(_as_poly(value))
    return None


def format_ratfunc(f: RationalFunction) -> str:
    """Render as 'P' for polynomials, '(P)/(Q)' otherwise."""
    num = format_unipoly(f.num)
    if f.den == ONE:
        return num
    return f"({num})/({format_unipoly(f.den)})"


class Place:
    """A finite place (monic squarefree nonconstant polynomial) or Infinity."""

    __slots__ = ("poly",)

    def __init__(self, poly: "UniPoly | None"):
        if poly is not None:
            if poly.degree < 1:
                raise HypothesisError(
                    "finite place must be nonconstant",
                    {"place": str(poly)},
                )
            poly = poly.monic()
            if not is_squarefree(poly):
                raise HypothesisError(
                    "finite place polynomial must be squarefree",
                    {"place": format_unipoly(poly)},
                )
        object.__setattr__(self, "poly", poly)

    def __setattr__(self, name, value):
        raise AttributeError("Place is immutable")

    @staticmethod
    def finite(poly: UniPoly) -> "Place":
        return Place(poly)

    @staticmethod
    def infinity() -> "Place":
        return Place(None)

    def is_infinite(self) -> bool:
        return self.poly is None

    @property
    def degree(self) -> int:
        """Residue degree: deg of the place polynomial, 1 at Infinity."""
        return 1 if self.poly is None else self.poly.degree

    def __eq__(self, other) -> bool:
        if not isinstance(other, Place):
            return NotImplemented
        return self.poly == other.poly

    def __hash__(self) -> int:
        return hash(("Place", self.poly))

    def __repr__(self) -> str:
        return "Place(inf)" if self.poly is None else f"Place({self.poly!s})"

    def __str__(self) -> str:
        return "inf" if self.poly is None else format_unipoly(self.poly)


INFINITY = Place.infinity()


def place_multiplicity(p: UniPoly, place_poly: UniPoly) -> int:
    """Multiplicity of a squarefree place polynomial in p.

    The place must divide p to some exact power: after dividing out all full
    copies, the cofactor must be coprime to the place, otherwise the
    multiplicity is not well defined and the input is rejected.
    """
    if p.is_zero():
        raise ZeroDivisionError("multiplicity of the zero polynomial")
    e, p = divide_out(p, place_poly)
    if not uni_gcd(p, place_poly).is_constant():
        raise HypothesisError(
            "place polynomial overlaps the argument only partially",
            {"place": format_unipoly(place_poly)},
        )
    return e


def valuation(f: RationalFunction, pl: Place) -> int:
    """Order of vanishing of f at the place; deg den - deg num at Infinity."""
    if f.is_zero():
        raise ZeroDivisionError("valuation of the zero function")
    if pl.is_infinite():
        return f.den.degree - f.num.degree
    assert pl.poly is not None
    return place_multiplicity(f.num, pl.poly) - place_multiplicity(f.den, pl.poly)


def coprime_basis(ps: Sequence[UniPoly]) -> "tuple[UniPoly, ...]":
    """Gcd-free basis: pairwise-coprime monic squarefree nonconstant polynomials.

    Every input is a rational constant times a product of integer powers of
    basis elements.  Seeding the refinement with the inputs' Yun factors
    keeps all outputs squarefree, so they double as finite places.  Output
    order is degree, then coefficient tuple.
    """
    pending = []
    for p in ps:
        if p.is_zero():
            raise ZeroDivisionError("coprime_basis with a zero input")
        if p.degree >= 1:
            pending.extend(squarefree_parts(p))
    basis: "list[UniPoly]" = []
    while pending:
        p = pending.pop()
        if p.degree < 1:
            continue
        for i, b in enumerate(basis):
            g, p_over_g, b_over_g = uni_gcd_cofactors(p, b)
            if g.degree >= 1:
                basis.pop(i)
                pending.extend((g, b_over_g, p_over_g))
                break
        else:
            basis.append(p)
    basis.sort(key=lambda q: (q.degree, q.coeffs))
    return tuple(basis)


def factor_over_basis(p: UniPoly, basis: Sequence[UniPoly]) -> "list[int]":
    """Exponents of p over a gcd-free basis; errors if a factor is missing."""
    if p.is_zero():
        raise ZeroDivisionError("factoring the zero polynomial")
    exps = []
    for b in basis:
        e, p = divide_out(p, b)
        exps.append(e)
    if not p.is_constant():
        raise ValueError("input does not factor over the given basis")
    return exps


def divisor_exponents(
    f: RationalFunction, basis: Sequence[UniPoly]
) -> "tuple[list[int], int]":
    """Exponent vector of f over the basis plus the Infinity exponent."""
    nums = factor_over_basis(f.num, basis)
    dens = factor_over_basis(f.den, basis)
    finite = [a - b for a, b in zip(nums, dens)]
    return finite, f.den.degree - f.num.degree


def gcd_free_places(fs: Iterable[RationalFunction]) -> "list[Place]":
    """Finite places from the joint gcd-free basis of all numerators and denominators."""
    polys = []
    for f in fs:
        if f.is_zero():
            continue
        polys.extend((f.num, f.den))
    return [Place.finite(b) for b in coprime_basis(polys)]

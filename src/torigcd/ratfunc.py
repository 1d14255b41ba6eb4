"""Reduced rational functions, places, valuations, and gcd-free bases.

A RationalFunction always satisfies gcd(num, den) = 1 with monic nonzero
denominator, so degrees and valuations read directly off the representation.
Places are either Infinity or a monic squarefree nonconstant polynomial;
valuations at finite places are multiplicities in the squarefree-refined
factorization, never via factorization into irreducibles.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

from . import kernel
from .errors import HypothesisError
from .unipoly import (
    ONE,
    UniPoly,
    _canon,
    _irreducible,
    _primitive,
    _strip,
    divide_out,
    format_unipoly,
    is_squarefree,
    uni_gcd,
    uni_gcd_cofactors,
    yun_factors,
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
            # num/den = (a/num.den) / (b/den.den) with a, b the cofactors of the
            # gcd; dividing both by b's leading coefficient makes den monic
            h, a, b = kernel.gcd_cofactors(num.ints, den.ints)
            lb = b[-1]
            # a coprime pair over a monic den is already reduced
            if len(h) > 1 or lb != den.den:
                num = _canon([x * den.den for x in a], num.den * lb)
                den = _canon(b, lb)
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
        return RationalFunction._coprime(UniPoly.constant(c), ONE)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def is_polynomial(self) -> bool:
        return self.den.is_constant()

    def as_constant(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("not a constant rational function")
        return Fraction(self.num.ints[0], self.num.den) if self.num.ints else Fraction(0)

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
            return RationalFunction(self.den, self.num) ** -k
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

    A nonzero constant p has multiplicity 0.  A place irreducible over Q
    needs no coprimality test: gcd(cofactor, place) is a monic divisor of
    the place other than itself, since the place no longer divides the
    cofactor, so it is 1.  Linear places are irreducible, and so are
    quadratics whose discriminant is not a square.  There only the exact
    quotients are counted, after a root test at a linear place, and no
    cofactor is built.
    """
    if p.is_zero():
        raise ZeroDivisionError("multiplicity of the zero polynomial")
    if p.is_constant() and place_poly.degree >= 1:
        return 0
    if _irreducible(place_poly):
        return _strip(p.ints, _primitive(place_poly.ints)[1])[0]
    e, p = divide_out(p, place_poly)
    if not uni_gcd(p, place_poly).is_constant():
        raise HypothesisError(
            "place polynomial overlaps the argument only partially",
            {"place": format_unipoly(place_poly)},
        )
    return e


def valuation(f: RationalFunction, pl: Place) -> int:
    """Order of vanishing of f at the place; deg den - deg num at Infinity.

    num and den are coprime, so a place that divides num has multiplicity
    0 in den, with no partial overlap: den is not valued then.
    """
    if f.is_zero():
        raise ZeroDivisionError("valuation of the zero function")
    if pl.is_infinite():
        return f.den.degree - f.num.degree
    assert pl.poly is not None
    v = place_multiplicity(f.num, pl.poly)
    return v if v > 0 else -place_multiplicity(f.den, pl.poly)


def _refine(ps: Sequence[UniPoly]) -> "list[tuple[UniPoly, dict[int, int]]]":
    """Factor refinement of the inputs: the coprime basis with each element's exponents.

    Returns the pairs (b, e_b) in ``coprime_basis`` order, where e_b maps an
    input index j to the exponent e_j(b) >= 1 of b in ps[j] (absent: 0).
    Factor refinement (Bach, Driscoll and Shallit, J. Algorithms 1993)
    keeps the invariant that ps[j] is a constant times the product over
    all elements x, pending or placed, of x^(e_x[j]).  It is seeded with
    each Yun factor a_i of ps[j] carrying {j: i}; when g = gcd(p, b) splits
    two elements, g carries e_p + e_b, b/g keeps e_b and p/g keeps e_p.

    Placed elements are pairwise coprime and squarefree (each divides a Yun
    factor).  Those irreducible over Q (``_irreducible``) sit in a dict by
    their monic polynomial, so a pending element that equals one merges
    into it, and two distinct ones are coprime with no work.  An
    irreducible element meets a composite one by one divisibility test
    (``divide_out``, a root test first at a linear element), and only two
    composites take a gcd.  When g splits b, g and b/g are coprime to every
    placed element and to p/g, since b is squarefree and was coprime to the
    rest, so they are placed at once while p/g goes on.
    """
    pending = []
    for j, p in enumerate(ps):
        if p.is_zero():
            raise ZeroDivisionError("coprime_basis with a zero input")
        pending.extend((a, {j: i}) for a, i in yun_factors(p))
    irreducible: "dict[UniPoly, dict[int, int]]" = {}
    composite: "list[tuple[UniPoly, dict[int, int]]]" = []

    def place(x: UniPoly, ex: "dict[int, int]") -> None:
        if x.degree < 1:
            return
        if _irreducible(x):
            irreducible[x] = ex
        else:
            composite.append((x, ex))

    while pending:
        p, ep = pending.pop()
        if _irreducible(p):
            entry = irreducible.get(p)
            if entry is not None:
                _merge(entry, ep)
                continue
            for i, (b, eb) in enumerate(composite):
                e, b_over_p = divide_out(b, p)
                if e:
                    del composite[i]
                    place(b_over_p, eb)
                    ep = _merge(dict(eb), ep)
                    break
            irreducible[p] = ep
            continue
        for q, eq in irreducible.items():
            e, p_over_q = divide_out(p, q)
            if e:
                _merge(eq, ep)
                p = p_over_q
                if p.degree < 1 or _irreducible(p):
                    break
        if p.degree >= 1 and _irreducible(p):
            pending.append((p, ep))
            continue
        split = []
        i = 0
        while p.degree >= 1 and i < len(composite):
            b, eb = composite[i]
            g, p, b_over_g = uni_gcd_cofactors(p, b)
            if g.degree < 1:
                i += 1
                continue
            del composite[i]
            split += [(g, _merge(dict(eb), ep)), (b_over_g, eb)]
            if _irreducible(p):
                pending.append((p, ep))
                break
        else:
            place(p, ep)
        for x, ex in split:
            place(x, ex)
    pairs = list(irreducible.items()) + composite
    # numerators over one positive common denominator order as the coefficients do
    common = math.lcm(*(q.den for q, _ in pairs))

    def key(pair):
        q = pair[0]
        return q.degree, tuple(c * (common // q.den) for c in q.ints)

    return sorted(pairs, key=key)


def _merge(into: "dict[int, int]", exps: "dict[int, int]") -> "dict[int, int]":
    """Add the exponents exps into the map into, and return it."""
    for j, e in exps.items():
        into[j] = into.get(j, 0) + e
    return into


def coprime_basis(ps: Sequence[UniPoly]) -> "tuple[UniPoly, ...]":
    """Gcd-free basis: pairwise-coprime monic squarefree nonconstant polynomials.

    For every input j, ps[j] equals a rational constant times the product
    over the elements b of b^(e_j(b)), with e_j(b) >= 0 (``_refine``
    carries these exponents), and the elements are pairwise coprime and
    squarefree, so they double as finite places.  It is the coarsest basis
    with that invariant, hence unique: each element is the product of the
    irreducible factors that share one exponent vector (e_j)_j across the
    inputs.  Output order is degree, then coefficient tuple.
    """
    return tuple(b for b, _ in _refine(ps))


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

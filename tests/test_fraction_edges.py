"""Integer routes of ratfunc and multipoly against their Fraction references.

Each reference below is the Fraction-based route the package used before it
normalized on integer numerators over one denominator: a reduction that
divides by the denominator's Fraction leading coefficient, a rendering from
Fraction terms, and a basis order on Fraction coefficient tuples.  The
integer routes must agree with them exactly, pair for pair and byte for byte.
"""

import random
from fractions import Fraction

import pytest

from torigcd import kernel
from torigcd.multipoly import MultiPoly, format_multipoly
from torigcd.ratfunc import RationalFunction, coprime_basis
from torigcd.unipoly import ONE, ZERO, UniPoly, _canon, uni_gcd_cofactors


def _lc(p: UniPoly) -> Fraction:
    return Fraction(p.ints[-1], p.den)


def reference_reduce(num: UniPoly, den: UniPoly) -> "tuple[UniPoly, UniPoly]":
    if num.is_zero():
        return ZERO, ONE
    _, num, den = uni_gcd_cofactors(num, den)
    lc = _lc(den)
    return num / lc, den / lc


def reference_format(F: MultiPoly, first_index: int = 0) -> str:
    if F.is_zero():
        return "0"
    parts = []
    for exp in sorted(F.ints, reverse=True):
        coeff = Fraction(F.ints[exp], F.den)
        sign = "-" if coeff < 0 else ("+" if parts else "")
        mag = abs(coeff)
        factors = [
            f"x{first_index + axis}" if e == 1 else f"x{first_index + axis}^{e}"
            for axis, e in enumerate(exp)
            if e
        ]
        if not factors:
            body = str(mag)
        else:
            if mag != 1:
                factors.insert(0, str(mag))
            body = "*".join(factors)
        parts.append(sign + body)
    return "".join(parts)


def reference_repr(F: MultiPoly) -> str:
    terms = {e: Fraction(F.ints[e], F.den) for e in sorted(F.ints, reverse=True)}
    return f"MultiPoly({F.nvars}, {terms!r})"


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 6, 7)))


def _poly(rng: random.Random, max_deg: int) -> UniPoly:
    return UniPoly([_rational(rng) for _ in range(rng.randint(0, max_deg) + 1)])


def _pairs(seed: int, count: int):
    """Numerator/denominator pairs: non-monic and negative-leading ones,
    constants, zero numerators, and pairs sharing a factor."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        num, den = _poly(rng, 4), _poly(rng, 4)
        if den.is_zero():
            continue
        shape = rng.randrange(4)
        if shape == 1:
            common = _poly(rng, 2)
            if not common.is_zero():
                num, den = num * common, den * common
        elif shape == 2:
            den = -den * rng.choice((3, Fraction(5, 2)))
        elif shape == 3:
            num = UniPoly.constant(_rational(rng))
        out.append((num, den))
    return out


def test_reduction_matches_the_fraction_route():
    shapes = set()
    for num, den in _pairs(1, 600):
        f = RationalFunction(num, den)
        assert (f.num, f.den) == reference_reduce(num, den), (num, den)
        assert f.den.ints[-1] == f.den.den
        shapes.add((num.is_zero(), num.is_constant(), den.ints[-1] < 0, den.ints[-1] == den.den))
    # zero and constant numerators, negative and non-monic denominators all occur
    assert len(shapes) >= 5


def reduce_by_two_canons(num: UniPoly, den: UniPoly) -> "tuple[UniPoly, UniPoly]":
    """The reduction that always rebuilds both sides from the kernel's cofactors."""
    if num.is_zero():
        return ZERO, ONE
    _, a, b = kernel.gcd_cofactors(num.ints, den.ints)
    lb = b[-1]
    return _canon([x * den.den for x in a], num.den * lb), _canon(b, lb)


def test_reduction_keeps_coprime_monic_pairs():
    # a pair the kernel finds coprime over a monic den is kept as given; every
    # pair, kept or rebuilt, is the one the two-_canon route gives
    kept = rebuilt = 0
    for num, den in _pairs(3, 400) + [(num, den.monic()) for num, den in _pairs(4, 400)]:
        f = RationalFunction(num, den)
        expected = reduce_by_two_canons(num, den)
        assert ((f.num.ints, f.num.den), (f.den.ints, f.den.den)) == tuple((p.ints, p.den) for p in expected)
        coprime = len(kernel.gcd_cofactors(num.ints, den.ints)[0]) == 1
        if not num.is_zero() and coprime and den.ints[-1] == den.den:
            assert f.num is num and f.den is den
            kept += 1
        else:
            rebuilt += 1
    assert kept >= 100 and rebuilt >= 100, (kept, rebuilt)


def test_constructors_build_the_canonical_pairs():
    rng = random.Random(2)
    for k in range(8):
        assert UniPoly.monomial(k) == UniPoly([0] * k + [1])
    for nvars in (1, 2, 4):
        for axis in range(nvars):
            exp = tuple(int(i == axis) for i in range(nvars))
            assert MultiPoly.variable(nvars, axis) == MultiPoly(nvars, {exp: 1})
        for _ in range(10):
            exp = tuple(rng.randint(0, 3) for _ in range(nvars))
            assert MultiPoly.monomial(nvars, exp) == MultiPoly(nvars, {exp: 1})
    for c in (0, 1, -1, 7, Fraction(-5, 3), Fraction(4, 6)):
        f = RationalFunction.constant(c)
        assert (f.num, f.den) == reference_reduce(UniPoly.constant(c), ONE)
        assert f.as_constant() == c


def _multipoly(rng: random.Random, nvars: int) -> MultiPoly:
    terms = {}
    for _ in range(rng.randint(0, 5)):
        exp = tuple(rng.randint(0, 2) for _ in range(nvars))
        terms[exp] = rng.choice((1, -1, _rational(rng)))
    return MultiPoly(nvars, terms)


def test_format_and_repr_match_the_fraction_terms():
    rng = random.Random(3)
    polys = [MultiPoly(2, {}), MultiPoly.constant(3, Fraction(-7, 2)), MultiPoly.constant(1, 1)]
    polys += [_multipoly(rng, rng.randint(1, 4)) for _ in range(400)]
    for F in polys:
        for first in (0, 1):
            assert format_multipoly(F, first) == reference_format(F, first)
        assert repr(F) == reference_repr(F)
    rendered = "".join(format_multipoly(F) for F in polys)
    assert "/" in rendered and "-" in rendered  # rational and negative coefficients occur


def test_coprime_basis_order_is_the_fraction_order():
    rng = random.Random(4)
    sizes = []
    for _ in range(120):
        ps = [p for p in (_poly(rng, 3) for _ in range(rng.randint(1, 4))) if not p.is_zero()]
        ps += [ps[0] * ps[-1]] if ps else []
        basis = coprime_basis(ps)
        assert list(basis) == sorted(basis, key=lambda q: (q.degree, q.coeffs))
        sizes.append(len({q.den for q in basis}))
    assert max(sizes) >= 2  # bases whose elements have different denominators


def test_negative_powers_and_as_constant():
    for num, den in _pairs(5, 300):
        f = RationalFunction(num, den)
        if f.is_zero():
            with pytest.raises(ZeroDivisionError):
                f ** -1
            assert f.as_constant() == 0
            continue
        lc = _lc(f.num)
        inverse = RationalFunction._coprime(f.den / lc, f.num / lc)
        for k in (1, 2, 3):
            got = f ** -k
            assert (got.num, got.den) == ((inverse ** k).num, (inverse ** k).den)
        if f.is_constant():
            assert f.as_constant() == lc
        else:
            with pytest.raises(ValueError):
                f.as_constant()

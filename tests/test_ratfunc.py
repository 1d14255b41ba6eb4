"""Reduced rational functions, places, valuations, gcd-free bases."""

import math
import random
from fractions import Fraction

import pytest

from torigcd import ratfunc
from torigcd.errors import HypothesisError
from torigcd.parsing import parse_place, parse_ratfunc, parse_unipoly
from torigcd.randgen import random_ratfunc, random_unipoly
from torigcd.ratfunc import (
    INFINITY,
    Place,
    RationalFunction,
    _refine,
    coprime_basis,
    divisor_exponents,
    factor_over_basis,
    gcd_free_places,
    place_multiplicity,
    valuation,
)
from torigcd.unipoly import ONE, UniPoly, divide_out, uni_gcd, uni_gcd_cofactors, yun_factors

rf = parse_ratfunc
up = parse_unipoly


def test_reduction_examples():
    assert rf("(z^2-1)/(z-1)") == rf("z+1")
    assert rf("(2*z)/(2)") == rf("z")
    assert rf("(z)/(z)") == rf("1")


def test_reduced_invariants_hold_after_arithmetic():
    rng = random.Random(3)
    for _ in range(80):
        f = random_ratfunc(rng, 4)
        g = random_ratfunc(rng, 4)
        for h in (f + g, f - g, f * g):
            assert h.den.ints[-1] == h.den.den
            assert uni_gcd(h.num, h.den) == ONE or h.num.is_zero()
        if not g.is_zero():
            h = f / g
            assert h.den.ints[-1] == h.den.den


def test_field_inverse_and_pow():
    f = rf("(z^2+1)/(z-3)")
    assert f * f**-1 == rf("1")
    assert f**3 == f * f * f
    assert f**0 == rf("1")
    with pytest.raises(ZeroDivisionError):
        rf("0") ** -1


def test_pow_equals_reduced_construction():
    rng = random.Random(5)
    fs = [random_ratfunc(rng, 4) for _ in range(40)] + [rf("0"), rf("-3/7"), rf("(2*z)/(3*z^2-1)")]
    for f in fs:
        for k in range(-3, 5):
            if k < 0 and f.is_zero():
                continue
            m = abs(k)
            num, den = (f.num**m, f.den**m) if k >= 0 else (f.den**m, f.num**m)
            assert f**k == RationalFunction(num, den)


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        RationalFunction(up("z"), up("0"))


def test_place_validation():
    with pytest.raises(HypothesisError):
        Place.finite(up("3"))
    with pytest.raises(HypothesisError):
        Place.finite(up("z^2+2*z+1"))
    pl = Place.finite(up("2*z-2"))
    assert pl.poly == up("z-1")
    assert INFINITY.is_infinite() and INFINITY.degree == 1
    assert Place.finite(up("z^2+1")).degree == 2


def test_place_multiplicity_and_partial_overlap():
    assert place_multiplicity(up("(z-1)^3*(z+2)"), up("z-1")) == 3
    assert place_multiplicity(up("z+2"), up("z-1")) == 0
    # z(z-1)^2 against the squarefree place z(z-1): neither coprime nor fully
    # dividing after one step, so the multiplicity is ill defined
    with pytest.raises(HypothesisError):
        place_multiplicity(up("z*(z-1)^2"), up("z^2-z"))


def _multiplicity_by_gcd(p, place_poly):
    """The overlap test on every place: divide out, then take the gcd."""
    if p.is_zero():
        raise ZeroDivisionError("multiplicity of the zero polynomial")
    e, rest = divide_out(p, place_poly)
    if not uni_gcd(rest, place_poly).is_constant():
        raise HypothesisError(
            "place polynomial overlaps the argument only partially",
            {"place": str(place_poly)},
        )
    return e


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "certificate", None)


def test_place_multiplicity_matches_the_gcd_route():
    # places of every kind, as their linear or irreducible factors; p is a
    # random cofactor times powers of some of those factors, so reducible
    # places also meet arguments they overlap only partially
    rng = random.Random(401)

    def frac():
        return Fraction(rng.randint(-5, 5), rng.randint(1, 3))

    def linear():
        return UniPoly([frac(), rng.choice([1, -2, Fraction(1, 3)])])

    def quadratic(negative):
        # z^2 + b*z + c with a discriminant b^2 - 4c that is not a square
        while True:
            b, c = frac(), frac()
            disc = b * b - 4 * c
            n = disc.numerator * disc.denominator  # a square iff disc is
            if (n < 0) == negative and n != 0 and math.isqrt(abs(n)) ** 2 != n:
                return UniPoly([c, b, 1])

    kinds = {
        "linear": lambda: [linear()],
        "quadratic, negative discriminant": lambda: [quadratic(True)],
        "quadratic, positive non-square discriminant": lambda: [quadratic(False)],
        "reducible squarefree quadratic": lambda: [up("z") + a for a in rng.sample(range(-4, 5), 2)],
        "discriminant 0": lambda: [linear()] * 2,
        "cubic": lambda: rng.choice(
            [[linear(), linear(), linear()], [linear(), quadratic(True)], [up("z^3-2")]]
        ),
    }
    counts = dict.fromkeys(kinds, 0)
    rejected = dict.fromkeys(kinds, 0)
    for _ in range(150):
        for kind, factors in kinds.items():
            fs = factors()
            place = math.prod(fs, start=ONE) * rng.choice([1, -3, Fraction(2, 5)])
            p = random_unipoly(rng, 3, nonzero=True)
            for f in fs:
                p = p * f ** rng.randint(0, 3)
            ours = _outcome(place_multiplicity, p, place)
            assert ours == _outcome(_multiplicity_by_gcd, p, place), (kind, p, place)
            counts[kind] += isinstance(ours, int) and ours > 0
            rejected[kind] += not isinstance(ours, int)
    assert all(counts.values()), counts
    # only places of the last three kinds can overlap an argument partially
    assert [kind for kind, n in rejected.items() if n] == list(kinds)[3:], rejected
    for place in (up("z"), up("z^2+1"), up("z^2-2"), up("z^2-1"), up("z^3-2")):
        for p in (up("0"), up("3"), up("-1/2")):
            assert _outcome(place_multiplicity, p, place) == _outcome(_multiplicity_by_gcd, p, place)
        assert place_multiplicity(up("5"), place) == 0
        with pytest.raises(ZeroDivisionError):
            place_multiplicity(up("0"), place)
    for p in (up("z^2+1"), up("7")):
        for const in (up("3"), up("0")):
            assert _outcome(place_multiplicity, p, const) == _outcome(_multiplicity_by_gcd, p, const)
            with pytest.raises(ValueError, match="divide_out needs a nonconstant divisor"):
                place_multiplicity(p, const)


def _valuation_by_gcd(f, pl):
    """The valuation with the overlap test on every place, numerator then denominator."""
    if f.is_zero():
        raise ZeroDivisionError("valuation of the zero function")
    if pl.is_infinite():
        return f.den.degree - f.num.degree
    return _multiplicity_by_gcd(f.num, pl.poly) - _multiplicity_by_gcd(f.den, pl.poly)


def test_valuation_matches_the_gcd_route():
    # linear places with a non-unit leading coefficient (as given, and as a
    # monic place), the place z, an irreducible quadratic, and reducible
    # places whose factors enter the numerator or the denominator (or both,
    # before reduction) to different powers: a partial overlap must raise
    # the same HypothesisError, from the same side, as the gcd route
    rng = random.Random(433)
    z = up("z")
    places = [
        [up("3*z-2")],
        [up("-5*z+1")],
        [up("2*z+7")],
        [z],
        [up("z^2+z+1")],
        [z, up("z-1")],
        [up("2*z+1"), up("z+3")],
        [z, up("z^2+2")],
    ]
    outcomes = {"positive": 0, "negative": 0, "zero": 0, "num overlap": 0, "den overlap": 0}
    for _ in range(400):
        fs = rng.choice(places)
        place = math.prod(fs, start=ONE) * rng.choice([1, -3, Fraction(2, 5)])
        num = random_unipoly(rng, 2, nonzero=True)
        den = random_unipoly(rng, 2, nonzero=True)
        for f in fs:
            num = num * f ** rng.choice([0, 0, 1, 2])
            den = den * f ** rng.choice([0, 0, 1, 3])
        f = RationalFunction(num, den)
        ours = _outcome(place_multiplicity, f.num, place), _outcome(place_multiplicity, f.den, place)
        assert ours == (_outcome(_multiplicity_by_gcd, f.num, place), _outcome(_multiplicity_by_gcd, f.den, place))
        pl = Place.finite(place)
        got = _outcome(valuation, f, pl)
        assert got == _outcome(_valuation_by_gcd, f, pl), (f, pl)
        if isinstance(got, int):
            outcomes["positive" if got > 0 else "negative" if got < 0 else "zero"] += 1
        else:
            assert got[0] is HypothesisError
            outcomes["num overlap" if not isinstance(ours[0], int) else "den overlap"] += 1
    assert all(outcomes.values()), outcomes


def test_valuation_examples():
    assert valuation(rf("(z^2)/(z+1)"), parse_place("z")) == 2
    assert valuation(rf("(z^2)/(z+1)"), INFINITY) == -1
    assert valuation(rf("(z-1)/(z+1)"), parse_place("z")) == 0
    with pytest.raises(ZeroDivisionError):
        valuation(rf("0"), INFINITY)


def test_coprime_basis_examples():
    assert coprime_basis([up("z^2"), up("z^3")]) == (up("z"),)
    assert coprime_basis([up("z^2-1"), up("z-1")]) == (up("z-1"), up("z+1"))
    assert coprime_basis([up("z"), up("z+1")]) == (up("z"), up("z+1"))
    assert coprime_basis([up("5")]) == ()


def test_coprime_basis_properties():
    rng = random.Random(13)
    for _ in range(60):
        ps = []
        for _ in range(rng.randint(1, 4)):
            p = UniPoly([rng.randint(-3, 3) for _ in range(rng.randint(1, 5))])
            if not p.is_zero():
                ps.append(p)
        if not ps:
            continue
        basis = coprime_basis(ps)
        for b in basis:
            assert b.ints[-1] == b.den and b.degree >= 1
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                assert uni_gcd(basis[i], basis[j]) == ONE
        # every input reconstructs as constant * product of basis powers
        for p in ps:
            exps = factor_over_basis(p, basis)
            prod = ONE
            for b, e in zip(basis, exps):
                prod = prod * b**e
            assert p / Fraction(p.ints[-1], p.den) == prod or p.is_constant()
            if p.is_constant():
                assert all(e == 0 for e in exps)


def _coprime_basis_by_pairs(ps):
    """The gcd-free basis by a gcd of every pending element with every basis element."""
    pending = []
    for p in ps:
        if p.is_zero():
            raise ZeroDivisionError("coprime_basis with a zero input")
        if p.degree >= 1:
            pending.extend(a for a, _ in yun_factors(p))
    basis = []
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
    common = math.lcm(*(q.den for q in basis))
    basis.sort(key=lambda q: (q.degree, tuple(c * (common // q.den) for c in q.ints)))
    return tuple(basis)


def _factor_over_basis_by_division(p, basis):
    """Exponents of p by dividing out every basis element."""
    if p.is_zero():
        raise ZeroDivisionError("factoring the zero polynomial")
    exps = []
    for b in basis:
        e, p = divide_out(p, b)
        exps.append(e)
    if not p.is_constant():
        raise ValueError("input does not factor over the given basis")
    return exps


def _refinement_family(rng):
    """Inputs with rational, repeated, shared, non-monic and quadratic factors, and constants."""
    linear = [up(f"z+{a}") * c for a in (-2, 0, 1, Fraction(1, 3)) for c in (1, -2, Fraction(3, 5))]
    quadratic = [up("z^2+1"), up("z^2-2"), up("3*z^2+z+1"), up("z^2-1"), up("2*z^2-3*z+1")]
    ps = []
    for _ in range(rng.randint(1, 5)):
        p = UniPoly.constant(Fraction(rng.choice([1, -2, 3]), rng.choice([1, 7])))
        if rng.random() < 0.5:
            p = p * random_unipoly(rng, 3, nonzero=True)
        for _ in range(rng.randint(0, 3)):
            p = p * rng.choice(linear + quadratic) ** rng.randint(1, 4)
        if ps and rng.random() < 0.3:
            p = p * rng.choice(ps)
        ps.append(p)
    return ps


def test_refinement_matches_the_pairwise_basis_and_division():
    # byte-identical bases, and the carried exponents of every input are
    # what dividing it by every element gives
    rng = random.Random(1201)
    seen = {"irreducible quadratic": 0, "composite": 0, "repeated": 0}
    for _ in range(600):
        ps = _refinement_family(rng)
        refined = _refine(ps)
        basis = coprime_basis(ps)
        expected = _coprime_basis_by_pairs(ps)
        assert [(b.ints, b.den) for b in basis] == [(b.ints, b.den) for b in expected], ps
        assert tuple(b for b, _ in refined) == basis
        for j, p in enumerate(ps):
            carried = [e.get(j, 0) for _, e in refined]
            assert carried == _factor_over_basis_by_division(p, basis), (ps, j)
            assert factor_over_basis(p, basis) == carried
            seen["repeated"] += any(x > 1 for x in carried)
        for b, e in refined:
            assert all(x >= 1 for x in e.values())
            seen["irreducible quadratic"] += ratfunc._irreducible(b) and b.degree == 2
            seen["composite"] += not ratfunc._irreducible(b)
    assert all(seen.values()), seen


def test_refinement_of_irreducible_inputs_takes_no_gcd(monkeypatch):
    # distinct linear and irreducible quadratic inputs are coprime without a gcd
    ps = [up(f"z+{i}") * (i + 1) for i in range(1, 60)] + [up("z^2+1"), up("z^2-2"), up("z+1")]
    expected = _coprime_basis_by_pairs(ps)

    def no_gcd(p, q):
        raise AssertionError("factor refinement took a gcd of irreducible elements")

    monkeypatch.setattr(ratfunc, "uni_gcd_cofactors", no_gcd)
    monkeypatch.setattr(ratfunc, "uni_gcd", no_gcd)
    assert coprime_basis(ps) == expected
    refined = _refine(ps)
    assert refined[0] == (up("z+1"), {0: 1, len(ps) - 1: 1})


def test_principal_divisor_has_degree_zero():
    rng = random.Random(31)
    for _ in range(60):
        f = random_ratfunc(rng, 5, nonzero=True)
        places = gcd_free_places([f])
        basis = [pl.poly for pl in places]
        finite, at_inf = divisor_exponents(f, basis)
        total = sum(e * b.degree for e, b in zip(finite, basis)) + at_inf
        assert total == 0, f


def test_factor_over_basis_rejects_missing_factor():
    with pytest.raises(ValueError):
        factor_over_basis(up("z^2-1"), [up("z-1")])


def test_formatting_round_trip():
    rng = random.Random(43)
    for _ in range(40):
        f = random_ratfunc(rng, 4)
        assert rf(str(f)) == f

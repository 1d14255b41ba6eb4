"""Sparse multivariate polynomials: ring laws, gcd, substitution devices."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torigcd import multipoly
from torigcd.multipoly import (
    MultiPoly,
    _free_of,
    coprime_multivariate,
    dehomogenize,
    equalize_degrees,
    evaluate_poly,
    format_multipoly,
    homogenize,
    mv_exact_div,
    mv_gcd,
    substitute,
)
from torigcd.parsing import parse_multipoly, parse_ratfunc, parse_unipoly
from torigcd.ratfunc import RationalFunction

NVARS = 3


def mp(text, nvars=NVARS, first_index=0):
    return parse_multipoly(text, nvars, first_index=first_index)


exponents = st.tuples(*(st.integers(0, 3) for _ in range(NVARS)))
terms = st.dictionaries(
    exponents, st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4)), max_size=4
)
mpolys = terms.map(lambda t: MultiPoly(NVARS, t))


def test_add_examples():
    assert mp("x1") + mp("0-x1") == mp("0")
    assert mp("x0^2+x1") + mp("x1") == mp("x0^2+2*x1")
    assert mp("3/2*x0*x1") + mp("1/2*x0*x1") == mp("2*x0*x1")


def test_mul_examples():
    assert mp("x0") * mp("x1") == mp("x0*x1")
    assert mp("x0+x1") ** 2 == mp("x0^2+2*x0*x1+x1^2")
    assert mp("0") * mp("x0^2-x1") == mp("0")


@given(mpolys, mpolys, mpolys)
@settings(max_examples=120, deadline=None)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def test_arity_mismatch_rejected():
    with pytest.raises(ValueError):
        mp("x0", 2) + mp("x0", 3)


def test_homogenize_examples():
    F = parse_multipoly("x1-1", 1, first_index=1)
    assert homogenize(F, 1) == parse_multipoly("x1-x0", 2)
    G = parse_multipoly("x1*x2+x1+1", 2, first_index=1)
    assert homogenize(G, 2) == parse_multipoly("x1*x2+x0*x1+x0^2", 3)
    assert homogenize(parse_multipoly("1", 2, first_index=1), 3) == parse_multipoly(
        "x0^3", 3
    )
    with pytest.raises(ValueError):
        homogenize(G, 1)


def test_homogenize_dehomogenize_round_trip():
    rng = random.Random(7)
    for _ in range(40):
        terms = {
            (rng.randint(0, 2), rng.randint(0, 2)): Fraction(rng.randint(-3, 3))
            for _ in range(rng.randint(1, 4))
        }
        F = MultiPoly(2, terms)
        if F.is_zero():
            continue
        d = F.total_degree() + rng.randint(0, 2)
        H = homogenize(F, d)
        assert H.is_homogeneous() and H.total_degree() == d
        assert dehomogenize(H) == F


def test_equalize_degrees():
    F = parse_multipoly("x1-1", 2, first_index=1)
    G = parse_multipoly("x2^2-2", 2, first_index=1)
    Fe, Gh = equalize_degrees(F, G)
    assert Fe == F**2 and Gh == G
    assert Fe.total_degree() == Gh.total_degree() == 2
    H = parse_multipoly("x1", 2, first_index=1)
    assert equalize_degrees(H, H) == (H, H)
    with pytest.raises(ValueError):
        equalize_degrees(F, parse_multipoly("3", 2, first_index=1))


def test_substitute_examples():
    F = parse_multipoly("x1-1", 1, first_index=1)
    assert substitute(F, [parse_ratfunc("z") ** 3]) == parse_ratfunc("z^3-1")
    G = parse_multipoly("x1*x2", 2, first_index=1)
    gs = [parse_ratfunc("z"), parse_ratfunc("(1)/(z)")]
    assert substitute(G, [g**2 for g in gs]) == parse_ratfunc("1")
    H = parse_multipoly("x1+x2", 2, first_index=1)
    assert substitute(H, [parse_ratfunc("z"), parse_ratfunc("z+1")]) == parse_ratfunc("2*z+1")


def test_substitute_two_routes_agree():
    rng = random.Random(11)
    gs = [parse_ratfunc("(z^2-1)/(z)"), parse_ratfunc("z+2"), parse_ratfunc("(1)/(z-3)")]
    for _ in range(25):
        terms = {
            tuple(rng.randint(0, 2) for _ in range(3)): Fraction(rng.randint(-3, 3))
            for _ in range(rng.randint(1, 4))
        }
        F = MultiPoly(3, terms)
        k = rng.randint(1, 3)
        F_k = MultiPoly(3, {tuple(k * x for x in e): c for e, c in F.terms.items()})
        assert substitute(F, [g**k for g in gs]) == substitute(F_k, gs)


def test_evaluate_poly_matches_substitute():
    F = mp("x0^2-x1*x2+1/2*x2")
    gs = [parse_unipoly("z"), parse_unipoly("z^2-1"), parse_unipoly("2*z+3")]
    val = evaluate_poly(F, gs)
    via_rf = substitute(F, [parse_ratfunc(str(g)) for g in gs])
    assert via_rf.is_polynomial()
    assert via_rf.num == val


def _substitute_reference(F, hs):
    """F(h_1, ..., h_n) summed term by term in reduced rational arithmetic."""
    acc = RationalFunction.constant(0)
    for exp, coeff in F.terms.items():
        term = RationalFunction.constant(coeff)
        for h, e in zip(hs, exp):
            term = term * h**e
        acc = acc + term
    return acc


# bases share the denominators z, z-1 and (z-1)^2; drawing with replacement
# repeats bases, and 0 and constants stand in for degenerate arguments
SUBSTITUTE_BASES = [
    parse_ratfunc(t)
    for t in (
        "0", "3/2", "z", "(z+1)/z", "(z^2-2)/z", "1/(z-1)", "(2*z+1)/(z-1)^2",
        "(z^2+z)/((z-1)*z)", "(z-1)/(z^2+1)", "z^3-z+1/3",
    )
]


@given(mpolys, st.lists(st.sampled_from(SUBSTITUTE_BASES), min_size=NVARS, max_size=NVARS))
@settings(max_examples=150, deadline=None)
def test_substitute_matches_term_by_term_reference(F, hs):
    assert substitute(F, hs) == _substitute_reference(F, hs)


def test_substitute_degenerate_polynomials():
    hs = [parse_ratfunc("(z+1)/z"), parse_ratfunc("1/(z-1)"), parse_ratfunc("(z+1)/z")]
    assert substitute(mp("0"), hs) == RationalFunction.constant(0)
    assert substitute(mp("-5/3"), hs) == RationalFunction.constant(Fraction(-5, 3))
    # x1 is absent and x0, x2 share one base
    F = mp("x0^2*x2-3*x2^3+x0")
    assert substitute(F, hs) == _substitute_reference(F, hs)
    assert substitute(F, hs) == substitute(mp("x0^3-3*x0^3+x0", 1), hs[:1])


def test_coprime_examples():
    A = parse_multipoly("x1-1", 2, first_index=1)
    B = parse_multipoly("x2-1", 2, first_index=1)
    assert coprime_multivariate(A, B)
    C = parse_multipoly("x1*x2-x1", 2, first_index=1)
    assert not coprime_multivariate(C, B)
    D = parse_multipoly("x1^2+x2^2", 2, first_index=1)
    E = parse_multipoly("x1^2-x2^2", 2, first_index=1)
    assert coprime_multivariate(D, E)
    with pytest.raises(ZeroDivisionError):
        coprime_multivariate(A, parse_multipoly("0", 2, first_index=1))


def test_mv_gcd_pulls_out_common_factor():
    rng = random.Random(13)
    trials = 0
    while trials < 30:
        def rand_poly():
            terms = {
                tuple(rng.randint(0, 2) for _ in range(2)): Fraction(rng.randint(-3, 3))
                for _ in range(rng.randint(1, 3))
            }
            return MultiPoly(2, terms)

        H, A, B = rand_poly(), rand_poly(), rand_poly()
        if H.is_zero() or A.is_zero() or B.is_zero():
            continue
        trials += 1
        g = mv_gcd(A * H, B * H)
        expected = mv_gcd(A, B) * H
        # both normalized: lex-leading coefficient one
        quot = mv_exact_div(g, expected)
        assert quot.is_constant()


def test_mv_exact_div_detects_nondivisor():
    with pytest.raises(ValueError):
        mv_exact_div(mp("x0^2+x1"), mp("x0+1"))
    assert mv_exact_div(mp("x0^2-x1^2"), mp("x0-x1")) == mp("x0+x1")


def _roadmap_pair(d):
    F = mp(f"(x1+2*x2-x3+1)^{d}+x1*x2^{d - 1}-3", first_index=1)
    G = mp(f"(x1-x2+3*x3-2)^{d}+x3^{d}+5", first_index=1)
    return F, G


@pytest.mark.parametrize("d", [3, 4, 5])
def test_coprime_dense_three_variable_pair(d):
    assert coprime_multivariate(*_roadmap_pair(d))


def test_mv_gcd_recovers_planted_factor_of_dense_pair():
    F, G = _roadmap_pair(5)
    H = mp("x1*x3-2*x2+7", first_index=1)
    assert format_multipoly(mv_gcd(F * H, G * H), first_index=1) == "x1*x3-2*x2+7"


@pytest.mark.parametrize(
    "F, G, nvars",
    [
        # GCDHEU's images of this pair would reach coefficients of about
        # 2*10^6 bits at the second variable set
        ("x1^1000*x2^1000*x3^1000+1", "x1^1000*x2^1000*x3^1000+x1+2", 3),
        ("x1^1000*x2^1000*x3^1000*x4^1000+1", "x1^1000*x2^1000*x3^1000*x4^1000+x1+2", 4),
        ("(x1+x2)^100-x1^100", "(x1-x2)^100+x2^99", 2),
    ],
)
def test_coprime_high_degree_pairs(F, G, nvars):
    assert coprime_multivariate(mp(F, nvars, first_index=1), mp(G, nvars, first_index=1))


def test_coprime_when_every_small_point_shares_a_root():
    # G(t, t) = (t-1)(t+1)(t-3), so at x2 = 1, -1 and 3 both restrictions
    # to x1 vanish at x1 = x2; GCDHEU decides the pair instead
    F, G = mp("x1-x2", 2, first_index=1), mp("x1^3-3*x1^2-x2+3", 2, first_index=1)
    assert not _free_of(F.ints, G.ints, {0})
    assert coprime_multivariate(F, G)


def test_free_of_evaluates_each_input_once_per_point(monkeypatch):
    # at all ones every restriction pair is (x, x^2), at all minus ones it is
    # (x - 78, x^2): each of the 40 variables needs the second point
    names = [f"x{i}" for i in range(40)]
    F = mp("+".join(names) + "-39", 40)
    G = mp("+".join(n + "^2" for n in names) + "-39", 40)
    seen = []
    evaluated = multipoly._evaluated

    def counted(a, point):
        seen.append(a)
        return evaluated(a, point)

    monkeypatch.setattr(multipoly, "_evaluated", counted)
    assert _free_of(F.ints, G.ints, set(range(40)))
    assert seen == [F.ints, G.ints] * 2
    seen.clear()
    assert coprime_multivariate(F, G)
    assert 0 < seen.count(F.ints) <= 3 and 0 < seen.count(G.ints) <= 3


def test_mv_gcd_of_high_degree_pair_with_one_variable_factor():
    # x3+5 is not free of x3, so GCDHEU sets x3; one level down the gcd of
    # the images is an integer, which the small points prove
    F = mp("(x1^60*x2^60*x3^60+1)*(x3+5)", first_index=1)
    G = mp("(x1^60*x2^60*x3^60+x1+2)*(x3+5)", first_index=1)
    assert format_multipoly(mv_gcd(F, G), first_index=1) == "x3+5"


def test_format_round_trip():
    rng = random.Random(17)
    for _ in range(40):
        terms = {
            tuple(rng.randint(0, 3) for _ in range(NVARS)): Fraction(
                rng.randint(-5, 5), rng.randint(1, 3)
            )
            for _ in range(rng.randint(1, 4))
        }
        F = MultiPoly(NVARS, terms)
        assert mp(format_multipoly(F)) == F


def _assert_canonical(F):
    """Integer numerators over one positive denominator, in lowest terms."""
    assert type(F.den) is int and F.den > 0
    assert all(type(c) is int and c for c in F.ints.values())
    assert math.gcd(F.den, *F.ints.values()) == 1
    if F.is_zero():
        assert F.ints == {} and F.den == 1


@given(mpolys, mpolys, st.integers(0, 3), st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5)))
@settings(max_examples=120, deadline=None)
def test_integer_form_is_canonical(a, b, k, c):
    for F in (a, b, a + b, a - b, -a, a * b, a * c, a**k, (a * c).mul_monomial((1, 0, 2)),
              homogenize(a, max(a.total_degree(), 0) + 1)):
        _assert_canonical(F)
    _assert_canonical(dehomogenize(homogenize(a, max(a.total_degree(), 0))))


def test_integer_form_examples():
    F = mp("3/4*x0^2-1/6*x1+2")
    assert F.ints == {(2, 0, 0): 9, (0, 1, 0): -2, (0, 0, 0): 24} and F.den == 12
    G = mp("4*x0-6*x1")
    assert G.ints == {(1, 0, 0): 4, (0, 1, 0): -6} and G.den == 1
    assert (G / 4).ints == {(1, 0, 0): 2, (0, 1, 0): -3} and (G / 4).den == 2
    assert mp("0").ints == {} and mp("0").den == 1
    assert (F - F).ints == {} and (F - F).den == 1


def test_terms_is_a_read_only_fraction_view():
    F = mp("3/4*x0^2-1/6*x1+2")
    assert F.terms == {
        (2, 0, 0): Fraction(3, 4), (0, 1, 0): Fraction(-1, 6), (0, 0, 0): Fraction(2),
    }
    assert all(type(c) is Fraction for c in F.terms.values())
    with pytest.raises(TypeError):
        F.terms[(0, 0, 0)] = Fraction(1)
    assert MultiPoly(NVARS, F.terms) == F


def test_equality_and_hash_across_fraction_and_int_input():
    exp = (1, 0, 2)
    as_int = MultiPoly(NVARS, {exp: 2, (0, 0, 0): -3})
    as_fraction = MultiPoly(NVARS, {exp: Fraction(4, 2), (0, 0, 0): Fraction(-3)})
    merged = MultiPoly(NVARS, [(exp, Fraction(1, 2)), (exp, Fraction(3, 2)), ((0, 0, 0), -3)])
    assert as_int == as_fraction == merged
    assert hash(as_int) == hash(as_fraction) == hash(merged)
    half = MultiPoly(NVARS, {exp: Fraction(1, 2)})
    assert half != MultiPoly(NVARS, {exp: 1}) and half * 2 == MultiPoly(NVARS, {exp: 1})
    assert mp("5/3") == Fraction(5, 3) and mp("7") == 7 and mp("0") == 0
    assert len({as_int, as_fraction, merged, half}) == 2


# (nvars, F, G, mv_gcd(F, G)) recorded from the Fraction-coefficient
# implementation; G and F share a planted random factor
MV_GCD_RECORDED = [
    (2, "4/3*x0^4*x1^4+4*x0^3*x1^2-4*x0^2*x1^2", "16/3*x0^3*x1^4+2/3*x0^3*x1^3", "x0^2*x1^2"),
    (2, "4/3*x0^2*x1^3-1/2*x0*x1^3", "x0^2*x1^3-2/3*x1^2", "x1^2"),
    (2, "-3*x0^3*x1^3-3/2*x0^3*x1^2-6*x0*x1^3-3*x0*x1^2", "-4*x0*x1^4-2*x0*x1^3",
     "x0*x1^3+1/2*x0*x1^2"),
    (2, "3*x0^2*x1+9*x1-9", "4*x0^2*x1-6*x1", "1"),
    (2, "-4*x0^3", "2*x0^3", "x0^3"),
    (3, "-16/3*x0^2*x1^4-12*x0*x1^4*x2-16*x1^2*x2^2",
     "16/3*x0^4*x1^4-16/3*x0^4*x1^2*x2+12*x0^3*x1^4*x2-12*x0^3*x1^2*x2^2"
     "+16*x0^2*x1^2*x2^2-16*x0^2*x2^3",
     "x0^2*x1^2+9/4*x0*x1^2*x2+3*x2^2"),
    (2, "-x0^3*x1^2-1/3*x0^3*x1+x0^2*x1+1/3*x0^2", "-2*x0^2*x1^3+x0^2*x1+2*x0*x1^2-x0",
     "x0^2*x1-x0"),
    (2, "8*x0^4*x1^3-4*x0^2*x1^3", "4*x0^3*x1-2*x0*x1", "x0^3*x1-1/2*x0*x1"),
    (2, "4*x0^2*x1+7*x0*x1-2*x1", "3*x0*x1^2+6*x1^2", "x0*x1+2*x1"),
    (3, "6*x0^3*x1^2*x2+x0^2*x1^3-2/3*x0^2*x1^2*x2^2",
     "-6*x0^3*x1^2*x2^3-x0^2*x1^3*x2^2-9*x0^2*x1^3*x2+2/3*x0^2*x1^2*x2^4"
     "-3/2*x0*x1^4+x0*x1^3*x2^2",
     "x0^2*x1^2*x2+1/6*x0*x1^3-1/9*x0*x1^2*x2^2"),
    (3, "-8/3*x0^2*x1^2*x2+4/3*x0^2*x2-2*x0*x2", "8/3*x0^2*x2^2", "x0*x2"),
    (2, "-4*x0^2+6*x1^2", "-2*x0^2*x1^2+2/3*x0^2", "1"),
    (2, "-2/3*x0^3*x1^4-1/3*x0^3*x1^2", "4/9*x0^4*x1^3-8/9*x0^2*x1^3", "x0^2*x1^2"),
    (2, "9*x0^4*x1^2-12*x0^3*x1^3", "-6*x0^3*x1^3+3*x0^3*x1^2", "x0^3*x1^2"),
    (2, "8/3*x0^2*x1^2-16/3*x0*x1", "-16/3*x0", "x0"),
    (2, "2*x0^3*x1", "-3/2*x0^2*x1^3+3*x0^2*x1^2", "x0^2*x1"),
]


@pytest.mark.parametrize("nvars, F, G, gcd", MV_GCD_RECORDED)
def test_mv_gcd_matches_recorded_results(nvars, F, G, gcd):
    g = mv_gcd(mp(F, nvars), mp(G, nvars))
    _assert_canonical(g)
    assert format_multipoly(g) == gcd

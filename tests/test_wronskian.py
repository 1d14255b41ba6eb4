"""Wronskians and the two local inequalities of the gcd bound proof."""

import random
import sys
from fractions import Fraction
from math import factorial

import pytest

from torigcd.errors import HypothesisError
from torigcd.idealslice import binom, build_basis_slice, slice_constants
from torigcd.linalg import rank
from torigcd.multipoly import MultiPoly, evaluate_poly, format_multipoly
from torigcd.nevandeg import mult_independent
from torigcd.ordering import Weight
from torigcd.parsing import parse_multipoly, parse_ratfunc, parse_unipoly
from torigcd.randgen import random_coprime_pair, random_ratfunc, random_unipoly
from torigcd.ratfunc import Place, RationalFunction, coprime_basis, place_multiplicity, valuation
from torigcd.unipoly import UniPoly, format_unipoly, uni_gcd, uni_gcd_list
from torigcd.wronskian import (
    LocalCheckReport,
    _poly_det,
    _wronskian,
    bs_check,
    ordw_check,
    wronskian,
)


def rf(text):
    return parse_ratfunc(text)


def test_wronskian_examples():
    assert wronskian([rf("1"), rf("z"), rf("z^2")]) == rf("2")
    f = rf("(z+1)/(z-1)")
    assert wronskian([f, f]).is_zero()
    assert wronskian([rf("z^3")]) == rf("z^3")


def test_wronskian_monomial_ladder():
    # W(1, z, .., z^{M-1}) is the constant prod_{j<M} j!
    for M in range(1, 6):
        fs = [rf(f"z^{j}") if j else rf("1") for j in range(M)]
        expect = 1
        for j in range(M):
            expect *= factorial(j)
        assert wronskian(fs) == RationalFunction.constant(expect)


def test_wronskian_alternation_and_scaling():
    rng = random.Random(211)
    for _ in range(20):
        M = rng.randint(2, 4)
        fs = [random_ratfunc(rng, 3, nonzero=True) for _ in range(M)]
        w = wronskian(fs)
        i, j = rng.sample(range(M), 2)
        swapped = list(fs)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        assert wronskian(swapped) == -w
        c = Fraction(rng.choice([-3, -2, 2, 5]), rng.choice([1, 2]))
        scaled = list(fs)
        scaled[i] = scaled[i] * RationalFunction.constant(c)
        assert wronskian(scaled) == w * RationalFunction.constant(c)


def test_wronskian_zero_iff_dependent():
    # cross-check against coefficient-matrix rank for polynomial inputs
    rng = random.Random(223)
    for _ in range(40):
        M = rng.randint(2, 4)
        fs = [random_unipoly(rng, 3, nonzero=True) for _ in range(M)]
        rows = [
            [f.coeffs[d] if d <= f.degree else Fraction(0) for d in range(4)]
            for f in fs
        ]
        dependent = rank(rows) < M
        w = wronskian([RationalFunction(f) for f in fs])
        assert w.is_zero() == dependent


def test_wronskian_matches_sympy():
    # independent oracle: the determinant of the derivative matrix over
    # sympy's field QQ(z), with sympy's own derivatives
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    z = sympy.Symbol("z")
    field = sympy.QQ.frac_field(z)
    zf = field.from_sympy(z)

    def to_field(f):
        def poly(p):
            return field.from_sympy(
                sum(sympy.Rational(c.numerator, c.denominator) * z**i for i, c in enumerate(p.coeffs))
            )

        return poly(f.num) / poly(f.den)

    rng = random.Random(307)
    for M in range(1, 6):
        for trial in range(6):
            fs = [random_ratfunc(rng, 2, nonzero=True) for _ in range(M)]
            if trial == 0 and M > 1:
                fs[-1] = fs[0] * RationalFunction.constant(-3)  # dependent: W = 0
            rows = [[to_field(f) for f in fs]]
            for _ in range(M - 1):
                rows.append([e.diff(zf) for e in rows[-1]])
            expect = DomainMatrix(rows, (M, M), field).det()
            assert to_field(wronskian(fs)) == expect


def test_poly_det_matches_sympy():
    # rational entries, a zero leading pivot (a row swap flips the sign),
    # a zero first column and singular matrices, against sympy's det
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    z = sympy.Symbol("z")
    ring = sympy.QQ[z]

    def to_ring(p):
        return ring.from_sympy(sum(sympy.Rational(c.numerator, c.denominator) * z**i for i, c in enumerate(p.coeffs)))

    def entry():
        return UniPoly([Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(rng.randint(0, 3))])

    rng = random.Random(401)
    for n in range(1, 6):
        for trial in range(8):
            m = [[entry() for _ in range(n)] for _ in range(n)]
            singular = False
            if trial == 1 and n > 1:
                m[0][0] = UniPoly()
                m[-1][0] = m[-1][0] or UniPoly([Fraction(3, 4)])
            if trial == 2:
                for row in m:
                    row[0] = UniPoly()
                singular = True
            if trial == 3 and n > 1:
                m[-1] = [p * Fraction(-2, 3) for p in m[0]]
                singular = True
            if trial == 4 and n > 2:
                u = entry() + UniPoly([0, 1])
                m[-1] = [a * u + b * Fraction(5, 2) for a, b in zip(m[0], m[1])]
                singular = True
            det = _poly_det(m)
            assert to_ring(det) == DomainMatrix([[to_ring(p) for p in row] for row in m], (n, n), ring).det()
            assert det.is_zero() or not singular


def test_wronskian_rejects_empty():
    with pytest.raises(ValueError):
        wronskian([])


def test_vanish_order_examples():
    assert valuation(rf("z^3"), Place.finite(parse_unipoly("z"))) == 3
    assert valuation(rf("1/(z-1)"), Place.finite(parse_unipoly("z-1"))) == -1
    q = parse_unipoly("z^2+z+1")
    assert valuation(rf("(z^2+z+1)^2"), Place.finite(q)) == 2
    with pytest.raises(ZeroDivisionError):
        valuation(RationalFunction.constant(0), Place.infinity())


def test_ordw_examples():
    z = Place.finite(parse_unipoly("z"))
    rep = ordw_check([rf("1"), rf("z"), rf("z^2")], z)
    assert (rep.lhs, rep.rhs, rep.passed, rep.vacuous) == (0, 0, True, False)
    rep = ordw_check([rf("z^2"), rf("z^3")], z)
    assert (rep.lhs, rep.rhs) == (4, 4)  # equality case, W = z^4
    assert rep.passed
    rep = ordw_check([rf("1"), rf("z")], Place.finite(parse_unipoly("z-5")))
    assert rep.lhs == -1 and rep.rhs == 0 and rep.passed


def test_ordw_dependent_is_vacuous():
    z = Place.finite(parse_unipoly("z"))
    rep = ordw_check([rf("z"), rf("2*z")], z)
    assert rep.vacuous and rep.passed and rep.rhs == 0
    with pytest.raises(HypothesisError):
        ordw_check([rf("z"), rf("0")], z)


def _check_lemma(fs, w, pl):
    """The untruncated lemma v(W) >= sum v(f_j) - M(M-1)/2 at every place;
    the truncated ordw inequality where no f_j has a pole."""
    M = len(fs)
    vs = [valuation(f, pl) for f in fs]
    assert valuation(w, pl) >= sum(vs) - M * (M - 1) // 2
    if min(vs) >= 0:
        assert ordw_check(fs, pl).passed


def test_ordw_holds_at_gcd_free_places():
    rng = random.Random(227)
    done = 0
    while done < 30:
        M = rng.randint(2, 5)
        fs = [random_ratfunc(rng, 3, nonzero=True) for _ in range(M)]
        w = wronskian(fs)
        if w.is_zero():
            continue  # dependent tuples are vacuous; resample for substance
        done += 1
        # include W's factors so every tested place divides each factorization
        # exactly (compound squarefree places reject partial overlap)
        basis = coprime_basis([p for f in fs for p in (f.num, f.den)] + [w.num, w.den])
        for b in basis:
            _check_lemma(fs, w, Place.finite(b))
        _check_lemma(fs, w, Place.infinity())


def test_ordw_builds_w_once_per_tuple(monkeypatch):
    # the memo holds the last tuple only: over tuples interleaved A, B, A each
    # pass builds W once, and every report equals one built with a cold memo
    assert _wronskian.cache_info().maxsize == 1
    rng = random.Random(229)
    tuples = []
    while len(tuples) < 4:
        fs = tuple(random_ratfunc(rng, 3, nonzero=True) for _ in range(len(tuples) + 2))
        w = wronskian(fs)
        if w.is_zero():
            continue
        basis = coprime_basis([p for f in fs for p in (f.num, f.den)] + [w.num, w.den])
        places = [Place.finite(b) for b in basis]
        cold = []
        for pl in places:
            _wronskian.cache_clear()
            cold.append(ordw_check(fs, pl).to_json())
        tuples.append((fs, places, cold))

    builds = []

    def counting(m):
        builds.append(len(m))
        return _poly_det(m)

    monkeypatch.setattr(sys.modules["torigcd.wronskian"], "_poly_det", counting)
    for a, b in zip(tuples, tuples[1:]):
        for fs, places, cold in (a, b, a):
            builds.clear()
            assert [ordw_check(fs, pl).to_json() for pl in places] == cold
            assert builds == [len(fs)]


def test_ordw_formats_w_once_per_tuple(monkeypatch):
    # the memo holds W's text beside W: ordw_check at every place of a tuple
    # formats W once, and every report carries that text
    rng = random.Random(233)
    while True:
        fs = tuple(random_ratfunc(rng, 3, nonzero=True) for _ in range(3))
        w = wronskian(fs)
        if w.is_zero():
            continue
        basis = coprime_basis([p for f in fs for p in (f.num, f.den)] + [w.num, w.den])
        if len(basis) > 2:
            break
    places = [Place.finite(b) for b in basis]
    formatted = []
    module = sys.modules["torigcd.wronskian"]
    real = module.format_ratfunc

    def counting(f):
        formatted.append(f)
        return real(f)

    monkeypatch.setattr(module, "format_ratfunc", counting)
    _wronskian.cache_clear()
    reports = [ordw_check(fs, pl) for pl in places]
    assert wronskian(fs) == w  # W alone, from the same memo
    assert formatted == [w]
    assert all(r.info["wronskian"] == real(w) for r in reports)


def test_ordw_truncated_form_can_fail_at_a_pole():
    # f1 has a simple pole at z and f2 a double zero: lhs = 0 + 2 - 1 = 1,
    # while W has a pole there, so rhs = 0; the untruncated lemma still holds
    fs = [rf("(-1/2*z+1/2)/(z^3+1/2*z^2-1/2*z)"), rf("(2/3*z^3+z^2)/(z^2-2/3*z-1/3)")]
    z = Place.finite(parse_unipoly("z"))
    rep = ordw_check(fs, z)
    assert (rep.lhs, rep.rhs, rep.passed, rep.vacuous) == (1, 0, False, False)
    assert valuation(wronskian(fs), z) >= sum(valuation(f, z) for f in fs) - 1


def test_bs_example_linear_forms():
    rep = bs_check(
        parse_multipoly("x0", 2),
        parse_multipoly("x1", 2),
        2,
        [parse_unipoly("z"), parse_unipoly("z+1")],
        Place.finite(parse_unipoly("z")),
    )
    assert rep.passed
    assert rep.info["u"] == [1, 0]
    assert rep.lhs <= rep.rhs


def test_bs_no_vanishing_is_trivial_pass():
    rep = bs_check(
        parse_multipoly("x0", 2),
        parse_multipoly("x1", 2),
        2,
        [parse_unipoly("z+1"), parse_unipoly("z+2")],
        Place.finite(parse_unipoly("z")),
    )
    assert rep.passed and rep.lhs <= 0 <= rep.rhs


def test_bs_quadratic_instance():
    rep = bs_check(
        parse_multipoly("x0^2+x1^2", 3),
        parse_multipoly("x2^2-x0*x1", 3),
        4,
        [parse_unipoly("z^2"), parse_unipoly("z^2-z"), parse_unipoly("z^2-2*z+1")],
        Place.finite(parse_unipoly("z")),
    )
    assert rep.passed


def test_bs_builds_no_slice_polynomial(monkeypatch):
    args = (
        parse_multipoly("x0+x1", 2),
        parse_multipoly("x0-2*x1", 2),
        999,
        [parse_unipoly("(z+2)^3"), parse_unipoly("z+1")],
        Place.finite(parse_unipoly("z+2")),
    )
    expect = bs_check(*args).to_json()

    def no_slice_polynomial(self, exp, c=1):
        raise AssertionError("bs_check built a slice polynomial")

    monkeypatch.setattr(MultiPoly, "mul_monomial", no_slice_polynomial)
    assert bs_check(*args).to_json() == expect


def test_bs_gates():
    gs = [parse_unipoly("z"), parse_unipoly("z+1")]
    F, G = parse_multipoly("x0", 2), parse_multipoly("x1", 2)
    with pytest.raises(HypothesisError):
        bs_check(F, G, 2, [parse_unipoly("z"), parse_unipoly("z^2+z")], Place.finite(parse_unipoly("z")))  # common zero
    with pytest.raises(HypothesisError):
        bs_check(F, G, 2, gs, Place.infinity())  # finite places only
    with pytest.raises(HypothesisError):
        bs_check(F, G, 2, [parse_unipoly("z"), parse_unipoly("0")], Place.finite(parse_unipoly("z")))
    with pytest.raises(HypothesisError):
        bs_check(F, parse_multipoly("x0*x1", 2), 2, gs, Place.finite(parse_unipoly("z")))  # shared factor


def test_bs_random_admissible_instances():
    rng = random.Random(229)
    done = 0
    while done < 25:
        n = rng.randint(1, 2)
        d = rng.randint(1, 2)
        m = rng.randint(d, 2 * d + 2)
        F, G = random_coprime_pair(rng, n + 1, d)
        gs = [random_unipoly(rng, 2, nonzero=True) for _ in range(n + 1)]
        try:
            places = [b for b in coprime_basis(list(gs))]
            pl = Place.finite(rng.choice(places)) if places else Place.finite(parse_unipoly("z"))
            rep = bs_check(F, G, m, gs, pl)
        except HypothesisError:
            continue  # common zero among gs or composed vanishing; resample
        done += 1
        assert rep.passed


def _bs_check_per_element(F, G, m, gs, pl):
    """bs_check by valuing every slice element: v+(B_j(g)/h) summed over B."""
    n = F.nvars - 1
    common = uni_gcd_list(list(gs))
    if common.degree > 0:
        raise HypothesisError(
            "base polynomials must have no common zero",
            {"common_factor": format_unipoly(common)},
        )
    u = tuple(max(0, valuation(RationalFunction(g), pl)) for g in gs)
    s = build_basis_slice(F, G, m, Weight(u))
    consts = slice_constants(m, n, s.d)
    fg = evaluate_poly(s.F1, list(gs))
    gg = evaluate_poly(s.F2, list(gs))
    if fg.is_zero() or gg.is_zero():
        raise HypothesisError(
            "a composed polynomial vanishes identically",
            {"F1(g)": format_unipoly(fg), "F2(g)": format_unipoly(gg)},
        )
    h = uni_gcd(fg, gg)
    rhs = 0
    for beta in s.B:
        val = evaluate_poly(beta, list(gs))
        if val.is_zero():
            raise HypothesisError(
                "a slice element vanishes under composition",
                {"element": format_multipoly(beta)},
            )
        rhs += max(0, valuation(RationalFunction(val, h), pl))
    min_ui = min(
        sum(a * b for a, b in zip(u, e)) for e in set(s.F1.ints) | set(s.F2.ints)
    )
    lhs = consts.c * sum(u) - binom(m + n - 2 * s.d, n) * min_ui
    return LocalCheckReport(
        check="bs",
        place=pl,
        lhs=lhs,
        rhs=rhs,
        passed=lhs <= rhs,
        info={
            "m": m,
            "n": n,
            "d": s.d,
            "c": consts.c,
            "M": consts.M,
            "u": list(u),
            "swapped": s.swapped,
            "tm_tie": s.tm_tie,
            "h": format_unipoly(h),
            "min_weighted_exponent": min_ui,
        },
    )


def _outcome(check, *args):
    try:
        return check(*args).to_json()
    except HypothesisError as exc:
        return str(exc), exc.certificate


def _with_values(roots, values):
    """The polynomial of degree < len(roots) taking the values at the roots."""
    out = UniPoly()
    for r, v in zip(roots, values):
        term = UniPoly.constant(v)
        for t in roots:
            if t != r:
                term = term * UniPoly([Fraction(-t, r - t), Fraction(1, r - t)])
        out = out + term
    return out


def test_bs_matches_per_element_valuations():
    # the sum from two valuations and dot products against valuing each
    # slice element.  Each g takes nonzero values at the roots of the place,
    # so it is clean there (or a power of the place times such a g), and
    # F_s(g) may vanish at some roots only: a partial overlap in a slice
    # element, which both routes must reject alike
    rng = random.Random(1103)
    places = [
        ("z", [0]),
        ("2*z+3", [Fraction(-3, 2)]),
        ("z^2+z", [0, -1]),
        ("z^3-z", [0, 1, -1]),
        ("z^2-3*z", [0, 3]),
        ("z^3-4*z", [0, 2, -2]),
    ]
    overlaps = 0
    for _ in range(1500):
        nvars = rng.randint(2, 4)
        d = rng.randint(1, 2) if nvars < 4 else 1
        m = rng.randint(d, 2 * d + 2)
        F, G = random_coprime_pair(rng, nvars, d)
        text, roots = rng.choice(places)
        P = parse_unipoly(text)
        gs = []
        for _ in range(nvars):
            g = _with_values(roots, [rng.choice((-2, -1, 1, 2)) for _ in roots])
            g = (g + P * random_unipoly(rng, 1)) * P ** rng.choice((0, 0, 1))
            gs.append(g or UniPoly.constant(1))
        pl = Place.finite(P)
        got = _outcome(bs_check, F, G, m, gs, pl)
        assert got == _outcome(_bs_check_per_element, F, G, m, gs, pl)
        if got == ("place polynomial overlaps the argument only partially", {"place": str(pl)}):
            assert all(place_multiplicity(g, pl.poly) >= 0 for g in gs)
            overlaps += 1
    assert overlaps >= 100

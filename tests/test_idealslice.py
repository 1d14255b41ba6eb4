"""Slice bases of the ideal (F1, F2) in one graded piece: counts and sums."""

import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from torigcd.errors import HypothesisError
from torigcd.idealslice import (
    BasisReport,
    asymptotic_check,
    binom,
    build_basis_slice,
    monomial_count,
    monomials_of_degree,
    slice_constants,
    verify_basis,
    verify_sum_formulas,
)
from torigcd.linalg import rank
from torigcd.ordering import LEX, Weight, trailing_monomial
from torigcd.parsing import parse_multipoly
from torigcd.randgen import random_coprime_pair, random_order, random_weight_order


def mp(text, nvars):
    return parse_multipoly(text, nvars)


def by_multisets(nvars, delta):
    """Degree-delta exponent vectors from sorted multisets of variable indices.

    The multisets come out in increasing lex order, which is descending lex
    order on their exponent vectors.
    """
    if delta < 0:
        return []
    out = []
    for indices in itertools.combinations_with_replacement(range(nvars), delta):
        e = [0] * nvars
        for i in indices:
            e[i] += 1
        out.append(tuple(e))
    return out


def int_rows(polys):
    """Integer numerator rows of the polynomials over their joint support."""
    columns = sorted({e for p in polys for e in p.ints})
    return [[p.ints.get(e, 0) for e in columns] for p in polys]


def test_binom_edges():
    assert binom(4, 2) == 6
    assert binom(3, 0) == 1
    assert binom(2, 3) == 0
    assert binom(-1, 2) == 0
    assert binom(5, -1) == 0


def test_monomials_of_degree():
    ms = monomials_of_degree(3, 2)
    assert len(ms) == monomial_count(2, 2) == binom(4, 2) == 6
    assert all(sum(e) == 2 and len(e) == 3 for e in ms)
    assert len(set(ms)) == len(ms)
    # descending lex
    assert ms == sorted(ms, reverse=True)
    assert monomials_of_degree(2, 0) == [(0, 0)]
    for nvars in range(1, 6):
        for delta in range(-1, 9):
            assert monomials_of_degree(nvars, delta) == by_multisets(nvars, delta)
    assert monomials_of_degree(2, 998) == by_multisets(2, 998)
    assert monomials_of_degree(1000, 1) == by_multisets(1000, 1)


def test_slice_constants_examples():
    s = slice_constants(2, 2, 1)
    assert (s.c, s.M, s.Mprime) == (2, 5, 1)
    assert s.L == 5  # ceil(M(M-1)/2 / c) = ceil(10/2)
    s = slice_constants(1, 1, 1)
    assert s.M == 2 and s.c == 0 and s.L is None
    for n in (1, 2, 3):
        for d in (1, 2, 3):
            assert slice_constants(d, n, d).M == 2


def test_slice_constants_consistency():
    for m, n, d in ((3, 2, 1), (4, 2, 2), (5, 3, 2), (7, 1, 1)):
        s = slice_constants(m, n, d)
        assert s.M + s.Mprime == binom(m + n, n)
        assert s.c >= 0 and s.M >= 2
        if s.c:
            # smallest L with L*c >= M(M-1)/2
            assert s.L * s.c >= s.M * (s.M - 1) // 2 > (s.L - 1) * s.c


def test_build_example_quadrics():
    F1 = mp("x0^2+x1*x2", 3)
    F2 = mp("x1^2-x0*x2", 3)
    s = build_basis_slice(F1, F2, 3)
    assert len(s.B) == 6 == slice_constants(3, 2, 2).M
    assert verify_basis(s).passed
    assert verify_sum_formulas(s).passed


def test_build_linear_forms():
    s = build_basis_slice(mp("x0", 2), mp("x1", 2), 2)
    consts = slice_constants(2, 1, 1)
    assert len(s.B) == consts.M == 3
    assert verify_basis(s).passed and verify_sum_formulas(s).passed


def test_swap_gives_same_span():
    F1 = mp("x0^2+x1*x2", 3)
    F2 = mp("x1^2-x0*x2", 3)
    a = build_basis_slice(F1, F2, 4)
    b = build_basis_slice(F2, F1, 4)
    assert len(a.B) == len(b.B)
    ra, rb, rab = int_rows(a.B), int_rows(b.B), int_rows(a.B + b.B)
    assert rank(ra) == rank(rb) == rank(rab)  # identical span


def test_tm_swap_bookkeeping():
    # under lex, TM(x1^2) < TM(x0^2), so the pair is reordered
    s = build_basis_slice(mp("x1^2", 2), mp("x0^2", 2), 2)
    assert s.swapped
    t = build_basis_slice(mp("x0^2", 2), mp("x1^2", 2), 2)
    assert not t.swapped


def test_corrupted_slice_fails_verification():
    s = build_basis_slice(mp("x0^2", 2), mp("x1^2", 2), 4)
    assert s.kept == ((2, 0), (1, 1)) and verify_basis(s).passed
    duplicated = dataclasses.replace(s, kept=s.kept[:-1] + (s.kept[0],))
    assert not verify_basis(duplicated).passed
    dropped = dataclasses.replace(s, kept=s.kept[:-1])
    assert not verify_basis(dropped).passed


def test_hypothesis_gates():
    with pytest.raises(HypothesisError):
        build_basis_slice(mp("x0*x1", 2), mp("x1^2", 2), 1)  # m < d
    with pytest.raises(HypothesisError):
        build_basis_slice(mp("x0^2", 2), mp("x0*x1", 2), 2)  # shared factor
    with pytest.raises(HypothesisError):
        build_basis_slice(mp("x0+x1", 2), mp("x1^2", 2), 2)  # unequal degrees
    with pytest.raises(HypothesisError):
        build_basis_slice(mp("x0+1", 2), mp("x1", 2), 1)  # not homogeneous
    with pytest.raises(HypothesisError):
        build_basis_slice(mp("0", 2), mp("x1", 2), 1)
    with pytest.raises(ValueError):
        # order arity mismatch is a usage error, not a hypothesis failure
        build_basis_slice(mp("x0", 2), mp("x1", 2), 1, order=Weight((1, 2, 3)))


def test_univariate_pair_rejected():
    z0 = parse_multipoly("x0", 1)
    with pytest.raises(HypothesisError):
        build_basis_slice(z0, z0, 1)


def test_random_slices_verify():
    rng = random.Random(42)
    for _ in range(20):
        n = rng.randint(1, 3)
        d = rng.randint(1, 2)
        m = rng.randint(d, d + 3)
        F1, F2 = random_coprime_pair(rng, n + 1, d)
        order = random_order(rng, n + 1)
        s = build_basis_slice(F1, F2, m, order=order)
        assert verify_basis(s).passed
        assert verify_sum_formulas(s).passed
        assert len(s.multipliers) == monomial_count(m - d, n)
        assert len(s.multipliers) - len(s.kept) == monomial_count(m - 2 * d, n)


def polynomial_route(F1, F2, m, order):
    """(B1 \\ B1') u B2 and B1 u B2 built as polynomials, B1' removed by equality."""
    t1, t2 = trailing_monomial(F1, order), trailing_monomial(F2, order)
    if order.compare(t2, t1) > 0:
        F1, F2, t2 = F2, F1, t1
    nvars, d = F1.nvars, F1.total_degree()
    exps = by_multisets(nvars, m - d)
    B1 = [F1.mul_monomial(e) for e in exps]
    B2 = [F2.mul_monomial(e) for e in exps]
    B1prime = {
        F1.mul_monomial(tuple(a + b for a, b in zip(t2, e)))
        for e in by_multisets(nvars, m - 2 * d)
    }
    return tuple(p for p in B1 if p not in B1prime) + tuple(B2), B1 + B2


def test_multipliers_match_polynomial_route():
    # B and both ranks from the multipliers against the polynomial families,
    # with TM ties (where B1' removes F1 TM(F2)) at lex and weight orders
    rng = random.Random(1201)
    ties = 0
    for case in range(150):
        nvars = rng.randint(2, 4)
        d = rng.randint(1, 3)
        m = rng.randint(d, 2 * d + 2)
        F1, F2 = random_coprime_pair(rng, nvars, d)
        order = LEX if case % 2 else random_weight_order(rng, nvars)
        s = build_basis_slice(F1, F2, m, order=order)
        B, span = polynomial_route(F1, F2, m, order)
        assert s.B == B
        M = slice_constants(m, nvars - 1, d).M
        rank_B, span_dim = rank(int_rows(B)), rank(int_rows(span))
        passed = len(B) == rank_B == span_dim == M
        assert verify_basis(s) == BasisReport(m, nvars - 1, d, M, len(B), rank_B, span_dim, passed)
        ties += s.tm_tie
    assert ties >= 20


def test_weight_order_changes_nothing_about_counts():
    F1 = mp("x0^2+x1*x2", 3)
    F2 = mp("x1^2-x0*x2", 3)
    for order in (LEX, Weight((3, 2, 1)), Weight((1, 1, 5))):
        s = build_basis_slice(F1, F2, 4, order=order)
        assert len(s.B) == slice_constants(4, 2, 2).M
        assert verify_basis(s).passed


def test_asymptotic_check_degree_one_bounded():
    rep = asymptotic_check(2, 1, 30)
    assert rep.passed
    assert rep.anchor_m == 10
    assert all(s.bounded_by_anchor for s in rep.summaries)


def test_asymptotic_check_degree_two_unbounded():
    rep = asymptotic_check(2, 2, 30)
    assert not rep.passed
    names = {s.name: s for s in rep.summaries}
    assert not names["res_c"].bounded_by_anchor
    assert names["res_c"].argmax_m == 30  # still climbing at the cutoff


def test_asymptotic_anchor_clamped_to_range():
    rep = asymptotic_check(1, 2, 8)  # m runs 4..8, anchor pulled back to 8
    assert rep.anchor_m == 8
    with pytest.raises(ValueError):
        asymptotic_check(1, 2, 6)  # below the 4d floor

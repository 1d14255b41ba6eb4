"""Graded slices of two-generator ideals: basis construction and verification.

For coprime homogeneous F1, F2 of equal degree d, the degree-m slice of the
ideal they generate has the explicit spanning family
B = (B1 \\ B1') u B2 with B1 = {F1 x^i : |i| = m-d}, B2 = {F2 x^i}, and
B1' = {F1 TM(F2) x^i : |i| = m-2d}, where TM is the trailing monomial of F2
in a fixed monomial order.  Every element is a generator times a monomial,
so the family is held as its multiplier exponents: F1 x^i lies in B1'
exactly when TM(F2) divides x^i.  Its size is the closed form
M = 2 C(m+n-d, n) - C(m+n-2d, n); verification reduces both the family and
the full generating set to exact ranks.  All binomials with negative upper
index evaluate to 0, which makes the m < 2d edge (empty B1') uniform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import add
from typing import List, Tuple

from . import linalg
from .errors import HypothesisError, UsageError
from .multipoly import MultiPoly, coprime_multivariate, format_multipoly
from .ordering import LEX, MonomialOrder, trailing_monomial
from .parsing import MAX_POWER_DEGREE, MAX_SLICE_MONOMIALS

Exponent = Tuple[int, ...]


def binom(a: int, b: int) -> int:
    """C(a, b) with C(a, b) = 0 whenever a < 0 or b < 0 or b > a."""
    if a < 0 or b < 0 or b > a:
        return 0
    return math.comb(a, b)


def monomial_count(delta: int, n: int) -> int:
    """Number of degree-delta monomials in n+1 variables; 0 for delta < 0."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return binom(n + delta, n)


def monomials_of_degree(nvars: int, delta: int) -> "list[Exponent]":
    """All degree-delta exponent vectors, in descending lexicographic order.

    Each vector is built from the one before: one unit moves out of the
    last nonzero slot before the final slot, and the final slot's units
    gather behind it.  The walk ends at delta units in the final slot.
    """
    if delta < 0:
        return []
    last = nvars - 1
    e = [delta] + [0] * last
    out = [tuple(e)]
    while e[last] != delta:
        tail = e[last]
        e[last] = 0
        j = last - 1
        while not e[j]:
            j -= 1
        e[j] -= 1
        e[j + 1] = tail + 1
        out.append(tuple(e))
    return out


@dataclass(frozen=True)
class SliceConstants:
    """The combinatorial constants attached to a slice shape (m, n, d).

    c = 2 C(m+n-d, n+1) - C(m+n-2d, n+1)
    M = 2 C(m+n-d, n)   - C(m+n-2d, n)
    Mprime = C(m+n, n) - M
    L = ceil(M(M-1) / (2c)), defined only when c > 0 (c vanishes at m = d).
    """

    m: int
    n: int
    d: int
    c: int
    M: int
    Mprime: int
    L: "int | None"


def slice_constants(m: int, n: int, d: int) -> SliceConstants:
    """Exact slice constants; requires m >= d >= 1 and n >= 1."""
    if d < 1 or n < 1:
        raise ValueError("need d >= 1 and n >= 1")
    if m < d:
        raise ValueError("need m >= d")
    c = 2 * binom(m + n - d, n + 1) - binom(m + n - 2 * d, n + 1)
    M = 2 * binom(m + n - d, n) - binom(m + n - 2 * d, n)
    Mprime = binom(m + n, n) - M
    if c > 0:
        L = (M * (M - 1) // 2 + c - 1) // c
    else:
        L = None
    return SliceConstants(m=m, n=n, d=d, c=c, M=M, Mprime=Mprime, L=L)


@dataclass(frozen=True)
class BasisSlice:
    """The slice family, held as its generators and multiplier exponents.

    B1 and B2 are F1 x^i and F2 x^i over `multipliers` (degree m-d, in
    descending lex order), and `kept` lists the B1 multipliers outside B1';
    B1' is F1 x^i over the multipliers that `kept` leaves out.  B, built on
    first access, is F1 x^i over `kept`, then F2 x^i over `multipliers`.
    """

    m: int
    n: int
    d: int
    order: MonomialOrder
    F1: MultiPoly
    F2: MultiPoly
    swapped: bool
    tm_tie: bool
    tm2: Exponent
    multipliers: Tuple[Exponent, ...]
    kept: Tuple[Exponent, ...]

    @cached_property
    def B(self) -> Tuple[MultiPoly, ...]:
        return tuple(self.F1.mul_monomial(e) for e in self.kept) + tuple(
            self.F2.mul_monomial(e) for e in self.multipliers
        )


def build_basis_slice(
    F1: MultiPoly, F2: MultiPoly, m: int, order: MonomialOrder = LEX
) -> BasisSlice:
    """Construct B = (B1 \\ B1') u B2 for the degree-m slice of (F1, F2).

    The generators are indexed so that TM(F2) <= TM(F1) under the order;
    violating inputs are swapped internally and the swap recorded.  Exact
    ties keep the caller's second generator as F2.
    """
    F1._check_arity(F2)
    nvars = F1.nvars
    if order.arity is not None and order.arity != nvars:
        raise UsageError(f"weight vector length {order.arity} != variable count {nvars}")
    if nvars < 2:
        raise HypothesisError("need at least two variables for a graded slice")
    n = nvars - 1
    d = F1.total_degree()
    if F1.is_zero() or F2.is_zero():
        raise HypothesisError("slice generators must be nonzero")
    if not (F1.is_homogeneous() and F2.is_homogeneous()):
        raise HypothesisError(
            "slice generators must be homogeneous",
            {"F1": format_multipoly(F1), "F2": format_multipoly(F2)},
        )
    if F2.total_degree() != d or d < 1:
        raise HypothesisError(
            "slice generators must share one positive degree",
            {"deg_F1": d, "deg_F2": F2.total_degree()},
        )
    if m < d:
        raise HypothesisError("need m >= d", {"m": m, "d": d})
    if not coprime_multivariate(F1, F2):
        raise HypothesisError(
            "slice generators must be coprime",
            {"F1": format_multipoly(F1), "F2": format_multipoly(F2)},
        )
    t1 = trailing_monomial(F1, order)
    t2 = trailing_monomial(F2, order)
    swapped = order.compare(t2, t1) > 0
    if swapped:
        F1, F2 = F2, F1
        t1, t2 = t2, t1
    multipliers = tuple(monomials_of_degree(nvars, m - d))
    # F1 x^i lies in B1' iff i = TM(F2) + i', i.e. iff x^TM(F2) divides x^i
    kept = tuple(i for i in multipliers if any(a < b for a, b in zip(i, t2)))
    return BasisSlice(
        m=m,
        n=n,
        d=d,
        order=order,
        F1=F1,
        F2=F2,
        swapped=swapped,
        tm_tie=t1 == t2,
        tm2=t2,
        multipliers=multipliers,
        kept=kept,
    )


@dataclass(frozen=True)
class BasisReport:
    """Rank verification of a constructed slice family."""

    m: int
    n: int
    d: int
    M: int
    size: int
    rank_B: int
    span_dim: int
    passed: bool


def verify_basis(s: BasisSlice) -> BasisReport:
    """Check |B| = rank(B) = span-dim(B1 u B2) = M by exact row reduction.

    The row of F x^i holds F's integer numerators shifted by i into the
    degree-m columns, so it is F x^i times F's denominator and every rank
    is that of the rational coefficient rows.
    """
    columns = {e: k for k, e in enumerate(monomials_of_degree(s.n + 1, s.m))}

    def row(F: MultiPoly, i: Exponent) -> "list[int]":
        out = [0] * len(columns)
        for e, c in F.ints.items():
            out[columns[tuple(map(add, e, i))]] = c
        return out

    rows1 = {i: row(s.F1, i) for i in s.multipliers}
    rows2 = [row(s.F2, i) for i in s.multipliers]
    M = slice_constants(s.m, s.n, s.d).M
    rank_B = linalg.rank([rows1[i] for i in s.kept] + rows2)
    span_dim = linalg.rank(list(rows1.values()) + rows2)
    size = len(s.kept) + len(rows2)
    return BasisReport(
        m=s.m,
        n=s.n,
        d=s.d,
        M=M,
        size=size,
        rank_B=rank_B,
        span_dim=span_dim,
        passed=(size == M and rank_B == M and span_dim == M),
    )


@dataclass(frozen=True)
class SumFormulaRow:
    family: str
    var_index: int
    total: int
    expected: int


@dataclass(frozen=True)
class SumFormulaReport:
    rows: Tuple[SumFormulaRow, ...]
    passed: bool


def verify_sum_formulas(s: BasisSlice) -> SumFormulaReport:
    """Check the two order-sum identities of the slice family, per variable.

    For j = 1, 2:  sum over B_j of ord_{x_i}(s / F_j) = C(m+n-d, n+1), and
    over B1': sum = C(m+n-2d, n+1) + C(m+n-2d, n) * ord_{x_i} TM(F2),
    where each s / F_j is the multiplier monomial recorded at construction
    (B1 and B2 share theirs) and B1' is F1 times the multipliers not kept.
    """
    m, n, d = s.m, s.n, s.d
    dropped = set(s.multipliers) - set(s.kept)
    rows: List[SumFormulaRow] = []
    ok = True
    for i in range(n + 1):
        expected = binom(m + n - d, n + 1)
        total = sum(e[i] for e in s.multipliers)
        for family in ("B1", "B2"):
            rows.append(SumFormulaRow(family, i, total, expected))
        ok = ok and total == expected
        expected_p = binom(m + n - 2 * d, n + 1) + binom(m + n - 2 * d, n) * s.tm2[i]
        total_p = sum(e[i] for e in dropped)
        rows.append(SumFormulaRow("B1prime", i, total_p, expected_p))
        ok = ok and total_p == expected_p
    return SumFormulaReport(rows=tuple(rows), passed=ok)


@dataclass(frozen=True)
class ResidualSummary:
    """Boundedness evidence for one scaled residual sequence."""

    name: str
    anchor_m: int
    anchor_value: Fraction
    max_value: Fraction
    argmax_m: int
    bounded_by_anchor: bool


@dataclass(frozen=True)
class AsymptoticRow:
    m: int
    c: int
    M: int
    Mprime: int
    res_c: Fraction
    res_M: Fraction
    res_Mprime: Fraction


@dataclass(frozen=True)
class AsymptoticReport:
    n: int
    d: int
    anchor_m: int
    rows: Tuple[AsymptoticRow, ...]
    summaries: Tuple[ResidualSummary, ...]
    passed: bool


ANCHOR_M = 10


def asymptotic_check(n: int, d: int, m_max: int) -> AsymptoticReport:
    """Scaled residuals of c, M, Mprime against their leading-term expansions.

    For m = 2d..m_max the sequences |c - m^(n+1)/(n+1)! - m^n/(2(n-1)!)| / m^(n-1),
    |M - m^n/n!| / m^(n-1), and Mprime / m^(n-2) are computed exactly.  Each is
    summarized by its maximum and checked against its value at the anchor
    m = ANCHOR_M, pulled into 2d..m_max (bounded for m >= anchor by the anchor
    value).  For n = 1 the third sequence is Mprime itself, which is
    eventually constant.

    One row per m, and n + 1 variables: m_max is held to the sweeps' row cap
    and n to the variable count a slice of degree 1 allows.
    """
    if n < 1 or d < 1 or m_max < 4 * d:
        raise UsageError("need n >= 1, d >= 1 and m_max >= 4d")
    if m_max > MAX_POWER_DEGREE or n >= MAX_SLICE_MONOMIALS:
        raise UsageError(
            f"need m_max <= {MAX_POWER_DEGREE} and n <= {MAX_SLICE_MONOMIALS - 1}"
        )
    lead_den = math.factorial(n + 1)
    second_den = 2 * math.factorial(n - 1)
    rows: List[AsymptoticRow] = []
    for m in range(2 * d, m_max + 1):
        sc = slice_constants(m, n, d)
        res_c = abs(
            Fraction(sc.c)
            - Fraction(m ** (n + 1), lead_den)
            - Fraction(m**n, second_den)
        ) / m ** (n - 1)
        res_M = abs(Fraction(sc.M) - Fraction(m**n, math.factorial(n))) / m ** (n - 1)
        if n >= 2:
            res_Mp = Fraction(sc.Mprime, m ** (n - 2))
        else:
            res_Mp = Fraction(sc.Mprime)
        rows.append(AsymptoticRow(m, sc.c, sc.M, sc.Mprime, res_c, res_M, res_Mp))
    anchor_m = max(2 * d, min(ANCHOR_M, m_max))
    summaries = []
    passed = True
    for name, values in (
        ("res_c", [(r.m, r.res_c) for r in rows]),
        ("res_M", [(r.m, r.res_M) for r in rows]),
        ("res_Mprime", [(r.m, r.res_Mprime) for r in rows]),
    ):
        anchor_value = next(v for m, v in values if m == anchor_m)
        max_value = max(v for _, v in values)
        argmax_m = next(m for m, v in values if v == max_value)
        bounded = all(v <= anchor_value for m, v in values if m >= anchor_m)
        summaries.append(
            ResidualSummary(name, anchor_m, anchor_value, max_value, argmax_m, bounded)
        )
        passed = passed and bounded
    return AsymptoticReport(
        n=n,
        d=d,
        anchor_m=anchor_m,
        rows=tuple(rows),
        summaries=tuple(summaries),
        passed=passed,
    )

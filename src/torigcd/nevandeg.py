"""Degree-level value distribution for rational functions.

For a reduced rational function the growth characteristic is a slope: the
coefficient of log r.  Everything here is that exactly computable shadow:
characteristic / counting / proximity slopes, the gcd-counting slope, a
multiplicative-independence certificate built from divisor exponent
matrices over a gcd-free basis, and the power sweep
k -> deg gcd(F(g1^k, ..), G(g1^k, ..)) whose normalized ratio collapses
for multiplicatively independent g's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, List, Optional, Sequence, Tuple

from . import linalg
from .errors import HypothesisError, UsageError
from .kernel.intpoly_py import IntPoly, _candidate, _evaluate, _power, mul
from .multipoly import (
    MultiPoly,
    coprime_multivariate,
    format_multipoly,
    substitute,
)
from .parsing import MAX_POWER_DEGREE, MAX_SWEEP_WORK
from .ratfunc import (
    INFINITY,
    RationalFunction,
    _refine,
    divisor_exponents,
    format_ratfunc,
    valuation,
)
from .unipoly import ONE, UniPoly, format_unipoly, uni_gcd, uni_lcm


def char_slope(f: RationalFunction) -> int:
    """Slope of the Nevanlinna characteristic: max(deg num, deg den)."""
    if f.is_zero():
        return 0
    return max(f.num.degree, f.den.degree)


def map_char_slope(gs: Sequence[RationalFunction]) -> int:
    """Characteristic slope of the map [1 : g1 : ... : gn] = [L : g1 L : ... : gn L].

    L is the lcm of the denominators, and the slope is the top entry degree,
    deg L + max(0, deg num g_i - deg den g_i) over the nonzero g_i, since no
    factor is common to all entries: each prime power p^e of L is the full
    power of p in some den g_i, and g_i L = num g_i (L / den g_i) lacks p.
    """
    den = ONE
    for g in gs:
        den = uni_lcm(den, g.den)
    return den.degree + max([0, *(g.num.degree - g.den.degree for g in gs if not g.is_zero())])


def ngcd_slope(f: RationalFunction, g: RationalFunction) -> int:
    """Slope of the gcd counting function: common zeros with min multiplicity.

    Reducedness makes every common zero of f and g a common root of the two
    numerators with matching min multiplicity, so this is one exact gcd.
    """
    if f.is_zero() or g.is_zero():
        raise ZeroDivisionError("gcd counting of the zero function")
    return uni_gcd(f.num, g.num).degree


def mgcd_slope(f: RationalFunction, g: RationalFunction) -> int:
    """Slope of the gcd proximity function: only infinity contributes."""
    if f.is_zero() or g.is_zero():
        raise ZeroDivisionError("gcd proximity of the zero function")
    return max(0, min(valuation(f, INFINITY), valuation(g, INFINITY)))


def tgcd_slope(f: RationalFunction, g: RationalFunction) -> int:
    """Slope of T_[1:f:g] - T_[f:g], the gcd characteristic, with T_[f:g] = T(f/g)."""
    if f.is_zero() and g.is_zero():
        raise ZeroDivisionError("gcd characteristic of the zero pair")
    ratio = 0 if f.is_zero() or g.is_zero() else char_slope(f / g)
    return map_char_slope((f, g)) - ratio


@dataclass(frozen=True)
class SlopeReport:
    """Slope-level gcd quantities for one pair, labels included for reports."""

    label: str
    T_f: int
    T_g: int
    N_gcd: int
    m_gcd: int
    T_gcd: int


def gcd_slope_report(
    f: RationalFunction, g: RationalFunction, label: str = ""
) -> SlopeReport:
    return SlopeReport(
        label=label,
        T_f=char_slope(f),
        T_g=char_slope(g),
        N_gcd=ngcd_slope(f, g),
        m_gcd=mgcd_slope(f, g),
        T_gcd=tgcd_slope(f, g),
    )


def fmt_decomposition(f: RationalFunction, a: Fraction) -> Tuple[int, int]:
    """Counting and proximity slopes of f at the value a; they sum to T."""
    if f.is_constant():
        raise ValueError("decomposition needs a nonconstant function")
    N = (f.num - f.den * Fraction(a)).degree
    T = char_slope(f)
    return N, T - N


@dataclass(frozen=True)
class DivisorVector:
    """Exponent vector of one function over a shared gcd-free basis + Infinity."""

    basis: Tuple[UniPoly, ...]
    exponents: Tuple[int, ...]


def divisor_vector(f: RationalFunction, basis: Sequence[UniPoly]) -> DivisorVector:
    finite, at_inf = divisor_exponents(f, basis)
    return DivisorVector(basis=tuple(basis), exponents=tuple(finite) + (at_inf,))


@dataclass(frozen=True)
class IndependenceCertificate:
    """Outcome of the multiplicative-independence test over a divisor matrix.

    Independent inputs carry the rank-n pivot profile; dependent inputs carry
    a primitive integer witness w with prod g_i^{w_i} constant, re-verified
    over the basis before the certificate is issued.
    """

    independent: bool
    n: int
    basis: Tuple[UniPoly, ...]
    matrix: Tuple[Tuple[int, ...], ...]
    pivot_columns: Tuple[int, ...]
    witness: Optional[Tuple[int, ...]]

    def to_json(self) -> dict:
        return {
            "independent": self.independent,
            "n": self.n,
            "basis": [format_unipoly(b) for b in self.basis] + ["inf"],
            "matrix": [list(row) for row in self.matrix],
            "pivot_columns": list(self.pivot_columns),
            "witness": list(self.witness) if self.witness is not None else None,
        }


def _witness_is_constant(
    gs: Sequence[RationalFunction],
    basis: Sequence[UniPoly],
    rows: Sequence[Sequence[int]],
    witness: Sequence[int],
) -> bool:
    """True when the nonzero witness provably makes prod g_i^{w_i} constant.

    The product is never built.  Each g_i's numerator, made monic, and its
    denominator are multiplied back from the positive and the negative
    entries of its row over the basis, so g_i = c_i * prod_j b_j^{row_ij};
    then sum_i w_i * row_i = 0 in integers leaves prod g_i^{w_i} = prod c_i^{w_i}.
    """
    for g, row in zip(gs, rows):
        num = den = ONE
        for b, e in zip(basis, row):
            if e > 0:
                num = num * b**e
            elif e < 0:
                den = den * b**-e
        if num != g.num.monic() or den != g.den:
            return False
    return any(witness) and not any(
        sum(w * row[j] for w, row in zip(witness, rows)) for j in range(len(rows[0]))
    )


def mult_independent(gs: Sequence[RationalFunction]) -> IndependenceCertificate:
    """Certify whether no nontrivial power product of the gs is constant.

    The divisor exponent matrix over the joint gcd-free basis (Infinity
    column included) has rank n exactly when the gs are multiplicatively
    independent; otherwise the primitive relation of the first row in the
    span of the rows before it exhibits the constant power product.
    """
    n = len(gs)
    for i, g in enumerate(gs):
        if g.is_zero():
            raise HypothesisError("independence of the zero function", {"index": i, "g": "0"})
    # row i over the basis is the numerator's exponents (input 2i) minus the
    # denominator's (input 2i+1), as factor refinement carried them
    refined = _refine([p for g in gs for p in (g.num, g.den)])
    basis = tuple(b for b, _ in refined)
    rows = [
        tuple(e.get(2 * i, 0) - e.get(2 * i + 1, 0) for _, e in refined)
        + (g.den.degree - g.num.degree,)
        for i, g in enumerate(gs)
    ]
    independent, found = linalg.pivots_or_relation(rows)
    if not independent and not _witness_is_constant(gs, basis, rows, found):
        raise AssertionError("dependence witness failed verification")
    return IndependenceCertificate(
        independent=independent,
        n=n,
        basis=basis,
        matrix=tuple(rows),
        pivot_columns=tuple(found) if independent else (),
        witness=None if independent else tuple(found),
    )


@dataclass(frozen=True)
class SweepConfig:
    """Inputs of the power sweep: coprime F, G and the base functions."""

    F: MultiPoly
    G: MultiPoly
    gs: Tuple[RationalFunction, ...]
    k_min: int = 1
    k_max: int = 60
    k_step: int = 1
    epsilon: Fraction = Fraction(1, 10)


@dataclass(frozen=True)
class SweepRow:
    k: int
    gcd_degree: int
    scale: int
    ratio: Fraction


@dataclass(frozen=True)
class SweepResult:
    track: str
    rows: Tuple[SweepRow, ...]
    epsilon: Fraction
    first_below: Optional[int]
    stays_below: bool
    threshold_k: Optional[int]

    def to_summary(self) -> dict:
        return {
            "track": self.track,
            "epsilon": str(self.epsilon),
            "rows": len(self.rows),
            "first_below": self.first_below,
            "stays_below": self.stays_below,
            "threshold_k": self.threshold_k,
        }


def _sweep_gates(cfg: SweepConfig, track: str):
    """Check the sweep's range, inputs and caps before any proof; return ``_point_plan(cfg)``."""
    if cfg.k_min < 1 or cfg.k_step < 1 or cfg.k_max < cfg.k_min:
        raise UsageError("need 1 <= k_min <= k_max and k_step >= 1")
    if cfg.epsilon <= 0:
        raise UsageError("epsilon must be positive")
    nvars = cfg.F.nvars
    if cfg.G.nvars != nvars or len(cfg.gs) != nvars:
        raise HypothesisError(
            "need one base function per variable",
            {"nvars": nvars, "given": len(cfg.gs)},
        )
    if cfg.F.is_zero() or cfg.G.is_zero():
        raise HypothesisError("sweep polynomials must be nonzero")
    bases, plans = _point_plan(cfg)
    top = max(1, *(char_slope(g) for g in cfg.gs), *(D for D, _, _ in plans))
    if cfg.k_max * top > MAX_POWER_DEGREE:
        raise UsageError(
            f"k_max {cfg.k_max} times {top}, the degree per step of g^k,"
            f" F(g^k) and G(g^k), exceeds the degree cap {MAX_POWER_DEGREE}"
        )
    bits = _point_bits(cfg, bases, plans)
    work = sum(v * v for v in bits)
    if work > MAX_SWEEP_WORK:
        raise UsageError(
            f"{len(bits)} rows give {work} squared point bits, over the size cap {MAX_SWEEP_WORK}"
        )
    if not coprime_multivariate(cfg.F, cfg.G):
        raise HypothesisError(
            "sweep polynomials must be coprime",
            {"F": format_multipoly(cfg.F, 1), "G": format_multipoly(cfg.G, 1)},
        )
    cert = mult_independent(cfg.gs)
    if not cert.independent:
        raise HypothesisError(
            "base functions are multiplicatively dependent",
            {"certificate": cert.to_json()},
        )
    if track == "t":
        for g in cfg.gs:
            if not g.is_polynomial():
                raise HypothesisError(
                    "the characteristic track needs polynomial base functions",
                    {"g": format_ratfunc(g)},
                )
        origin = (0,) * cfg.F.nvars
        if origin not in cfg.F.ints and origin not in cfg.G.ints:
            raise HypothesisError(
                "the characteristic track needs F, G not both zero at the origin"
            )
    return bases, plans


def _horner_plan(terms: Sequence[Tuple[Tuple[int, ...], int]], tops: Sequence[int]):
    """Nested Horner plan of integer terms, (levels, coefficients), walked bottom up.

    The terms are grouped by their exponent of each variable in turn; a
    level, from the last variable to the first, is (axis, t_axis, nodes) with
    one node per group of the level above, listing (e, index of its subgroup
    of exponent e) by descending e.  Nothing recurses per variable, so no
    number of variables meets Python's call depth.
    """
    groups = [terms]
    levels = []
    for axis, t in enumerate(tops):
        nodes, subgroups = [], []
        for group in groups:
            by_exp: dict = {}
            for term in group:
                by_exp.setdefault(term[0][axis], []).append(term)
            node = []
            for j in sorted(by_exp, reverse=True):
                node.append((j, len(subgroups)))
                subgroups.append(by_exp[j])
            nodes.append(node)
        levels.append((axis, t, nodes))
        groups = subgroups
    return levels[::-1], [group[0][1] for group in groups]


def _horner(plan, xs: Sequence[int], ys: Sequence[int]) -> int:
    """sum_e c_e prod_i xs_i^e_i ys_i^(t_i - e_i) over the plan's terms."""
    levels, values = plan
    for axis, t, nodes in levels:
        x, y = xs[axis], ys[axis]
        out = []
        for node in nodes:
            prev = node[0][0]
            ypow = y ** (t - prev)  # y^(t - e) for the current exponent e
            acc = 0
            for j, i in node:
                if j < prev:
                    acc *= x ** (prev - j)
                    ypow *= y ** (prev - j)
                    prev = j
                acc += values[i] * ypow
            out.append(acc * x**prev)
        values = out
    return values[0]


def _point_plan(cfg: SweepConfig):
    """(bases, plans) of a sweep, for ``_degree_at_point`` and ``_point_bits``.

    Only the variables that F or G uses enter, in increasing order; the
    other bases change no value.  A base g_i = (u_i/a_i)/(w_i/b_i), u_i,
    w_i integer polynomials, gives (u_i, n_i, d_i) with n_i = ||u_i||_1 b_i
    and d_i = ||w_i||_1 a_i, so a polynomial base is g_i = u_i/d_i.  plans
    holds (D, Horner plan, plan of the |c_e|) for P = F, G, t_i = deg_{x_i} P
    and D = sum_i t_i deg g_i.  Up to a scalar, as in ``substitute``, P(g^k)
    has the numerator
    N_P = sum_e c_e prod_i (u_i b_i)^(k e_i) (w_i a_i)^(k (t_i - e_i)), of
    degree at most k D and 1-norm at most beta_P (``_betas``).
    """
    axes = sorted({i for P in (cfg.F, cfg.G) for e in P.ints for i, x in enumerate(e) if x})
    gs = [cfg.gs[i] for i in axes]
    bases = [
        (g.num.ints, sum(map(abs, g.num.ints)) * g.den.den, sum(map(abs, g.den.ints)) * g.num.den)
        for g in gs
    ]
    plans = []
    for P in (cfg.F, cfg.G):
        terms = [(tuple(e[i] for i in axes), c) for e, c in P.ints.items()]
        tops = [max(e[axis] for e, _ in terms) for axis in range(len(axes))]
        plans.append((
            sum(t * char_slope(g) for t, g in zip(tops, gs)),
            _horner_plan(terms, tops),
            _horner_plan([(e, abs(c)) for e, c in terms], tops),
        ))
    return bases, plans


def _betas(k: int, bases, plans) -> List[int]:
    """[beta_F, beta_G] at k, beta_P = sum_e |c_e| prod_i n_i^(k e_i) d_i^(k (t_i - e_i))."""
    norms = [n**k for _, n, _ in bases]
    ys = [d**k for _, _, d in bases]
    return [_horner(absplan, norms, ys) for _, _, absplan in plans]


def _point_bits(cfg: SweepConfig, bases, plans) -> List[int]:
    """V_k for each row k: |N_P(x)| <= beta_P x^(k D) and beta_P grows with k,
    so with beta_P and x = 2 min(beta_F, beta_G) + 2 at k_max, V_k = max over P
    of k D bitlen(x) + bitlen(beta_P) bounds the values of row k at its own
    point and at that point plus 1, which as the point is even has its bit
    length.  GCDHEU's points for the rows the point cannot decide grow alike."""
    betas = _betas(cfg.k_max, bases, plans)
    x_bits = (2 * min(betas) + 2).bit_length()
    return [
        max(k * D * x_bits + beta.bit_length() for (D, _, _), beta in zip(plans, betas))
        for k in range(cfg.k_min, cfg.k_max + 1, cfg.k_step)
    ]


def _values_at(x: int, k: int, bases, plans) -> Iterator[int]:
    """N_F(x), then N_G(x), at the integer x, from u_i(x)^k and d_i^k by the
    Horner plans; N_G(x) is computed only when asked for."""
    ys = [d**k for _, _, d in bases]
    xs = [_evaluate(u, x) ** k for u, _, _ in bases]
    return (_horner(plan, xs, ys) for _, plan, _ in plans)


class _Residue:
    """An integer polynomial reduced modulo a monic H in Z[y], as deg H coefficients.

    ``H`` lists H's coefficients below its leading 1, so reduction needs no
    division and the residues form a ring over Z.  It carries the operations
    ``_horner`` performs, ints acting as scalars, so the Horner plans run on
    residues unchanged: sums, products, and powers by the kernel's
    ``_power``, with the int 1 as the power 0 that ``_horner`` takes.
    """

    __slots__ = ("c", "H")

    def __init__(self, c: IntPoly, H: IntPoly):
        n = len(H)
        c = list(c) + [0] * (n - len(c))
        for i in range(len(c) - 1, n - 1, -1):
            t = c[i]
            if t:
                for j, hj in enumerate(H):
                    c[i - n + j] -= t * hj
        self.c, self.H = c[:n], H

    def __add__(self, other):
        if type(other) is int:
            return _Residue([self.c[0] + other, *self.c[1:]], self.H)
        return _Residue([p + q for p, q in zip(self.c, other.c)], self.H)

    __radd__ = __add__

    def __mul__(self, other):
        if type(other) is int:
            return _Residue([other * p for p in self.c], self.H)
        return _Residue(mul(self.c, other.c), self.H)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        return _power(self, k, _Residue.__mul__) if k else 1

    def __bool__(self) -> bool:
        return any(self.c)


def _divides_numerators(h: IntPoly, k: int, bases, plans) -> bool:
    """True exactly when the primitive h divides N_F and N_G in Z[z].

    Neither numerator is built.  With l = lc(h), n = deg h and z = y/l,
    H(y) = l^(n-1) h(y/l) is monic in Z[y], and U_i(y) = l^(deg u_i) u_i(y/l)
    is in Z[y].  A Horner plan with u_i(z)^k replaced by the residue of
    U_i^k modulo H and d_i^k by (d_i l^(deg u_i))^k gives the residue of
    N_P(y/l) prod_i l^(k t_i deg u_i) modulo H, which is zero exactly when h
    divides N_P over Q, and by Gauss's lemma over Z.  For n = 1 the residue
    is the value at H's integer root, so the plans run on ints.
    """
    l, n = h[-1], len(h) - 1
    H = [hj * l ** (n - 1 - j) for j, hj in enumerate(h[:n])]
    Us = [[uj * l ** (len(u) - 1 - j) for j, uj in enumerate(u)] for u, _, _ in bases]
    xs = [_evaluate(U, -H[0]) ** k if n == 1 else _Residue(U, H) ** k for U in Us]
    ys = [(d * l ** (len(u) - 1)) ** k for u, _, d in bases]
    return not any(_horner(plan, xs, ys) for _, plan, _ in plans)


def _degree_at_point(k: int, bases, plans) -> Optional[int]:
    """deg gcd of the numerators N_F, N_G of F(g^k) and G(g^k), or None.

    ``bases`` and ``plans`` come from ``_point_plan``, where N_P has 1-norm
    at most beta_P.  The row is read at the one point
    x = 2 min(beta_F, beta_G) + 2, without building N_F or N_G; None means
    the point cannot decide it.  A 1-norm bounds the max norm, so
    x >= 2 min(|N_F|, |N_G|) + 2 in max norms, the bound of GCDHEU's
    theorem (``kernel.intpoly_py._candidate``; Char, Geddes and Gonnet, JSC
    1989).  Both values A = N_F(x), B = N_G(x) must be nonzero, and h is
    the candidate from gcd(A, B).  By the theorem, a candidate 1 leaves the
    row 0, and otherwise h is the primitive part of gcd(N_F, N_G), so the
    row is deg h, once ``_divides_numerators`` proves that h divides N_F
    and N_G in Z[z].  Before that proof a cheaper test rejects most
    spurious candidates: if h divides N_P in Z[z] then h(x+1) divides
    N_P(x+1).  x is even, so x+1 has the bit length of x and
    ``_point_bits`` bounds these values too; h(x+1) is nonzero, since the
    digits lie within x/2 in absolute value, so by Cauchy's bound every
    root of h lies below 1 + x/2 < x + 1.

    The reduced numerators of F(g^k) and G(g^k) are N_F and N_G up to
    scalars, so the result is ``ngcd_slope``, and neither composed function
    vanishes identically.  For polynomial f, g the lcm L of the denominators
    is 1, so ``tgcd_slope`` = max(deg f, deg g) - ``char_slope(f / g)`` =
    deg gcd(f, g): the row is the same on either track.
    """
    x = 2 * min(_betas(k, bases, plans)) + 2
    a, b = _values_at(x, k, bases, plans)
    if not a or not b:
        return None
    h = _candidate(math.gcd(a, b), x)
    if len(h) == 1:
        return 0
    hx = _evaluate(h, x + 1)
    if any(value % hx for value in _values_at(x + 1, k, bases, plans)):
        return None
    return len(h) - 1 if _divides_numerators(h, k, bases, plans) else None


def _run_sweep(cfg: SweepConfig, track: str) -> SweepResult:
    bases, plans = _sweep_gates(cfg, track)
    scale_unit = max(char_slope(g) for g in cfg.gs)
    rows: List[SweepRow] = []
    # rows over polynomial bases, on either track, are first read at one
    # integer point, which decides coprime and shared rows alike; a row the
    # point cannot decide, and every row over rational bases, is built
    at_point = all(g.is_polynomial() for g in cfg.gs)
    # hs = [g**k_last for g in gs], k_last the last row built, advanced by
    # one product with g**(k - k_last); the factors are powers of the same
    # reduced g, so the products need no gcd
    hs = [RationalFunction.constant(1)] * len(cfg.gs)
    k_last = 0
    for k in range(cfg.k_min, cfg.k_max + 1, cfg.k_step):
        deg = _degree_at_point(k, bases, plans) if at_point else None
        if deg is None:
            step = [g ** (k - k_last) for g in cfg.gs]
            hs = [
                RationalFunction._coprime(h.num * s.num, h.den * s.den)
                for h, s in zip(hs, step)
            ]
            k_last = k
            f = substitute(cfg.F, hs)
            g = substitute(cfg.G, hs)
            if f.is_zero() or g.is_zero():
                raise HypothesisError(
                    "a composed function vanishes identically", {"k": k}
                )
            deg = ngcd_slope(f, g) if track == "n" else tgcd_slope(f, g)
        scale = k * scale_unit
        rows.append(SweepRow(k=k, gcd_degree=deg, scale=scale, ratio=Fraction(deg, scale)))
    first_below = next((r.k for r in rows if r.ratio < cfg.epsilon), None)
    # threshold_k starts the final run of ratios below epsilon; the ratios
    # stay below from first_below on exactly when that run starts there
    threshold_k = None
    for r in reversed(rows):
        if r.ratio >= cfg.epsilon:
            break
        threshold_k = r.k
    stays_below = first_below is not None and threshold_k == first_below
    return SweepResult(track, tuple(rows), cfg.epsilon, first_below, stays_below, threshold_k)


def gcd_sweep(cfg: SweepConfig) -> SweepResult:
    """deg gcd of the composed pair against k times the largest base slope."""
    return _run_sweep(cfg, "n")


def tgcd_sweep(cfg: SweepConfig) -> SweepResult:
    """Same sweep with the gcd characteristic slope in place of the gcd degree."""
    return _run_sweep(cfg, "t")

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
from typing import List, Optional, Sequence, Tuple

from . import linalg
from .errors import HypothesisError, UsageError
from .kernel.intpoly_py import _evaluate
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
    coprime_basis,
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
    by substitution before the certificate is issued.
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
    gs: Sequence[RationalFunction], witness: Sequence[int]
) -> bool:
    prod = RationalFunction.constant(1)
    for g, e in zip(gs, witness):
        prod = prod * g**e
    return prod.is_constant()


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
    basis = coprime_basis([p for g in gs for p in (g.num, g.den)])
    rows = [divisor_vector(g, basis).exponents for g in gs]
    independent, found = linalg.pivots_or_relation(rows)
    if not independent and not _witness_is_constant(gs, found):
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
    top = max(1, *(char_slope(g) for g in cfg.gs), *(D for _, D, _, _ in plans))
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
        if cfg.F.constant_term() == 0 and cfg.G.constant_term() == 0:
            raise HypothesisError(
                "the characteristic track needs F, G not both zero at the origin"
            )
    return bases, plans


def _horner_plan(terms: Sequence[Tuple[Tuple[int, ...], int]], axis: int = 0):
    """Nested Horner plan of integer terms, one variable at a time.

    The plan groups the terms by their exponent e of variable ``axis`` and
    lists (e, plan of the group in the later variables) by descending e;
    past the last variable a plan is the term's coefficient.
    """
    if axis == len(terms[0][0]):
        return terms[0][1]
    groups: dict = {}
    for e, c in terms:
        groups.setdefault(e[axis], []).append((e, c))
    return [(j, _horner_plan(groups[j], axis + 1)) for j in sorted(groups, reverse=True)]


def _horner(plan, tops: Sequence[int], xs: Sequence[int], ys: Sequence[int], axis: int = 0) -> int:
    """sum_e c_e prod_i xs_i^e_i ys_i^(tops_i - e_i) over the plan's terms."""
    if axis == len(xs):
        return plan
    x, y = xs[axis], ys[axis]
    prev = plan[0][0]
    ypow = y ** (tops[axis] - prev)  # y^(t - e) for the current exponent e
    acc = 0
    for j, sub in plan:
        if j < prev:
            acc *= x ** (prev - j)
            ypow *= y ** (prev - j)
            prev = j
        acc += _horner(sub, tops, xs, ys, axis + 1) * ypow
    return acc * x**prev


def _point_plan(cfg: SweepConfig):
    """(bases, plans) of a sweep, for ``_coprime_at_point`` and ``_point_bits``.

    A base g_i = (u_i/a_i)/(w_i/b_i), u_i, w_i integer polynomials, gives
    (u_i, n_i, d_i) with n_i = ||u_i||_1 b_i and d_i = ||w_i||_1 a_i, so a
    polynomial base is g_i = u_i/d_i.  plans holds (t, D, Horner plan, plan
    of the |c_e|) for P = F, G, t_i = deg_{x_i} P and D = sum_i t_i deg g_i.
    Up to a scalar, as in ``substitute``, P(g^k) has the numerator
    N_P = sum_e c_e prod_i (u_i b_i)^(k e_i) (w_i a_i)^(k (t_i - e_i)), of
    degree at most k D and 1-norm at most beta_P (``_betas``).
    """
    bases = [
        (g.num.ints, sum(map(abs, g.num.ints)) * g.den.den, sum(map(abs, g.den.ints)) * g.num.den)
        for g in cfg.gs
    ]
    plans = []
    for P in (cfg.F, cfg.G):
        terms = list(P.ints.items())
        tops = [max(P.degree_in(axis), 0) for axis in range(P.nvars)]
        plans.append((
            tops,
            sum(t * char_slope(g) for t, g in zip(tops, cfg.gs)),
            _horner_plan(terms),
            _horner_plan([(e, abs(c)) for e, c in terms]),
        ))
    return bases, plans


def _betas(k: int, bases, plans) -> List[int]:
    """[beta_F, beta_G] at k, beta_P = sum_e |c_e| prod_i n_i^(k e_i) d_i^(k (t_i - e_i))."""
    norms = [n**k for _, n, _ in bases]
    ys = [d**k for _, _, d in bases]
    return [_horner(absplan, tops, norms, ys) for tops, _, _, absplan in plans]


def _point_bits(cfg: SweepConfig, bases, plans) -> List[int]:
    """V_k for each row k: |N_P(x)| <= beta_P x^(k D) and beta_P grows with k,
    so with beta_P and x = 2 min(beta_F, beta_G) + 2 at k_max, V_k = max over P
    of k D bitlen(x) + bitlen(beta_P) bounds the values of row k at its own
    point.  GCDHEU's points for the rows the point cannot prove grow alike."""
    betas = _betas(cfg.k_max, bases, plans)
    x_bits = (2 * min(betas) + 2).bit_length()
    return [
        max(k * D * x_bits + beta.bit_length() for (_, D, _, _), beta in zip(plans, betas))
        for k in range(cfg.k_min, cfg.k_max + 1, cfg.k_step)
    ]


def _coprime_at_point(k: int, bases, plans) -> bool:
    """True only if the numerators of F(g^k) and G(g^k) are nonzero and coprime.

    ``bases`` and ``plans`` come from ``_point_plan``, where the numerator N_P
    of P(g^k) has 1-norm at most beta_P; by Cauchy's bound every root a of
    N_P has |a| < 1 + beta_P.

    At x = 2 min(beta_F, beta_G) + 2 both values N_F(x), N_G(x) are taken.
    Take a nonconstant common factor H of N_F and N_G primitive in Z[z]; by
    Gauss's lemma it divides both in Z[z], so H(x) divides both values.
    Every root a of H lies below 1 + min(beta_F, beta_G) = x/2 in absolute
    value, so |H(x)| >= prod |x - a| > (x/2)^(deg H) >= x/2.  When both
    values are nonzero and 2 gcd(N_F(x), N_G(x)) < x there is no such H:
    the reduced numerators of F(g^k) and G(g^k), N_F and N_G up to scalars,
    are coprime, so ``ngcd_slope`` is 0, and neither composed function
    vanishes identically.  For polynomial f, g the lcm L of the denominators
    is 1, so ``tgcd_slope`` = max(deg f, deg g) - ``char_slope(f / g)`` =
    deg gcd(f, g) = ``ngcd_slope``: the row is 0 on either track.  This is
    GCDHEU's first point (Char, Geddes and Gonnet, JSC 1989) with the norms
    bounded from the bases, so neither N_F nor N_G is built.
    """
    x = 2 * min(_betas(k, bases, plans)) + 2
    ys = [d**k for _, _, d in bases]
    xs = [_evaluate(u, x) ** k for u, _, _ in bases]
    a, b = (_horner(plan, tops, xs, ys) for tops, _, plan, _ in plans)
    return a != 0 and b != 0 and 2 * math.gcd(a, b) < x


def _run_sweep(cfg: SweepConfig, track: str) -> SweepResult:
    bases, plans = _sweep_gates(cfg, track)
    scale_unit = max(char_slope(g) for g in cfg.gs)
    rows: List[SweepRow] = []
    # rows over polynomial bases, on either track, are first tried at one integer point
    at_point = all(g.is_polynomial() for g in cfg.gs)
    # hs = [g**k_last for g in gs], k_last the last row built, advanced by
    # one product with g**(k - k_last); the factors are powers of the same
    # reduced g, so the products need no gcd
    hs = [RationalFunction.constant(1)] * len(cfg.gs)
    k_last = 0
    for k in range(cfg.k_min, cfg.k_max + 1, cfg.k_step):
        if at_point and _coprime_at_point(k, bases, plans):
            deg = 0
        else:
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

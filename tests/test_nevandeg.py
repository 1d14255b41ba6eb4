"""Slope-level value distribution: characteristics, gcd counting, sweeps."""

import random
from fractions import Fraction

import pytest

from torigcd import nevandeg
from torigcd.errors import HypothesisError
from torigcd.nevandeg import (
    SweepConfig,
    char_slope,
    divisor_vector,
    fmt_decomposition,
    gcd_slope_report,
    gcd_sweep,
    map_char_slope,
    mgcd_slope,
    mult_independent,
    ngcd_slope,
    tgcd_slope,
    tgcd_sweep,
)
from torigcd.multipoly import substitute
from torigcd.parsing import parse_multipoly, parse_ratfunc, parse_unipoly
from torigcd.randgen import random_ratfunc
from torigcd.ratfunc import (
    INFINITY,
    Place,
    RationalFunction,
    coprime_basis,
    divisor_exponents,
    valuation,
)
from torigcd.unipoly import ONE, exact_div, uni_gcd_list, uni_lcm


def rf(text):
    return parse_ratfunc(text)


def _nonconstant(rng, max_deg=4):
    while True:
        f = random_ratfunc(rng, max_deg, nonzero=True)
        if not f.is_constant():
            return f


def test_char_slope_examples():
    assert char_slope(rf("z/(z^2+1)")) == 2
    assert char_slope(rf("5/3")) == 0
    assert char_slope(rf("(z^3-1)/(z-1)")) == 2  # reduces to z^2+z+1
    assert char_slope(RationalFunction.constant(0)) == 0


def test_map_char_slope_examples():
    assert map_char_slope([rf("z"), rf("z+1")]) == 1
    assert map_char_slope([rf("z"), rf("1/z")]) == 2  # representation (z, z^2, 1)
    for text in ("z^3", "(z+2)/(z-2)", "7"):
        assert map_char_slope([rf(text)]) == char_slope(rf(text))


def test_ngcd_examples():
    assert ngcd_slope(rf("z^6-1"), rf("(z+1)^6-1")) == 2
    assert ngcd_slope(rf("z"), rf("z+1")) == 0
    assert ngcd_slope(rf("z^2/(z-1)"), rf("z^3")) == 2
    with pytest.raises(ZeroDivisionError):
        ngcd_slope(rf("0"), rf("z"))


def test_mgcd_examples():
    assert mgcd_slope(rf("1/z"), rf("1/z^2")) == 1
    assert mgcd_slope(rf("z"), rf("1/z")) == 0
    assert mgcd_slope(rf("2"), rf("3")) == 0


def test_tgcd_examples():
    assert tgcd_slope(rf("z^6-1"), rf("(z+1)^6-1")) == 2
    assert tgcd_slope(rf("1/z"), rf("1/z^2")) == 1
    assert tgcd_slope(rf("1"), RationalFunction.constant(0)) == 0
    with pytest.raises(ZeroDivisionError):
        tgcd_slope(RationalFunction.constant(0), RationalFunction.constant(0))


def test_fmt_examples():
    assert fmt_decomposition(rf("z/(z^2+1)"), Fraction(0)) == (1, 1)
    assert fmt_decomposition(rf("z^2"), Fraction(1)) == (2, 0)
    assert fmt_decomposition(rf("(z^2+1)/z^2"), Fraction(1)) == (0, 2)
    with pytest.raises(ValueError):
        fmt_decomposition(rf("5"), Fraction(1))


def test_fmt_sums_to_characteristic():
    rng = random.Random(101)
    for _ in range(100):
        f = _nonconstant(rng)
        a = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        N, m = fmt_decomposition(f, a)
        assert N >= 0 and m >= 0
        assert N + m == char_slope(f)


def test_gcd_characteristic_splits_into_counting_and_proximity():
    rng = random.Random(103)
    checked = 0
    while checked < 100:
        f = random_ratfunc(rng, 4, nonzero=True)
        g = random_ratfunc(rng, 4, nonzero=True)
        checked += 1
        assert tgcd_slope(f, g) == ngcd_slope(f, g) + mgcd_slope(f, g)


def test_map_slope_subadditive():
    rng = random.Random(107)
    for _ in range(60):
        fs = [random_ratfunc(rng, 3, nonzero=True) for _ in range(rng.randint(1, 4))]
        assert map_char_slope(fs) <= sum(char_slope(f) for f in fs)


def test_ngcd_matches_valuation_oracle():
    rng = random.Random(109)
    for _ in range(60):
        f = random_ratfunc(rng, 4, nonzero=True)
        g = random_ratfunc(rng, 4, nonzero=True)
        basis = coprime_basis([f.num, g.num])
        oracle = 0
        for b in basis:
            pl = Place.finite(b)
            oracle += min(max(0, valuation(f, pl)), max(0, valuation(g, pl))) * b.degree
        assert ngcd_slope(f, g) == oracle


def test_ngcd_symmetry_and_power_monotonicity():
    rng = random.Random(113)
    for _ in range(40):
        f = random_ratfunc(rng, 3, nonzero=True)
        g = random_ratfunc(rng, 3, nonzero=True)
        assert ngcd_slope(f, g) == ngcd_slope(g, f)
        base = ngcd_slope(f, g)
        for k in range(2, 6):
            assert ngcd_slope(f**k, g**k) >= base


def test_slope_report_fields():
    rep = gcd_slope_report(rf("z^6-1"), rf("(z+1)^6-1"), label="pair")
    assert (rep.T_f, rep.T_g) == (6, 6)
    assert rep.T_gcd == rep.N_gcd + rep.m_gcd == 2
    assert rep.label == "pair"


def test_divisor_vector_degree_zero():
    f = rf("(z^2-1)/(z^3+z)")
    basis = coprime_basis([f.num, f.den])
    exps = divisor_vector(f, basis).exponents
    assert sum(e * b.degree for e, b in zip(exps, basis)) + exps[-1] == 0


def test_independent_pair():
    cert = mult_independent([rf("z"), rf("z+1")])
    assert cert.independent and cert.witness is None
    assert len(cert.pivot_columns) == 2
    assert cert.matrix == ((1, 0, -1), (0, 1, -1))


def test_dependent_powers():
    cert = mult_independent([rf("z^2"), rf("z^3")])
    assert not cert.independent
    assert cert.witness == (3, -2)
    assert cert.matrix == ((2, -2), (3, -3))


def test_independent_with_denominator():
    assert mult_independent([rf("z/(z-1)"), rf("z-1")]).independent
    with pytest.raises(HypothesisError):
        mult_independent([rf("z"), RationalFunction.constant(0)])


def test_constant_alone_is_dependent():
    cert = mult_independent([rf("5")])
    assert not cert.independent and cert.witness == (1,)


def test_independence_invariances():
    rng = random.Random(127)
    for _ in range(25):
        gs = [random_ratfunc(rng, 3, nonzero=True) for _ in range(rng.randint(2, 3))]
        base = mult_independent(gs).independent
        perm = list(gs)
        rng.shuffle(perm)
        assert mult_independent(perm).independent == base
        i = rng.randrange(len(gs))
        c = Fraction(rng.choice([-3, -2, 2, 3]), rng.choice([1, 2]))
        scaled = list(gs)
        scaled[i] = scaled[i] * RationalFunction.constant(c)
        assert mult_independent(scaled).independent == base


def test_witness_yields_constant():
    rng = random.Random(131)
    for _ in range(25):
        h = _nonconstant(rng, max_deg=2)
        a, b = rng.randint(1, 3), rng.randint(1, 3)
        cert = mult_independent([h**a, h**b])
        assert not cert.independent
        prod = RationalFunction.constant(1)
        for g, e in zip([h**a, h**b], cert.witness):
            prod = prod * g**e
        assert prod.is_constant()


def test_high_power_pair_witness():
    # prod g_i^{w_i} = (z+1)^(40*37 - 37*40) is never built: the witness is
    # checked over the basis (z+1)
    cert = mult_independent([rf("(z+1)^37"), rf("(z+1)^40")])
    assert cert.witness == (40, -37)
    assert cert.matrix == ((37, -37), (40, -40))


@pytest.mark.parametrize(
    "gs, forged",
    [
        (["z", "z+1"], [1, 1]),  # independent inputs, any relation is false
        (["z^2", "z^3"], [1, -1]),  # dependent inputs, the wrong relation
        (["z^2", "z^3"], [0, 0]),  # the trivial relation proves nothing
    ],
)
def test_forged_relation_fails_verification(monkeypatch, gs, forged):
    monkeypatch.setattr(nevandeg.linalg, "pivots_or_relation", lambda rows: (False, forged))
    with pytest.raises(AssertionError, match="witness failed verification"):
        mult_independent([rf(g) for g in gs])


def test_witness_check_rebuilds_each_row():
    gs = [rf("z^2"), rf("z^3")]
    basis = coprime_basis([g.num for g in gs])
    assert nevandeg._witness_is_constant(gs, basis, [(2, -2), (3, -3)], [3, -2])
    # a row that does not rebuild its g is caught, though the relation holds on it
    assert not nevandeg._witness_is_constant(gs, basis, [(2, -2), (2, -2)], [1, -1])


def _shifted_config(**kw):
    return SweepConfig(
        F=parse_multipoly("x1-1", 2, first_index=1),
        G=parse_multipoly("x2-1", 2, first_index=1),
        gs=(rf("z"), rf("z+1")),
        **kw,
    )


def test_sweep_rows_match_oracle_values():
    res = gcd_sweep(_shifted_config(k_min=5, k_max=6))
    by_k = {r.k: r for r in res.rows}
    assert by_k[5].gcd_degree == 0
    assert by_k[6].gcd_degree == 2 and by_k[6].scale == 6
    assert by_k[6].ratio == Fraction(1, 3)
    res60 = gcd_sweep(_shifted_config(k_min=60, k_max=60))
    assert res60.rows[0].gcd_degree == 2 and res60.rows[0].ratio == Fraction(1, 30)


def test_sweep_gcd_appears_iff_six_divides_k():
    res = gcd_sweep(_shifted_config(k_min=1, k_max=24))
    for row in res.rows:
        assert row.gcd_degree == (2 if row.k % 6 == 0 else 0)


def test_sweep_threshold_semantics():
    res = gcd_sweep(_shifted_config(k_min=1, k_max=60))
    assert res.first_below == 1  # k=1 already has gcd 0
    assert not res.stays_below  # k=6 pops back above epsilon
    assert res.threshold_k == 19  # k=18 is the last ratio >= 1/10
    assert res.to_summary()["threshold_k"] == 19


def test_tgcd_sweep_matches_counting_for_polynomials():
    res = tgcd_sweep(_shifted_config(k_min=6, k_max=7))
    by_k = {r.k: r for r in res.rows}
    assert by_k[6].gcd_degree == 2
    assert by_k[7].gcd_degree == 0


def test_sweep_rows_equal_per_k_substitution():
    # rows come from powers advanced by one product per row; they must equal
    # rows computed from substitute(F, [g**k for g in gs]) afresh at every k
    rational = SweepConfig(
        F=parse_multipoly("x1^2-x2+1", 2, first_index=1),
        G=parse_multipoly("x1*x2-2", 2, first_index=1),
        gs=(rf("(z+1)/(z-2)"), rf("z^2/(z+3)")),
        k_min=2,
        k_max=11,
        k_step=3,
    )
    for sweep, slope, cfg in (
        (gcd_sweep, ngcd_slope, rational),
        (gcd_sweep, ngcd_slope, _shifted_config(k_min=3, k_max=30, k_step=3)),
        (tgcd_sweep, tgcd_slope, _shifted_config(k_min=2, k_max=20, k_step=4)),
    ):
        res = sweep(cfg)
        assert [r.k for r in res.rows] == list(range(cfg.k_min, cfg.k_max + 1, cfg.k_step))
        for row in res.rows:
            hs = [g**row.k for g in cfg.gs]
            f = substitute(cfg.F, hs)
            g = substitute(cfg.G, hs)
            assert row.gcd_degree == slope(f, g)


def test_sweep_gate_coprime():
    cfg = SweepConfig(
        F=parse_multipoly("x1-1", 2, first_index=1),
        G=parse_multipoly("x1*x2-x1-x2+1", 2, first_index=1),
        gs=(rf("z"), rf("z+1")),
    )
    with pytest.raises(HypothesisError):
        gcd_sweep(cfg)


def test_sweep_gate_dependent_carries_certificate():
    cfg = SweepConfig(
        F=parse_multipoly("x1-1", 2, first_index=1),
        G=parse_multipoly("x2-1", 2, first_index=1),
        gs=(rf("z^2"), rf("z^3")),
    )
    with pytest.raises(HypothesisError) as exc:
        gcd_sweep(cfg)
    assert exc.value.certificate["certificate"]["witness"] == [3, -2]


def test_sweep_gate_arity_and_zero():
    with pytest.raises(HypothesisError):
        gcd_sweep(
            SweepConfig(
                F=parse_multipoly("x1-1", 2, first_index=1),
                G=parse_multipoly("x2-1", 2, first_index=1),
                gs=(rf("z"),),
            )
        )
    with pytest.raises(HypothesisError):
        gcd_sweep(
            SweepConfig(
                F=parse_multipoly("0", 2, first_index=1),
                G=parse_multipoly("x2-1", 2, first_index=1),
                gs=(rf("z"), rf("z+1")),
            )
        )


def test_sweep_gate_bad_range():
    with pytest.raises(ValueError):
        gcd_sweep(_shifted_config(k_min=0, k_max=5))
    with pytest.raises(ValueError):
        gcd_sweep(_shifted_config(epsilon=Fraction(0)))


def test_sweep_gate_composed_zero():
    cfg = SweepConfig(
        F=parse_multipoly("x1-x2-1", 2, first_index=1),
        G=parse_multipoly("x1+x2", 2, first_index=1),
        gs=(rf("z+1"), rf("z")),
        k_min=1,
        k_max=1,
    )
    with pytest.raises(HypothesisError):
        gcd_sweep(cfg)


def test_tgcd_track_gates():
    cfg = SweepConfig(
        F=parse_multipoly("x1-1", 2, first_index=1),
        G=parse_multipoly("x2-1", 2, first_index=1),
        gs=(rf("z"), rf("(z+1)/z")),
    )
    with pytest.raises(HypothesisError):
        tgcd_sweep(cfg)  # non-polynomial base function
    org = SweepConfig(
        F=parse_multipoly("x1", 2, first_index=1),
        G=parse_multipoly("x2", 2, first_index=1),
        gs=(rf("z"), rf("z+1")),
    )
    with pytest.raises(HypothesisError):
        tgcd_sweep(org)  # both vanish at the origin
    # the counting track accepts both shapes
    assert gcd_sweep(
        SweepConfig(
            F=parse_multipoly("x1", 2, first_index=1),
            G=parse_multipoly("x2", 2, first_index=1),
            gs=(rf("z"), rf("z+1")),
            k_max=3,
        )
    ).rows


def test_mgcd_at_infinity_via_valuation():
    f, g = rf("1/z"), rf("(z+2)/z^3")
    assert valuation(f, INFINITY) == 1 and valuation(g, INFINITY) == 2
    assert mgcd_slope(f, g) == 1


def _cleared_entries(fs, include_one):
    """Reference: the nonzero entries after clearing denominators by their lcm."""
    den = ONE
    for f in fs:
        den = uni_lcm(den, f.den)
    entries = [den] if include_one else []
    for f in fs:
        entries.append(f.num * exact_div(den, f.den))
    return [e for e in entries if not e.is_zero()]


def _reduced_rep(fs, include_one):
    """Reference: clear denominators by their lcm, then divide out the gcd."""
    entries = _cleared_entries(fs, include_one)
    g = uni_gcd_list(entries)
    return [exact_div(e, g) for e in entries]


_FACTORS = [parse_unipoly(t) for t in ("z", "z-1", "z+2", "z^2+1", "2*z+3")]


def _factored(rng, most):
    p = parse_unipoly(str(rng.choice([-3, -2, -1, 1, 2, 3])))
    for q in rng.sample(_FACTORS, rng.randint(0, most)):
        p = p * q ** rng.randint(1, 3)  # repeated roots
    return p


def _tuple_member(rng, shared_den):
    roll = rng.random()
    if roll < 0.15:
        return RationalFunction.constant(0)
    if roll < 0.4:
        den = ONE
    elif roll < 0.7:
        den = shared_den
    else:
        den = _factored(rng, 2)
    return RationalFunction(_factored(rng, 3), den)


def test_slopes_match_the_reduced_representation():
    rng = random.Random(151)
    for _ in range(500):
        shared = _factored(rng, 2)
        fs = [_tuple_member(rng, shared) for _ in range(rng.randint(1, 4))]
        rep = _reduced_rep(fs, True)
        assert map_char_slope(fs) == max(e.degree for e in rep)
        # the lemma map_char_slope rests on: L and the cleared numerators share no factor
        assert uni_gcd_list(_cleared_entries(fs, True)).degree == 0
        f, g = fs[0], _tuple_member(rng, shared)
        if not (f.is_zero() and g.is_zero()):
            with_one = max(e.degree for e in _reduced_rep((f, g), True))
            without = max(e.degree for e in _reduced_rep((f, g), False))
            assert tgcd_slope(f, g) == with_one - without
        nonzero = [f for f in fs if not f.is_zero()]
        if nonzero:
            basis = coprime_basis([p for f in nonzero for p in (f.num, f.den)])
            rows = []
            for f in nonzero:
                finite, at_inf = divisor_exponents(f, basis)
                rows.append(tuple(finite) + (at_inf,))
            assert mult_independent(nonzero).matrix == tuple(rows)


def _reference_summary(rows, epsilon):
    first_below = next((r.k for r in rows if r.ratio < epsilon), None)
    stays_below = False
    threshold_k = None
    if first_below is not None:
        tail = [r for r in rows if r.k >= first_below]
        stays_below = all(r.ratio < epsilon for r in tail)
        above = [i for i, r in enumerate(rows) if r.ratio >= epsilon]
        nxt = above[-1] + 1 if above else 0
        if nxt < len(rows):
            threshold_k = rows[nxt].k
    return first_below, stays_below, threshold_k


def test_sweep_summary_on_every_pattern(monkeypatch):
    # gcd degree k (ratio 1) marks a row above epsilon, 0 a row below
    cfg = SweepConfig(
        F=parse_multipoly("x1", 1, first_index=1),
        G=parse_multipoly("x1+1", 1, first_index=1),
        gs=(rf("z"),),
    )
    for length in range(1, 11):
        for bits in range(2**length):
            above = [bits >> i & 1 for i in range(length)]
            degrees = iter(k * a for k, a in enumerate(above, 1))
            monkeypatch.setattr(nevandeg, "ngcd_slope", lambda f, g: next(degrees))
            # with base z the point proof would decide rows before ngcd_slope
            monkeypatch.setattr(nevandeg, "_coprime_at_point", lambda *args: False)
            res = gcd_sweep(SweepConfig(cfg.F, cfg.G, cfg.gs, k_max=length))
            assert [r.ratio >= res.epsilon for r in res.rows] == [bool(a) for a in above]
            assert (res.first_below, res.stays_below, res.threshold_k) == (
                _reference_summary(res.rows, res.epsilon)
            )

"""Power-sweep rows decided at one integer point.

``_coprime_at_point`` proves a row over polynomial bases, on either track,
coprime without building F(g^k) or G(g^k).  Every sweep must equal a
reference run with the proof switched off, byte for byte, the two tracks
must give the same rows on polynomial bases, and the proof must never claim
a row whose composed numerators sympy finds a nonconstant gcd for.  The
sweep's size cap reads the same point bound, so ``_point_bits`` must bound
every value the proof takes, and both caps must stop a sweep before any
proof runs.
"""

import dataclasses
import math
import random
import types
from fractions import Fraction

import pytest

from torigcd import nevandeg
from torigcd.errors import HypothesisError, UsageError
from torigcd.nevandeg import SweepConfig, gcd_sweep, tgcd_sweep
from torigcd.parsing import parse_multipoly, parse_ratfunc
from torigcd.ratfunc import RationalFunction
from torigcd.unipoly import UniPoly

# (F, G, bases, k_max, track): the shapes of the benchmark's sweep inputs, with
# bases over constants a, b, c of magnitudes 1, 2, 3 in a seeded order and signs
TEMPLATES = [
    ("x1-1", "x2-1", ("z{a:+d}", "z{b:+d}"), 60, "n"),
    ("x1-1", "x2-1", ("z{a:+d}", "z^2{b:+d}"), 30, "n"),
    ("x1*x2-1", "x3-1", ("z{a:+d}", "z{b:+d}", "z{c:+d}"), 40, "n"),
    ("x1-1", "x2*x3-1", ("z{a:+d}", "z{b:+d}", "z{c:+d}"), 20, "n"),
    ("x1-1", "x2-1", ("z/(z{a:+d})", "z{b:+d}"), 30, "n"),
    ("x1-1", "x2-1", ("z/(z{a:+d})", "(z{b:+d})/(z{c:+d})"), 30, "n"),
    ("x1*x2-1", "x1-1", ("z{a:+d}", "z{b:+d}"), 30, "n"),
    ("x1^2-x2", "x2-1", ("z{a:+d}", "z{b:+d}"), 30, "n"),
    ("x1-1", "x2-1", ("z{a:+d}", "z{b:+d}"), 30, "t"),
    ("x1-1", "x2-1", ("z{a:+d}", "z^2{b:+d}"), 30, "t"),
    ("x1-1", "x2-1", ("z^2{a:+d}", "z^2{b:+d}"), 20, "n"),
]

# rows the point cannot prove: every row shares z-2, and every even row z+2
SHARED = [
    ("x1^2-x2", "x2-1", ("z-3", "z-1"), 30, "n"),
    ("x1-1", "x2-1", ("z+3", "z+1"), 30, "n"),
]

PAIRS = [("x1-1", "x2-1"), ("x1*x2-1", "x1-1"), ("x1^2-x2", "x2-1"), ("x1+x2-2", "x1-2*x2")]
FRACTIONS = [Fraction(n, d) for n in range(-3, 4) for d in (1, 2, 3)]


def _config(F, G, bases, **kw):
    n = len(bases)
    return SweepConfig(
        F=parse_multipoly(F, n, first_index=1),
        G=parse_multipoly(G, n, first_index=1),
        gs=tuple(b if isinstance(b, RationalFunction) else parse_ratfunc(b) for b in bases),
        **kw,
    )


def _template_sweeps(seeds):
    for seed in seeds:
        rng = random.Random(seed)
        a, b, c = (m * rng.choice((-1, 1)) for m in rng.sample((1, 2, 3), 3))
        for F, G, bases, k_max, track in TEMPLATES:
            yield track, _config(F, G, [g.format(a=a, b=b, c=c) for g in bases], k_max=k_max)


def _random_base(rng):
    deg = rng.randint(1, 2)
    lead = rng.choice([f for f in FRACTIONS if f])
    return RationalFunction(UniPoly([rng.choice(FRACTIONS) for _ in range(deg)] + [lead]))


def _random_sweeps(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        F, G = rng.choice(PAIRS)
        k_min, k_step = rng.randint(1, 4), rng.randint(1, 2)
        bases = [_random_base(rng) for _ in range(2)]
        yield "n", _config(F, G, bases, k_min=k_min, k_max=k_min + rng.randint(4, 12), k_step=k_step)


def _outcome(track, cfg):
    run = gcd_sweep if track == "n" else tgcd_sweep
    try:
        return repr(run(cfg))
    except HypothesisError as exc:
        return repr((str(exc), exc.certificate))


def test_point_rows_equal_the_polynomial_route(monkeypatch):
    sweeps = [
        *_template_sweeps(range(3)),
        *((track, _config(F, G, bases, k_max=k_max)) for F, G, bases, k_max, track in SHARED),
        ("n", _config("x1-1", "x2-1", ("z+3", "z+1"), k_min=2, k_max=20, k_step=2)),
        # F(g) vanishes identically at k = 1, against a constant G
        ("n", _config("x1-x2-1", "2", ("z+1", "z"), k_max=3)),
        *_random_sweeps(7, 40),
    ]
    got = [_outcome(track, cfg) for track, cfg in sweeps]
    monkeypatch.setattr(nevandeg, "_coprime_at_point", lambda *args: False)
    assert got == [_outcome(track, cfg) for track, cfg in sweeps]
    assert [out for out in got if "SweepResult" not in out] == [
        repr(("a composed function vanishes identically", {"k": 1}))
    ]


def test_tracks_agree_on_polynomial_bases():
    # over polynomial bases F(g^k) and G(g^k) are polynomials, so their gcd
    # proximity is 0 and every T_gcd row is the row's deg gcd
    sweeps = [
        *(cfg for _, cfg in _template_sweeps(range(3)) if all(g.is_polynomial() for g in cfg.gs)),
        *(cfg for _, cfg in _random_sweeps(13, 240)),
    ]
    def untracked(run, cfg):
        try:
            return dataclasses.replace(run(cfg), track=None)
        except HypothesisError as exc:
            return str(exc), exc.certificate

    results = []
    for cfg in sweeps:
        results.append(untracked(gcd_sweep, cfg))
        assert results[-1] == untracked(tgcd_sweep, cfg), cfg
    swept = [r for r in results if isinstance(r, nevandeg.SweepResult)]
    assert len(swept) >= 200
    assert sum(any(row.gcd_degree for row in r.rows) for r in swept) > 20


def test_point_proof_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    z = sympy.Symbol("z")

    def poly(coeffs):
        return sympy.Poly(list(reversed(coeffs)), z, domain=sympy.QQ)

    sweeps = [
        *_template_sweeps(range(2)),
        *((track, _config(F, G, bases, k_max=8)) for F, G, bases, _, track in SHARED),
        *_random_sweeps(11, 12),
    ]
    proved = shared = 0
    for _, cfg in sweeps:
        if not all(g.is_polynomial() for g in cfg.gs):
            continue
        bases, plans = nevandeg._point_plan(cfg)
        gs = [poly(g.num.coeffs) for g in cfg.gs]
        for k in range(1, 9):
            nums = []
            for P in (cfg.F, cfg.G):
                value = poly([0])
                for exp, c in P.terms.items():
                    term = poly([c])
                    for g, e in zip(gs, exp):
                        term *= g ** (k * e)
                    value += term
                nums.append(value)
            if any(num.is_zero for num in nums):
                continue
            degree = nums[0].gcd(nums[1]).degree()
            claim = nevandeg._coprime_at_point(k, bases, plans)
            assert not (claim and degree > 0), (cfg, k)
            proved += claim
            shared += degree > 0
    assert proved > 100 and shared > 10


def test_point_bits_bound_the_point_values(monkeypatch):
    values = []

    def gcd(a, b):
        values.append((a, b))
        return math.gcd(a, b)

    monkeypatch.setattr(nevandeg, "math", types.SimpleNamespace(gcd=gcd))
    rows = 0
    # at 14*x1 over z the point is 30 on every row, and the bound nearly meets
    # the value 14 * 30^k: bitlen(beta_F) carries the 14
    tight = _config("14*x1", "100*x2-1", ("z", "z+3"), k_max=30)
    for _, cfg in [*_template_sweeps(range(3)), ("n", tight)]:
        bases, plans = nevandeg._point_plan(cfg)
        ks = range(cfg.k_min, cfg.k_max + 1, cfg.k_step)
        for k, bits in zip(ks, nevandeg._point_bits(cfg, bases, plans), strict=True):
            values.clear()
            nevandeg._coprime_at_point(k, bases, plans)
            (a, b), = values
            assert max(a.bit_length(), b.bit_length()) <= bits, (cfg, k)
            rows += 1
    assert rows == 3 * sum(k_max for *_, k_max, _ in TEMPLATES) + 30


def _unreached(*args):
    raise AssertionError("the caps come first")


@pytest.mark.parametrize("run", [gcd_sweep, tgcd_sweep])
@pytest.mark.parametrize(
    "F, G, bases, kw, cap",
    [
        ("x1-1", "x2-1", ("z", "z+1"), {"k_min": 1001, "k_max": 1001}, "degree cap"),
        ("x1^100-2", "x2-1", ("z^5", "z+1"), {"k_max": 3}, "degree cap"),
        ("x1-1", "x2-1", ("z+3", "z-2"), {"k_max": 412}, "size cap"),
        ("x1-1", "x2-1", ("z+3", "z-2"), {"k_min": 991, "k_max": 1000}, "size cap"),
        ("x1-1", "x2-1", ("z/(z+3)", "(z-2)/(z+5)"), {"k_max": 1000}, "size cap"),
    ],
)
def test_sweep_caps_come_before_the_proofs(run, F, G, bases, kw, cap, monkeypatch):
    monkeypatch.setattr(nevandeg, "coprime_multivariate", _unreached)
    monkeypatch.setattr(nevandeg, "mult_independent", _unreached)
    with pytest.raises(UsageError, match=cap):
        run(_config(F, G, bases, **kw))
    # inside both caps the gate goes on to the proofs
    with pytest.raises(AssertionError, match="the caps come first"):
        run(_config("x1-1", "x2-1", ("z+3", "z-2"), k_max=411))


@pytest.mark.parametrize("run", [gcd_sweep, tgcd_sweep])
@pytest.mark.parametrize(
    "kw, rule",
    [
        ({"k_min": 0}, "k_min <= k_max"),
        ({"k_min": -1}, "k_min <= k_max"),
        ({"k_step": 0}, "k_step >= 1"),
        ({"k_step": -2}, "k_step >= 1"),
        ({"k_min": 5, "k_max": 4}, "k_min <= k_max"),
        ({"epsilon": Fraction(0)}, "epsilon must be positive"),
        ({"epsilon": Fraction(-1, 3)}, "epsilon must be positive"),
    ],
)
def test_sweep_range_comes_before_every_other_check(run, kw, rule, monkeypatch):
    for name in ("_point_plan", "coprime_multivariate", "mult_independent"):
        monkeypatch.setattr(nevandeg, name, _unreached)
    base = _config("x1-1", "x2-1", ("z+3", "z-2"), **kw)
    # a zero F and one base for two variables are hypothesis faults the range
    # check outranks
    for cfg in (
        base,
        dataclasses.replace(base, F=parse_multipoly("0", 2, first_index=1)),
        dataclasses.replace(base, gs=base.gs[:1]),
    ):
        with pytest.raises(UsageError, match=rule):
            run(cfg)

"""Power-sweep rows decided at one integer point.

``_degree_at_point`` decides a row over polynomial bases, on either track,
without building F(g^k) or G(g^k): a coprime row from the value gcd, a
shared row from GCDHEU's candidate read off the same gcd and proved a
divisor of both numerators by residues.  Every sweep must equal a reference
run with the point switched off, byte for byte, the two tracks must give
the same rows on polynomial bases, and every row the point decides must
equal the degree of the gcd sympy finds for the composed numerators.  The
sweep's size cap reads the same point bound, so ``_point_bits`` must bound
every value the point takes, and both caps must stop a sweep before any
proof runs.
"""

import dataclasses
import math
import random
import types
from fractions import Fraction

import pytest

from torigcd import cli, kernel, nevandeg
from torigcd.errors import HypothesisError, UsageError
from torigcd.kernel.intpoly_py import _interpolate
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

# rows that share a factor: every row of the first sweep shares z-2, and
# every even row of the second z+2; the point decides most of them
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
    monkeypatch.setattr(nevandeg, "_degree_at_point", lambda *args: None)
    assert got == [_outcome(track, cfg) for track, cfg in sweeps]
    assert [out for out in got if "SweepResult" not in out] == [
        repr(("a composed function vanishes identically", {"k": 1}))
    ]


def test_tracks_agree_on_polynomial_bases(monkeypatch):
    # over polynomial bases F(g^k) and G(g^k) are polynomials, so their gcd
    # proximity is 0 and every T_gcd row is the row's deg gcd; with the point
    # switched off, the polynomial route gives the same rows
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
    monkeypatch.setattr(nevandeg, "_degree_at_point", lambda *args: None)
    assert results == [untracked(gcd_sweep, cfg) for cfg in sweeps]


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
    decided = shared = 0
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
            claim = nevandeg._degree_at_point(k, bases, plans)
            if any(num.is_zero for num in nums):
                assert claim is None, (cfg, k)
                continue
            if claim is not None:
                assert claim == nums[0].gcd(nums[1]).degree(), (cfg, k)
                decided += 1
                shared += claim > 0
    assert decided > 100 and shared > 10


def test_point_bits_bound_the_point_values(monkeypatch):
    # every value a row takes: the numerators at x and at x + 1, and the
    # pair whose integer gcd the size cap prices
    values = []
    values_at = nevandeg._values_at

    def gcd(a, b):
        values.extend((a, b))
        return math.gcd(a, b)

    def recorded(*args):
        out = list(values_at(*args))
        values.extend(out)
        return out

    monkeypatch.setattr(nevandeg, "math", types.SimpleNamespace(gcd=gcd))
    monkeypatch.setattr(nevandeg, "_values_at", recorded)
    rows = at_next = 0
    # at 14*x1 over z the point is 30 on every row, and the bound nearly meets
    # the value 14 * 30^k: bitlen(beta_F) carries the 14
    tight = _config("14*x1", "100*x2-1", ("z", "z+3"), k_max=30)
    for _, cfg in [*_template_sweeps(range(3)), ("n", tight)]:
        bases, plans = nevandeg._point_plan(cfg)
        ks = range(cfg.k_min, cfg.k_max + 1, cfg.k_step)
        for k, bits in zip(ks, nevandeg._point_bits(cfg, bases, plans), strict=True):
            values.clear()
            nevandeg._degree_at_point(k, bases, plans)
            assert max(v.bit_length() for v in values) <= bits, (cfg, k)
            rows += 1
            at_next += len(values) > 4  # the row took its values at x + 1
    assert rows == 3 * sum(k_max for *_, k_max, _ in TEMPLATES) + 30
    assert at_next > 100


@pytest.mark.parametrize("track", ["n", "t"])
@pytest.mark.parametrize(
    "bases, k_max, shared",
    [
        # 2z+1 divides (2z)^k - 1 and (2z+2)^k - 1 at even k: a non-monic
        # linear factor, proved at the root -1 of H = y + 1
        (("2*z", "2*z+2"), 30, {k: 1 for k in range(2, 31, 2)}),
        # z^2+z+1 divides z^k - 1 and (z+1)^k - 1 at 6 | k, proved by residues
        # modulo it; at k = 12 the candidate is spurious and the row is built
        (("z", "z+1"), 12, {6: 2}),
        # 4z^2+2z+1 divides (2z)^k - 1 and (2z+1)^k - 1 at 6 | k: a non-monic
        # quadratic factor, proved by residues modulo H = y^2 + 2y + 4
        (("2*z", "2*z+1"), 24, {6: 2, 12: 2, 18: 2, 24: 2}),
    ],
)
def test_shared_rows_decided_at_the_point(track, bases, k_max, shared, monkeypatch):
    cfg = _config("x1-1", "x2-1", bases, k_max=k_max)
    point, plans = nevandeg._point_plan(cfg)
    decided = {k: nevandeg._degree_at_point(k, point, plans) for k in range(1, k_max + 1)}
    assert {k: d for k, d in decided.items() if d} == shared
    got = _outcome(track, cfg)
    monkeypatch.setattr(nevandeg, "_degree_at_point", lambda *args: None)
    assert got == _outcome(track, cfg)


def test_spurious_candidates_fall_back_before_the_proof(monkeypatch):
    # over z, z+1 the point is x = 6 on every row, and the value gcds of
    # 6^k - 1 and 7^k - 1 carry factors no common factor of the numerators
    # explains, so most candidates are spurious.  h(x + 1) divides N_P(x + 1)
    # whenever h divides N_P, and it is never 0: the digits of a candidate
    # lie within x/2, so by Cauchy's bound its roots lie below 1 + x/2 < x + 1
    cfg = _config("x1-1", "x2-1", ("z", "z+1"), k_max=60)
    bases, plans = nevandeg._point_plan(cfg)
    proofs = []
    divides = nevandeg._divides_numerators

    def recorded(h, *args):
        proofs.append(h)
        return divides(h, *args)

    monkeypatch.setattr(nevandeg, "_divides_numerators", recorded)
    fell_back = 0
    for k in range(1, 61):
        if nevandeg._degree_at_point(k, bases, plans) is not None:
            continue
        fell_back += 1
        # the candidate the point read, checked against the built numerators
        x = 2 * min(nevandeg._betas(k, bases, plans)) + 2
        h = kernel.primitive_part(_interpolate(math.gcd(*nevandeg._values_at(x, k, bases, plans)), x))
        nums = [UniPoly([-1]) + g.num**k for g in cfg.gs]
        assert any(kernel.exact_quotient(num.ints, h) is None for num in nums), k
    assert fell_back == 30
    assert proofs == [[1, 1, 1]]
    reference = _outcome("n", cfg)
    monkeypatch.setattr(nevandeg, "_degree_at_point", lambda *args: None)
    assert reference == _outcome("n", cfg)


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


def _many_bases(count):
    return [arg for i in range(1, count + 1) for arg in ("--g", f"z+{i}")]


def test_sweep_over_many_bases_walks_only_the_used_variables(capsys):
    # F and G use x1 and x2 of 600: the point plans cover those two, so the
    # Horner walk is as flat as with two bases; at k = 6 the numerators
    # (z+1)^6 - 1 and (z+2)^6 - 1 share z^2+3z+3
    argv = ["gcd-sweep", "--F", "x1-1", "--G", "x2-1", *_many_bases(600), "--kmax", "6"]
    assert cli.run(argv) == 1
    rows = capsys.readouterr().out.splitlines()
    body = rows[rows.index("k,gcd_degree,scale,ratio") + 1 :]
    assert body[:6] == [f"{k},0,{k},0" for k in range(1, 6)] + ["6,2,6,1/3"]


def test_sweep_in_many_used_variables_needs_no_nested_calls(capsys):
    # F uses all 600 variables, one level each in its Horner plan
    F = "+".join(f"x{i}" for i in range(1, 601)) + "-1"
    argv = ["gcd-sweep", "--F", F, "--G", "x1-2", *_many_bases(600), "--kmax", "1"]
    assert cli.run(argv) == 0
    assert "1,0,1,0" in capsys.readouterr().out.splitlines()


def test_many_bases_equal_the_polynomial_route(monkeypatch):
    # bases z+1, ..., z+50 with F and G in a few of their variables, rows
    # that share a factor among them, against the route with the point off
    bases = [f"z+{i}" for i in range(1, 51)]
    sweeps = [
        _config_many("x1-1", "x2-1", bases, k_max=12),
        _config_many("x3*x7-1", "x50-1", bases, k_max=6),
        _config_many("x1^2-x2", "x2-1", [f"z-{i}" for i in range(1, 51)], k_max=8),
    ]
    got = [_outcome("n", cfg) for cfg in sweeps]
    assert any(", gcd_degree=2," in out for out in got)
    monkeypatch.setattr(nevandeg, "_degree_at_point", lambda *args: None)
    assert got == [_outcome("n", cfg) for cfg in sweeps]


def _config_many(F, G, bases, **kw):
    n = len(bases)
    return SweepConfig(
        F=parse_multipoly(F, n, first_index=1),
        G=parse_multipoly(G, n, first_index=1),
        gs=tuple(parse_ratfunc(b) for b in bases),
        **kw,
    )

"""Each job has one implementation; every test keeps the copy it replaced.

The CLI grammar's term text comes from ``unipoly._render``, GCDHEU's
candidate at a point from ``kernel.intpoly_py._candidate``, powers by
squaring from ``kernel.intpoly_py._power``, and monomial orders from their
sort keys.  Each test checks the shared routine against the old per-site
code, kept below as the reference, on seeded inputs.
"""

import math
import random
from fractions import Fraction

import pytest

from torigcd import kernel, nevandeg
from torigcd.kernel.intpoly_py import _candidate, _interpolate, _power
from torigcd.multipoly import MultiPoly, _mul_maps, format_multipoly
from torigcd.nevandeg import SweepConfig, gcd_sweep
from torigcd.ordering import LEX, Weight, compare, trailing_monomial
from torigcd.parsing import parse_multipoly, parse_ratfunc
from torigcd.unipoly import UniPoly, _magnitude, format_unipoly

FRACTIONS = [Fraction(n, d) for n in range(-4, 5) for d in (1, 1, 2, 3, 6)]


# -- references: the code before the shared routines ------------------------


def _old_format_unipoly(p):
    if p.is_zero():
        return "0"
    den = p.den
    parts = []
    for i in range(p.degree, -1, -1):
        c = p.ints[i]
        if not c:
            continue
        sign = "-" if c < 0 else ("+" if parts else "")
        mag = _magnitude(c, den)
        if i == 0:
            body = mag
        else:
            v = "z" if i == 1 else f"z^{i}"
            body = v if mag == "1" else f"{mag}*{v}"
        parts.append(sign + body)
    return "".join(parts)


def _old_format_multipoly(F, first_index=0):
    if F.is_zero():
        return "0"
    parts = []
    for exp, c in sorted(F.ints.items(), reverse=True):
        sign = "-" if c < 0 else ("+" if parts else "")
        mag = _magnitude(c, F.den)
        factors = []
        for axis, e in enumerate(exp):
            if e == 1:
                factors.append(f"x{first_index + axis}")
            elif e > 1:
                factors.append(f"x{first_index + axis}^{e}")
        if not factors:
            body = mag
        else:
            if mag != "1":
                factors.insert(0, mag)
            body = "*".join(factors)
        parts.append(sign + body)
    return "".join(parts)


def _old_compare(order, a, b):
    if isinstance(order, Weight):
        if len(a) != len(b) or len(a) != len(order.u):
            raise ValueError("exponent length mismatch")
        wa = sum(w * x for w, x in zip(order.u, a))
        wb = sum(w * x for w, x in zip(order.u, b))
        if wa != wb:
            return 1 if wa > wb else -1
    elif len(a) != len(b):
        raise ValueError("exponent length mismatch")
    return (a > b) - (a < b)


def _old_trailing_monomial(F, order):
    best = None
    for exp in F.ints:
        if best is None or _old_compare(order, exp, best) < 0:
            best = exp
    return best


def _old_point_rule(v, x):
    """The sweep's old reading of a value gcd: 0, a candidate h, or None."""
    if 2 * v < x:
        return 0
    s = _interpolate(v, x)
    if 2 * kernel.content(s) >= x:
        return None
    return kernel.primitive_part(s)


def _old_degree_at_point(k, bases, plans):
    x = 2 * min(nevandeg._betas(k, bases, plans)) + 2
    a, b = nevandeg._values_at(x, k, bases, plans)
    if not a or not b:
        return None
    h = _old_point_rule(math.gcd(a, b), x)
    if h is None or h == 0:
        return h
    hx = nevandeg._evaluate(h, x + 1)
    if any(value % hx for value in nevandeg._values_at(x + 1, k, bases, plans)):
        return None
    return len(h) - 1 if nevandeg._divides_numerators(h, k, bases, plans) else None


def _repeated(base, k, mul):
    out = base
    for _ in range(k - 1):
        out = mul(out, base)
    return out


# -- inputs -----------------------------------------------------------------


def _random_unipoly(rng):
    shape = rng.random()
    if shape < 0.05:
        return UniPoly()
    if shape < 0.15:
        return UniPoly([rng.choice(FRACTIONS)])
    coeffs = [rng.choice(FRACTIONS + [0, 0, 1, -1]) for _ in range(rng.randint(1, 8))]
    return UniPoly(coeffs + [rng.choice([1, -1, *FRACTIONS])])


def _random_multipoly(rng, nvars):
    if rng.random() < 0.05:
        return MultiPoly(nvars)
    terms = {}
    for _ in range(rng.randint(1, 6)):
        exp = tuple(rng.choice((0, 0, 0, 1, 2, 5)) for _ in range(nvars))
        terms[exp] = rng.choice([1, -1, *FRACTIONS])
    return MultiPoly(nvars, terms)


# -- tests ------------------------------------------------------------------


def test_unipoly_text_matches_the_old_renderer():
    rng = random.Random(30)
    polys = [UniPoly(), UniPoly([1]), UniPoly([-1]), UniPoly([0, 1]), UniPoly([0, -1])]
    polys += [_random_unipoly(rng) for _ in range(600)]
    for p in polys:
        assert format_unipoly(p) == _old_format_unipoly(p), p
        assert str(p) == format_unipoly(p)
        assert parse_ratfunc(format_unipoly(p)).num == p


@pytest.mark.parametrize("first_index", [0, 1])
def test_multipoly_text_matches_the_old_renderer_and_parses_back(first_index):
    rng = random.Random(31 + first_index)
    for _ in range(400):
        nvars = rng.choice((1, 2, 3, 5, 12))
        F = _random_multipoly(rng, nvars)
        text = format_multipoly(F, first_index)
        assert text == _old_format_multipoly(F, first_index), F
        assert parse_multipoly(text, nvars, first_index=first_index) == F, text
    for text in ("0", "1", "-1", "-x1", "x1-1/2", "-3/2*x1^2*x3+x2"):
        assert format_multipoly(parse_multipoly(text, 3, first_index=1), 1) == text


def test_orders_are_their_sort_keys():
    rng = random.Random(32)
    for _ in range(300):
        n = rng.randint(1, 5)
        orders = [LEX, Weight([rng.randint(0, 4) for _ in range(n)]), Weight([0] * n)]
        for order in orders:
            for _ in range(10):
                a = tuple(rng.randint(0, 4) for _ in range(n))
                b = tuple(rng.randint(0, 4) for _ in range(n)) if rng.random() < 0.9 else a
                assert compare(a, b, order) == _old_compare(order, a, b)
                ka, kb = order.key(a), order.key(b)
                assert order.compare(a, b) == (ka > kb) - (ka < kb)
            F = _random_multipoly(rng, n)
            if not F.is_zero():
                assert trailing_monomial(F, order) == _old_trailing_monomial(F, order)
    for order, a, b in (
        (LEX, (1, 0), (1, 0, 0)),
        (Weight((1, 2)), (1, 0, 0), (1, 0, 0)),
        (Weight((1, 2)), (1, 0), (1, 0, 0)),
    ):
        with pytest.raises(ValueError):
            _old_compare(order, a, b)
        with pytest.raises(ValueError):
            compare(a, b, order)


@pytest.mark.parametrize("x", [6, 7, 30, 31, 2**40, 2**40 + 1])
def test_candidate_on_both_sides_of_half_the_point(x):
    half = x // 2
    for v in range(max(1, half - 3), half + 5):
        h = _candidate(v, x)
        old = _old_point_rule(v, x)
        if 2 * v <= x:
            # a single balanced digit: candidate 1, which the old sweep rule
            # fell back on at 2 v = x and read as 0 below it
            assert h == [1]
            assert old == (None if 2 * v == x else 0)
        else:
            # at least two digits, read as in the old kernel loop
            assert len(h) >= 2 and h[-1] > 0
            assert h == kernel.primitive_part(_interpolate(v, x)) == old
            s = _interpolate(v, x)
            assert sum(c * x**i for i, c in enumerate(s)) == v


def test_sweep_row_whose_value_gcd_is_half_the_point(monkeypatch):
    # over z-3, z+1 at k = 1: N_F = z - 4 and N_G = z at x = 8 have the
    # value gcd 4 = x/2, so the old rule built the row and the kernel's
    # rule reads 0 at the point
    cfg = SweepConfig(
        F=parse_multipoly("x1-1", 2, first_index=1),
        G=parse_multipoly("x2-1", 2, first_index=1),
        gs=(parse_ratfunc("z-3"), parse_ratfunc("z+1")),
        k_max=12,
    )
    bases, plans = nevandeg._point_plan(cfg)
    x = 2 * min(nevandeg._betas(1, bases, plans)) + 2
    assert (x, math.gcd(*nevandeg._values_at(x, 1, bases, plans))) == (8, 4)
    assert _old_degree_at_point(1, bases, plans) is None
    assert nevandeg._degree_at_point(1, bases, plans) == 0
    for k in range(2, 13):
        old = _old_degree_at_point(k, bases, plans)
        if old is not None:
            assert nevandeg._degree_at_point(k, bases, plans) == old
    got = repr(gcd_sweep(cfg))
    monkeypatch.setattr(nevandeg, "_degree_at_point", lambda *args: None)
    assert got == repr(gcd_sweep(cfg))


def test_sweep_rows_agree_with_the_old_point_rule():
    rng = random.Random(33)
    decided = 0
    for _ in range(40):
        F, G = rng.choice([("x1-1", "x2-1"), ("x1^2-x2", "x2-1"), ("x1*x2-1", "x1-1")])
        gs = tuple(
            parse_ratfunc(f"{rng.choice((1, 2, 3))}*z{rng.choice((-3, -2, -1, 1, 2, 3)):+d}")
            for _ in range(2)
        )
        cfg = SweepConfig(
            F=parse_multipoly(F, 2, first_index=1), G=parse_multipoly(G, 2, first_index=1), gs=gs
        )
        bases, plans = nevandeg._point_plan(cfg)
        for k in range(1, 13):
            old = _old_degree_at_point(k, bases, plans)
            if old is not None:
                assert nevandeg._degree_at_point(k, bases, plans) == old, (F, G, gs, k)
                decided += 1
    assert decided > 300


def test_power_matches_repeated_products():
    rng = random.Random(34)
    H = [3, -1]  # residues modulo y^2 - y + 3
    for k in range(1, 41):
        a = [rng.randint(-3, 3) for _ in range(rng.randint(1, 4))] + [rng.choice((1, -2))]
        assert _power(a, k, kernel.mul) == _repeated(a, k, kernel.mul)
        m = {(rng.randint(0, 2), rng.randint(0, 2)): rng.randint(-2, 2) or 1 for _ in range(3)}
        assert _power(m, k, _mul_maps) == _repeated(m, k, _mul_maps)
        r = nevandeg._Residue([rng.randint(-3, 3) for _ in range(3)], H)
        assert (r**k).c == _repeated(r, k, nevandeg._Residue.__mul__).c
        p = UniPoly([rng.choice(FRACTIONS) for _ in range(3)])
        assert p**k == _repeated(p, k, UniPoly.__mul__)
        F = MultiPoly(2, {(1, 0): rng.choice(FRACTIONS) or 1, (0, 2): Fraction(1, 2)})
        assert F**k == _repeated(F, k, MultiPoly.__mul__)
    # _horner takes x**0 of a residue
    assert nevandeg._Residue([1, 2], H) ** 0 == 1
    assert UniPoly([1, 2]) ** 0 == UniPoly([1]) and UniPoly() ** 0 == UniPoly([1])
    assert [UniPoly() ** k for k in (1, 2, 7)] == [UniPoly()] * 3
    assert [MultiPoly(2) ** k for k in (1, 2, 7)] == [MultiPoly(2)] * 3

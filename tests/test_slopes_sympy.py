"""Map and gcd characteristic slopes against generic hyperplane sections in sympy.

For a rational map [1 : g_1 : ... : g_n] in reduced form (P_0 : ... : P_n),
a generic combination a_0 + sum a_i g_i is (sum_{i>=0} a_i P_i) / P_0 with
nothing left to cancel, so its height max(deg num, deg den) is the map's
slope.  A draw that cancels a factor or a leading term only lowers that
height, so the largest of three seeded draws is the slope unless all three
are unlucky.  sympy's rational-function field does the cancelling.  T_gcd(f, g) is T([1 : f : g]) - T([f : g]), and [f : g] is
[1 : g/f] (or [1 : f/g] when f is zero).  Nothing here goes through the
package's lcm-and-gcd route.
"""

import random

import pytest

from torigcd.nevandeg import map_char_slope, tgcd_slope
from torigcd.parsing import parse_unipoly
from torigcd.ratfunc import RationalFunction
from torigcd.unipoly import ONE

sympy = pytest.importorskip("sympy")
z = sympy.Symbol("z")
K = sympy.QQ.frac_field(z)  # sympy's rational functions, cancelled on every operation

# linear and quadratic factors, shared across a tuple's members so that
# numerators and denominators meet
_FACTORS = [parse_unipoly(t) for t in ("z", "z-1", "z+2", "z^2+1", "3*z-2")]


def _factored(rng, most):
    p = parse_unipoly(str(rng.choice([-5, -3, -1, 1, 2, 7])))
    for q in rng.sample(_FACTORS, rng.randint(0, most)):
        p = p * q ** rng.randint(1, 3)
    return p


def _member(rng, shared_den):
    """A zero, a polynomial, a fraction over the tuple's shared denominator, or any fraction."""
    roll = rng.random()
    if roll < 0.15:
        return RationalFunction.constant(0)
    den = ONE if roll < 0.35 else shared_den if roll < 0.7 else _factored(rng, 2)
    return RationalFunction(_factored(rng, 3), den)


def _sym(f: RationalFunction):
    def poly(p):
        return sum(sympy.Rational(c.numerator, c.denominator) * z**i for i, c in enumerate(p.coeffs))

    return K.from_sympy(poly(f.num)) / K.from_sympy(poly(f.den))


def _height(h) -> int:
    return max(0, h.numer.degree(), h.denom.degree())


def _map_height(entries, rng) -> int:
    """T([1 : e_1 : ... : e_n]) from the largest of three generic sections."""
    best = 0
    for _ in range(3):
        a = [rng.choice([-1, 1]) * rng.randint(1, 10**6) for _ in range(len(entries) + 1)]
        best = max(best, _height(a[0] + sum(ai * e for ai, e in zip(a[1:], entries))))
    return best


def _tuples(seed, count, least):
    rng = random.Random(seed)
    for _ in range(count):
        shared = _factored(rng, 2)
        yield [_member(rng, shared) for _ in range(rng.randint(least, 4))]


def test_map_char_slope_matches_generic_sections():
    rng = random.Random(7)
    for gs in _tuples(401, 120, least=1):
        assert map_char_slope(gs) == _map_height([_sym(g) for g in gs], rng), gs


def test_tgcd_slope_matches_generic_sections():
    rng = random.Random(8)
    for f, g, *_ in _tuples(402, 120, least=2):
        if f.is_zero() and g.is_zero():
            continue
        sf, sg = _sym(f), _sym(g)
        without_one = _map_height([sg / sf] if not f.is_zero() else [sf / sg], rng)
        assert tgcd_slope(f, g) == _map_height([sf, sg], rng) - without_one, (f, g)

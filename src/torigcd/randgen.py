"""Seeded random generators for the property and acceptance suites.

Everything takes an explicit random.Random so that suites can record one
seed and replay byte-identically.  Coefficients are small integers in
-3..3; coprime homogeneous pairs come from rejection sampling against the
exact multivariate gcd.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Tuple

from .multipoly import MultiPoly, coprime_multivariate
from .ordering import LEX, MonomialOrder, Weight
from .ratfunc import RationalFunction
from .unipoly import UniPoly


def random_coeff(rng: random.Random) -> int:
    c = rng.randint(1, 3)
    return c if rng.random() < 0.5 else -c


def random_exponent(rng: random.Random, nvars: int, delta: int) -> Tuple[int, ...]:
    # uniform over the stars-and-bars compositions of delta into nvars parts
    cuts = sorted(rng.sample(range(delta + nvars - 1), nvars - 1)) if nvars > 1 else []
    bounds = [-1] + cuts + [delta + nvars - 1]
    return tuple(bounds[i + 1] - bounds[i] - 1 for i in range(nvars))


def random_homogeneous(rng: random.Random, nvars: int, d: int) -> MultiPoly:
    """Sparse nonzero homogeneous form of exact degree d."""
    nterms = rng.randint(1, 4)
    terms = {}
    for _ in range(nterms):
        terms[random_exponent(rng, nvars, d)] = Fraction(random_coeff(rng))
    return MultiPoly(nvars, terms)


def random_coprime_pair(rng: random.Random, nvars: int, d: int) -> Tuple[MultiPoly, MultiPoly]:
    """Rejection-sampled pair of coprime degree-d forms."""
    while True:
        F = random_homogeneous(rng, nvars, d)
        G = random_homogeneous(rng, nvars, d)
        if coprime_multivariate(F, G):
            return F, G


def random_order(rng: random.Random, nvars: int) -> MonomialOrder:
    if rng.random() < 0.5:
        return LEX
    return random_weight_order(rng, nvars)


def random_weight_order(rng: random.Random, nvars: int) -> Weight:
    return Weight(tuple(rng.randint(0, 5) for _ in range(nvars)))


def random_unipoly(
    rng: random.Random, max_deg: int, nonzero: bool = False
) -> UniPoly:
    d = rng.randint(0, max_deg)
    coeffs = [rng.randint(-3, 3) for _ in range(d + 1)]
    p = UniPoly(coeffs)
    if nonzero and p.is_zero():
        return random_unipoly(rng, max_deg, nonzero=True)
    return p


def random_ratfunc(
    rng: random.Random, max_deg: int, nonzero: bool = False
) -> RationalFunction:
    num = random_unipoly(rng, max_deg, nonzero=nonzero)
    den = random_unipoly(rng, max_deg, nonzero=True)
    return RationalFunction(num, den)

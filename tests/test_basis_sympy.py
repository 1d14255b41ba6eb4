"""Squarefree parts and gcd-free bases against sympy as an independent oracle.

``yun_factors`` must return sympy's ``Poly.sqf_list`` factors, made monic,
with their multiplicities, in increasing multiplicity.  Every ``coprime_basis`` element must be
monic and squarefree, the elements pairwise coprime by sympy's ``gcd``, and
each irreducible factor (sympy's ``factor_list``) of each input must divide
exactly one element.  The inputs are seeded products of small factors,
some of them sharing irreducibles, raised to multiplicities up to six.
"""

import random
from fractions import Fraction

import pytest

from torigcd.ratfunc import coprime_basis
from torigcd.unipoly import UniPoly, yun_factors

sympy = pytest.importorskip("sympy")
z = sympy.Symbol("z")

# z^2-1 and z^3+z^2 share irreducibles with z+1, z-1 and z
FACTORS = [
    UniPoly([0, 1]),
    UniPoly([1, 1]),
    UniPoly([-1, 1]),
    UniPoly([-1, 0, 1]),
    UniPoly([0, 0, 1, 1]),
    UniPoly([2, 0, 1]),
    UniPoly([1, 3]),
    UniPoly([1, 1, 1]),
    UniPoly([-2, 0, 0, 1]),
]


def to_sympy(p: UniPoly):
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)]
    return sympy.Poly(coeffs, z, domain=sympy.QQ)


def random_product(rng):
    p = UniPoly.constant(Fraction(rng.choice([1, -2, 3, 5]), rng.choice([1, 7])))
    for f in rng.sample(FACTORS, rng.randint(1, 4)):
        p = p * f ** rng.randint(1, 6)
    return p


def test_squarefree_parts_match_sqf_list():
    rng = random.Random(23)
    for _ in range(300):
        p = random_product(rng)
        _, factors = to_sympy(p).sqf_list()
        expected = [(f.monic(), k) for f, k in sorted(factors, key=lambda fk: fk[1])]
        assert [(to_sympy(a), i) for a, i in yun_factors(p)] == expected


def test_coprime_basis_against_sympy_factorization():
    rng = random.Random(29)
    for _ in range(100):
        inputs = [random_product(rng) for _ in range(3)]
        basis = [to_sympy(b) for b in coprime_basis(inputs)]
        for b in basis:
            assert b.LC() == 1
            assert sympy.gcd(b, b.diff(z)).degree() == 0
        for i, b in enumerate(basis):
            for c in basis[:i]:
                assert sympy.gcd(b, c).degree() == 0
        for p in inputs:
            for q, _ in to_sympy(p).factor_list()[1]:
                assert sum(b.rem(q).is_zero for b in basis) == 1

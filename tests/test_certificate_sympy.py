"""Independence certificates against sympy as an independent oracle.

For independent rows the pivot columns must be those of sympy's
``Matrix.rref()``.  Otherwise the first row whose prefix rank stops growing
is the first dependent one, sympy's null space of the transpose of the rows
up to it is one line, and the witness must be that line's primitive integer
vector with its first nonzero entry positive, padded with zeros.  Both are
checked on int matrices with planted dependencies and zero rows, and on the
divisor matrices that ``mult_independent`` builds.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torigcd.linalg import pivots_or_relation
from torigcd.nevandeg import mult_independent
from torigcd.ratfunc import RationalFunction
from torigcd.unipoly import UniPoly

sympy = pytest.importorskip("sympy")


def sympy_certificate(rows):
    """(True, pivot columns) or (False, primitive relation), by sympy alone."""
    n = len(rows)
    if n == 0:
        return True, []
    m = sympy.Matrix(rows)
    if m.rank() == n:
        return True, list(m.rref()[1])
    first = next(i for i in range(n) if sympy.Matrix(rows[: i + 1]).rank() == i)
    null = sympy.Matrix(rows[: first + 1]).T.nullspace()
    assert len(null) == 1
    vec = list(null[0])
    den = math.lcm(*(sympy.fraction(x)[1] for x in vec))
    ints = [int(x * den) for x in vec]
    g = math.gcd(*ints)
    if next(x for x in ints if x) < 0:
        g = -g
    return False, [x // g for x in ints] + [0] * (n - first - 1)


@st.composite
def planted_matrices(draw):
    """Int rows where some rows are combinations of earlier ones or zero."""
    ncols = draw(st.integers(1, 7))
    entries = st.one_of(st.just(0), st.just(0), st.integers(-9, 9), st.integers(-10**6, 10**6))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["free", "free", "planted", "zero"]))
        if kind == "planted" and rows:
            coeffs = draw(st.lists(st.integers(-4, 4), min_size=len(rows), max_size=len(rows)))
            rows.append([sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(ncols)])
        elif kind == "zero":
            rows.append([0] * ncols)
        else:
            rows.append(draw(st.lists(entries, min_size=ncols, max_size=ncols)))
    return rows


@settings(max_examples=300, deadline=None)
@given(planted_matrices())
def test_certificate_matches_sympy(rows):
    copy = [list(r) for r in rows]
    assert pivots_or_relation(rows) == sympy_certificate(rows)
    assert rows == copy  # the input rows are not modified


FACTORS = [UniPoly([0, 1]), UniPoly([1, 1]), UniPoly([-1, 1]), UniPoly([2, 0, 1]), UniPoly([1, 3])]


def _power_product(rng, exponents):
    num = UniPoly.constant(rng.choice([1, 2, -3]))
    den = UniPoly.constant(1)
    for f, e in zip(FACTORS, exponents):
        if e > 0:
            num = num * f**e
        elif e < 0:
            den = den * f ** (-e)
    return RationalFunction(num, den)


def test_mult_independent_matches_sympy():
    rng = random.Random(11)
    seen = {True: 0, False: 0}
    for _ in range(150):
        n = rng.randint(1, 4)
        k = rng.randint(1, len(FACTORS))
        exps = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(n)]
        if n > 1 and rng.random() < 0.5:  # plant a multiplicative dependency
            i = rng.randrange(1, n)
            coeffs = [rng.randint(-2, 2) for _ in range(i)]
            exps[i] = [sum(c * e[j] for c, e in zip(coeffs, exps)) for j in range(k)]
        gs = [_power_product(rng, e) for e in exps]
        cert = mult_independent(gs)
        rows = [list(r) for r in cert.matrix]
        independent, found = sympy_certificate(rows)
        assert cert.independent == independent
        if independent:
            assert list(cert.pivot_columns) == found and cert.witness is None
        else:
            assert list(cert.witness) == found and cert.pivot_columns == ()
        seen[independent] += 1
    assert seen[True] > 20 and seen[False] > 20

"""Exact ranks against sympy's Matrix.rank() as an independent oracle.

The kernel elimination (`kernel.bareiss_rank`) is checked on the shapes the
package feeds it (sparse monomial shifts of few-term forms, as in a
Macaulay matrix) and on shapes it must survive: dense rows, planted
dependent rows, zero rows and columns, wide and tall matrices, coefficients
of about 200 bits and negative pivots.  `verify_basis` is checked against
sympy's rank of the slice family B on random cells.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torigcd.idealslice import build_basis_slice, slice_constants, verify_basis
from torigcd.kernel import bareiss_rank
from torigcd.multipoly import MultiPoly
from torigcd.randgen import random_coprime_pair

sympy = pytest.importorskip("sympy")

BIG = 2**200


def sympy_rank(rows) -> int:
    if not rows or not rows[0]:
        return 0
    return sympy.Matrix(rows).rank()


def check(rows):
    copy = [list(row) for row in rows]
    assert bareiss_rank(rows) == sympy_rank(rows)
    assert rows == copy  # the input rows are not modified


def matrices(entries, max_rows=9, max_cols=9):
    """Rectangular int matrices, wide and tall and empty included."""
    return st.integers(0, max_rows).flatmap(
        lambda nr: st.integers(0, max_cols).flatmap(
            lambda nc: st.lists(
                st.lists(entries, min_size=nc, max_size=nc), min_size=nr, max_size=nr
            )
        )
    )


small = st.integers(-9, 9)
sparse = st.one_of(st.just(0), st.just(0), st.just(0), small)
big = st.integers(-BIG, BIG)


@settings(max_examples=150, deadline=None)
@given(matrices(small))
def test_dense_rows(rows):
    check(rows)


@settings(max_examples=150, deadline=None)
@given(matrices(sparse, max_rows=12, max_cols=12))
def test_sparse_rows(rows):
    check(rows)


@settings(max_examples=60, deadline=None)
@given(matrices(st.one_of(st.just(0), big), max_rows=7, max_cols=7))
def test_coefficients_of_200_bits(rows):
    check(rows)


@settings(max_examples=100, deadline=None)
@given(matrices(st.integers(-9, -1), max_rows=7, max_cols=7))
def test_negative_pivots(rows):
    check(rows)


@st.composite
def planted(draw):
    """Independent-looking rows plus integer combinations of them, shuffled."""
    ncols = draw(st.integers(1, 10))
    base = draw(st.lists(st.lists(st.one_of(small, big), min_size=ncols, max_size=ncols),
                         min_size=1, max_size=6))
    combos = draw(st.lists(st.lists(small, min_size=len(base), max_size=len(base)),
                           min_size=1, max_size=6))
    rows = base + [[sum(c * row[j] for c, row in zip(cs, base)) for j in range(ncols)]
                   for cs in combos]
    return draw(st.permutations(rows))


@settings(max_examples=100, deadline=None)
@given(planted())
def test_planted_dependent_rows(rows):
    rank = bareiss_rank(rows)
    assert rank == sympy_rank(rows)
    assert rank <= min(len(rows), len(rows[0]))


@settings(max_examples=100, deadline=None)
@given(matrices(small, max_rows=6, max_cols=6), st.data())
def test_zero_rows_and_columns(rows, data):
    ncols = len(rows[0]) if rows else data.draw(st.integers(0, 4))
    zero_cols = data.draw(st.lists(st.integers(0, ncols), max_size=3))
    for c in sorted(zero_cols, reverse=True):
        rows = [row[:c] + [0] + row[c:] for row in rows]
        ncols += 1
    for r in data.draw(st.lists(st.integers(0, len(rows)), max_size=3)):
        rows.insert(r, [0] * ncols)
    check(rows)


def monomials(nvars, degree):
    """Degree-`degree` exponent vectors in nvars variables, any fixed order."""
    return [e for e in itertools.product(range(degree + 1), repeat=nvars) if sum(e) == degree]


@st.composite
def macaulay(draw):
    """Monomial shifts of forms with few terms, one column per monomial."""
    nvars = draw(st.integers(1, 3))
    d = draw(st.integers(1, 3))
    m = draw(st.integers(d, d + 3))
    forms = []
    for _ in range(draw(st.integers(1, 3))):
        support = draw(st.lists(st.sampled_from(monomials(nvars, d)), min_size=1,
                                max_size=3, unique=True))
        coeffs = draw(st.lists(st.one_of(small.filter(bool), big.filter(bool)),
                               min_size=len(support), max_size=len(support)))
        forms.append(dict(zip(support, coeffs)))
    columns = {e: i for i, e in enumerate(draw(st.permutations(monomials(nvars, m))))}
    rows = []
    for form in forms:
        for shift in monomials(nvars, m - d):
            row = [0] * len(columns)
            for e, c in form.items():
                row[columns[tuple(a + b for a, b in zip(e, shift))]] = c
            rows.append(row)
    return draw(st.permutations(rows))


@settings(max_examples=100, deadline=None)
@given(macaulay())
def test_macaulay_shaped_rows(rows):
    check(rows)


CELLS = [
    (n, d, m)
    for n in (1, 2, 3)
    for d in (1, 2, 3)
    for m in range(d, 3 * d + 3)
    if slice_constants(m, n, d).M <= 40
]


def _rows(polys, columns):
    rows = []
    for p in polys:
        row = [0] * len(columns)
        for e, c in p.terms.items():
            row[columns[e]] = sympy.Rational(c.numerator, c.denominator)
        rows.append(row)
    return rows


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(CELLS), st.integers(0, 2**32))
def test_verify_basis_matches_sympy_rank(cell, seed):
    n, d, m = cell
    F1, F2 = random_coprime_pair(random.Random(seed), n + 1, d)
    s = build_basis_slice(F1, F2, m)
    report = verify_basis(s)
    columns = {e: i for i, e in enumerate(monomials(n + 1, m))}
    shifts = [MultiPoly.monomial(n + 1, e) for e in monomials(n + 1, m - d)]
    span = [F * x for F in (s.F1, s.F2) for x in shifts]
    assert report.rank_B == sympy_rank(_rows(s.B, columns))
    assert report.span_dim == sympy_rank(_rows(span, columns))
    assert report.passed and report.M == len(s.B)

"""Exact rational linear algebra on top of the integer kernel."""

import math
import random
from fractions import Fraction

from torigcd.linalg import pivots_or_relation, rank


def F(x, y=1):
    return Fraction(x, y)


def _planted_rows(rng, nrows, ncols):
    """Small int rows; now and then one row is a combination of earlier ones."""
    rows = [[rng.choice([0, 0, rng.randint(-5, 5)]) for _ in range(ncols)] for _ in range(nrows)]
    if nrows > 1 and rng.random() < 0.5:
        i = rng.randrange(1, nrows)
        rows[i] = [sum(rng.randint(-3, 3) * rows[j][c] for j in range(i)) for c in range(ncols)]
    return rows


def test_rank_examples():
    assert rank([[F(1), F(2)], [F(2), F(4)]]) == 1
    assert rank([[F(1), F(0)], [F(0), F(1)]]) == 2
    assert rank([]) == 0
    assert rank([[F(0), F(0)]]) == 0
    assert rank([[F(1, 2), F(1, 3)]]) == 1


def test_pivot_columns_example():
    assert pivots_or_relation([[0, 2, 4], [1, 1, 1]]) == (True, [0, 1])
    assert pivots_or_relation([[0, 0, 3], [0, 1, 0], [2, 0, 5]]) == (True, [0, 1, 2])
    assert pivots_or_relation([[1, 1, 0, 2], [2, 2, 1, 0]]) == (True, [0, 2])
    assert pivots_or_relation([]) == (True, [])


def test_relation_kills_rows():
    rows = [[1, 2], [2, 4], [0, 1]]
    independent, w = pivots_or_relation(rows)
    assert not independent
    assert w == [2, -1, 0]
    for j in range(2):
        assert sum(w[i] * rows[i][j] for i in range(3)) == 0


def test_independent_rows_have_no_relation():
    assert pivots_or_relation([[1, 0], [0, 1]]) == (True, [0, 1])


def test_relation_is_primitive_with_positive_lead():
    assert pivots_or_relation([[2, 4], [-1, -2]]) == (False, [1, 2])
    assert pivots_or_relation([[3, 6], [2, 4]]) == (False, [2, -3])
    assert pivots_or_relation([[1, 0], [0, 0]]) == (False, [0, 1])  # zero row
    assert pivots_or_relation([[0, 0], [1, 1]]) == (False, [1, 0])
    # the first dependent row decides, later rows stay out of the relation
    assert pivots_or_relation([[1, 1], [2, 2], [0, 1]]) == (False, [2, -1, 0])


def _random_cases():
    """300 random row sets, each with what `pivots_or_relation` returns on it."""
    rng = random.Random(3)
    cases = []
    for _ in range(300):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 6)
        rows = _planted_rows(rng, nrows, ncols)
        cases.append((rows, ncols) + pivots_or_relation(rows))
    return cases


def _dependent_cases():
    found = [(rows, ncols, w) for rows, ncols, independent, w in _random_cases() if not independent]
    assert len(found) >= 50
    return found


def test_rref_reproduces_row_space():
    # rank = number of pivots, and the pivot columns alone keep the row space's rank
    checked = 0
    for rows, ncols, independent, found in _random_cases():
        if not independent:
            assert rank(rows) < len(rows)
            continue
        assert rank(rows) == len(rows) == len(found)
        assert found == sorted(found) and all(0 <= c < ncols for c in found)
        assert rank([[row[c] for c in found] for row in rows]) == len(rows)
        checked += 1
    assert checked >= 50


def test_nullspace_orthogonal_and_spanning():
    # the relation kills every column and ends at the first row in the span of those before it
    for rows, ncols, w in _dependent_cases():
        assert len(w) == len(rows)
        for c in range(ncols):
            assert sum(x * row[c] for x, row in zip(w, rows)) == 0
        last = max(i for i, x in enumerate(w) if x)
        assert rank(rows[:last]) == last
        assert rank(rows[: last + 1]) == last


def test_primitive_vector_is_parallel():
    # the relation is the primitive integer vector with positive first nonzero entry
    for _, _, w in _dependent_cases():
        assert all(isinstance(x, int) for x in w)
        assert math.gcd(*w) == 1 and next(x for x in w if x) > 0

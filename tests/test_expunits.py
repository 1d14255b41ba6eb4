"""Exponential units with quadratic-field frequencies: slopes and Borel classes."""

import math
import random
from fractions import Fraction

import pytest

from torigcd.expunits import (
    BorelPartition,
    ExpUnit,
    QuadExt,
    borel_partition,
    exp_asym_ratio,
    exp_char_slope,
    exp_ngcd_slope,
    format_quad,
    parse_quad,
)


def q(a, b=0, d=1):
    return QuadExt(Fraction(a), Fraction(b), d)


def _sign_oracle(x: QuadExt) -> int:
    """Refine sqrt(d) by integer bisection until the sign of a + b*sqrt(d) resolves."""
    if x.b == 0:
        return (x.a > 0) - (x.a < 0)
    lo, hi = Fraction(0), Fraction(x.d + 1)
    for _ in range(80):
        mid = (lo + hi) / 2
        if mid * mid <= x.d:
            lo = mid
        else:
            hi = mid
        for bound in (lo, hi):
            v = x.a + x.b * bound
            w = x.a + x.b * (hi if bound is lo else lo)
            if v > 0 and w > 0:
                return 1
            if v < 0 and w < 0:
                return -1
    raise AssertionError("sign did not resolve")


def test_construction_and_folding():
    assert q(3, 0, 7) == q(3)  # b = 0 folds to the rational field
    assert QuadExt(Fraction(1), Fraction(2), 1).a == 3  # sqrt(1) folds into a
    with pytest.raises(ValueError):
        QuadExt(Fraction(1), Fraction(1), 12)  # 12 = 4*3 not squarefree
    with pytest.raises(ValueError):
        QuadExt(Fraction(1), Fraction(1), 0)


def test_field_axioms_random():
    rng = random.Random(301)
    for _ in range(60):
        d = rng.choice([2, 3, 5, 7])
        def rand():
            return q(
                Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                d,
            )
        x, y, z = rand(), rand(), rand()
        assert x + y == y + x and x * y == y * x
        assert (x + y) + z == x + (y + z)
        assert x * (y + z) == x * y + x * z
        if not x.is_zero():
            assert x * x.inverse() == q(1)
            assert (x**3) * (x**-3) == q(1)


def test_mixed_fields_rejected():
    with pytest.raises(ValueError):
        q(1, 1, 2) + q(1, 1, 3)
    assert q(1, 0, 2) + q(0, 1, 3) == q(1, 1, 3)  # rational operand adapts


def test_sign_matches_bisection_oracle():
    rng = random.Random(307)
    for _ in range(200):
        d = rng.choice([2, 3, 5, 7, 11])
        x = q(
            Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
            Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
            d,
        )
        if x.is_zero():
            assert x.sign() == 0
            continue
        assert x.sign() == _sign_oracle(x)
        assert abs(x).sign() in (0, 1)
        assert (x < abs(x) + q(1)) is True


def test_char_slope_examples():
    assert exp_char_slope(q(1)) == q(1)
    assert exp_char_slope(q(Fraction(-3, 2))) == q(Fraction(3, 2))
    assert exp_char_slope(q(0, 1, 2)) == q(0, 1, 2)  # |sqrt2| = sqrt2


def test_ngcd_slope_examples():
    assert exp_ngcd_slope(q(1), q(Fraction(3, 2)), 1) == q(Fraction(1, 2))
    for k in (1, 2, 7):
        assert exp_ngcd_slope(q(1), q(0, 1, 2), k) == q(0)
    assert exp_ngcd_slope(q(1), q(2), 5) == q(5)
    with pytest.raises(ZeroDivisionError):
        exp_ngcd_slope(q(0), q(1), 1)


def test_ngcd_slope_symmetry_linearity_bound():
    rng = random.Random(311)
    for _ in range(60):
        if rng.random() < 0.5:
            a, b = q(Fraction(rng.randint(1, 5))), q(Fraction(rng.randint(1, 5), rng.randint(1, 3)))
        else:
            d = rng.choice([2, 5])
            a, b = q(rng.randint(1, 3)), q(0, rng.randint(1, 3), d)
        k = rng.randint(1, 6)
        s = exp_ngcd_slope(a, b, k)
        assert s == exp_ngcd_slope(b, a, k)
        assert exp_ngcd_slope(a, b, 2 * k) == s + s
        bound = exp_char_slope(a) if (exp_char_slope(a) < exp_char_slope(b)) else exp_char_slope(b)
        scaled = bound * q(k)
        assert s < scaled or s == scaled


def test_asym_ratio_dichotomy():
    for k in (1, 2, 9):
        assert exp_asym_ratio(q(1), q(Fraction(3, 2)), k) == q(Fraction(1, 3))
        assert exp_asym_ratio(q(1), q(0, 1, 2), k) == q(0)
        assert exp_asym_ratio(q(1), q(1), k) == q(1)


def test_borel_paired_cancellation():
    units = [
        ExpUnit(q(1), q(1)),
        ExpUnit(q(-1), q(1)),
        ExpUnit(q(1), q(2)),
        ExpUnit(q(-1), q(2)),
    ]
    part = borel_partition(units)
    assert len(part.classes) == 2
    assert all(c.vanishes for c in part.classes)
    assert part.total_vanishes


def test_borel_partial_cancellation():
    units = [ExpUnit(q(1), q(1)), ExpUnit(q(1), q(2)), ExpUnit(q(-1), q(1))]
    part = borel_partition(units)
    by_members = {c.indices: c for c in part.classes}
    assert by_members[(0, 2)].vanishes
    assert not by_members[(1,)].vanishes
    assert not part.total_vanishes


def test_borel_green_powers():
    units = [ExpUnit(q(1), q(1)), ExpUnit(q(-1), q(1))]
    assert borel_partition(units).total_vanishes
    squared = borel_partition(units, power=2)
    assert len(squared.classes) == 1
    assert squared.classes[0].coeff_sum == q(2)  # 1^2 + (-1)^2
    assert not squared.total_vanishes


def test_borel_errors():
    with pytest.raises(ValueError):
        borel_partition([])
    with pytest.raises(ValueError):
        borel_partition([ExpUnit(q(1), q(1))])
    with pytest.raises(ValueError):
        borel_partition([ExpUnit(q(1), q(1)), ExpUnit(q(1), q(2))], power=0)
    with pytest.raises(ValueError):
        ExpUnit(q(0), q(1))


def test_borel_matches_sort_oracle():
    rng = random.Random(313)
    for _ in range(60):
        n = rng.randint(2, 6)
        units = [
            ExpUnit(
                q(rng.choice([-2, -1, 1, 2])),
                q(Fraction(rng.randint(-2, 2), rng.randint(1, 2))),
            )
            for _ in range(n)
        ]
        part = borel_partition(units)
        sums = {}
        for u in units:
            key = (u.freq.a, u.freq.b, u.freq.d)
            sums[key] = sums.get(key, q(0)) + u.coeff
        oracle_vanishes = all(v.is_zero() for v in sums.values())
        assert part.total_vanishes == oracle_vanishes
        assert len(part.classes) == len(sums)
        covered = sorted(i for c in part.classes for i in c.indices)
        assert covered == list(range(n))


def test_parse_and_format_quad():
    assert parse_quad("3/2") == q(Fraction(3, 2))
    assert parse_quad("sqrt2") == q(0, 1, 2)
    assert parse_quad("1+2*sqrt5") == q(1, 2, 5)
    assert parse_quad("-1/2-3*sqrt2") == q(Fraction(-1, 2), -3, 2)
    for x in (q(1), q(Fraction(-3, 2)), q(1, 2, 5), q(0, Fraction(-1, 3), 7)):
        assert parse_quad(format_quad(x)) == x
    from torigcd.errors import ParseError

    with pytest.raises(ParseError):
        parse_quad("sqrt12")  # not squarefree
    with pytest.raises(ParseError):
        parse_quad("1+sqrt2+sqrt3")
    with pytest.raises(ParseError):
        parse_quad("")


def test_parse_quad_caps_the_discriminant():
    from torigcd.errors import ParseError

    # the largest squarefree d up to the cap 10^12
    assert parse_quad("sqrt999999999998") == q(0, 1, 999999999998)
    for text in ("sqrt1000000000001", "2*sqrt10000000000000061", "1+sqrt" + "9" * 5000):
        with pytest.raises(ParseError, match="cap"):
            parse_quad(text)


def test_discriminant_checked_once_per_parsed_term(monkeypatch, capsys):
    # arithmetic on values already in Q(sqrt d) does not run trial division again
    from torigcd import expunits
    from torigcd.cli import run

    checked = []
    is_squarefree = expunits._is_squarefree

    def counting(n):
        checked.append(n)
        return is_squarefree(n)

    monkeypatch.setattr(expunits, "_is_squarefree", counting)
    assert run(["exp-slopes", "--a", "sqrt2", "--b", "2*sqrt2", "--kmax", "20"]) == 0
    assert capsys.readouterr().out.count("\n20,") == 1
    assert checked == [2, 2]

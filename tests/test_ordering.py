"""Monomial orders: totality, multiplicativity, trailing monomials."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torigcd.errors import ParseError
from torigcd.ordering import LEX, Lex, Weight, compare, parse_order, trailing_monomial
from torigcd.parsing import parse_multipoly

exps = st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6))
weights = st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5))


def orders_from(u):
    return [LEX, Weight(u)]


def test_lex_examples():
    assert compare((1, 0, 0), (0, 1, 0), LEX) == 1
    assert compare((0, 2), (0, 2), LEX) == 0
    assert compare((1, 5), (2, 0), LEX) == -1


def test_weight_examples():
    w = Weight((1, 2))
    assert compare((3, 0), (0, 2), w) == -1  # 3 < 4
    # weight ties fall back to lex
    assert compare((2, 1), (0, 2), w) == 1  # both weigh 4
    assert compare((2, 0), (0, 1), w) == 1  # both weigh 2
    # zero weight vector degenerates to pure lex
    z = Weight((0, 0))
    assert compare((0, 5), (1, 0), z) == compare((0, 5), (1, 0), LEX)


@given(exps, exps, weights)
@settings(max_examples=200, deadline=None)
def test_total_order_laws(a, b, u):
    for order in orders_from(u):
        c = compare(a, b, order)
        assert c in (-1, 0, 1)
        assert compare(b, a, order) == -c
        assert (c == 0) == (a == b)  # antisymmetry: ties only on equality


@given(exps, exps, exps, weights)
@settings(max_examples=200, deadline=None)
def test_transitivity(a, b, c, u):
    for order in orders_from(u):
        if compare(a, b, order) <= 0 and compare(b, c, order) <= 0:
            assert compare(a, c, order) <= 0


@given(exps, exps, exps, weights)
@settings(max_examples=200, deadline=None)
def test_translation_invariance(a, b, t, u):
    # compatible with monomial multiplication: a<b iff a+t<b+t
    for order in orders_from(u):
        shift_a = tuple(x + y for x, y in zip(a, t))
        shift_b = tuple(x + y for x, y in zip(b, t))
        assert compare(a, b, order) == compare(shift_a, shift_b, order)


@given(exps, weights)
@settings(max_examples=200, deadline=None)
def test_constant_monomial_is_least(a, u):
    zero = (0, 0, 0)
    for order in orders_from(u):
        assert compare(zero, a, order) <= 0


def test_trailing_monomial_examples():
    F = parse_multipoly("x0^2+x0*x1+x1^2", 2)
    assert trailing_monomial(F, LEX) == (0, 2)
    assert trailing_monomial(F, Weight((1, 3))) == (2, 0)
    with pytest.raises(ValueError):
        trailing_monomial(parse_multipoly("0", 2), LEX)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_trailing_monomial_multiplicative(data):
    # TM(FG) = TM(F) + TM(G) for any order compatible with multiplication
    import random

    seed = data.draw(st.integers(0, 10**6))
    rng = random.Random(seed)
    u = data.draw(weights)
    from torigcd.randgen import random_homogeneous

    F = random_homogeneous(rng, 3, rng.randint(1, 3))
    G = random_homogeneous(rng, 3, rng.randint(1, 3))
    for order in orders_from(u):
        tf = trailing_monomial(F, order)
        tg = trailing_monomial(G, order)
        tfg = trailing_monomial(F * G, order)
        assert tfg == tuple(x + y for x, y in zip(tf, tg))


def test_weight_validation():
    with pytest.raises(ValueError):
        Weight(())
    with pytest.raises(ValueError):
        Weight((1, -1))


def test_arity_mismatch_rejected():
    with pytest.raises(ValueError):
        compare((1, 0), (1, 0, 0), LEX)
    with pytest.raises(ValueError):
        compare((1, 0, 0), (1, 0, 0), Weight((1, 2)))


def test_parse_order():
    assert parse_order("lex") == Lex()
    assert parse_order("weight:3,2,1") == Weight((3, 2, 1))
    assert parse_order("weight:3,2,1").u == (3, 2, 1)
    with pytest.raises(ParseError):
        parse_order("weight:a,b")
    with pytest.raises(ParseError):
        parse_order("grevlex")
    with pytest.raises(ParseError):
        parse_order("weight:1,-2")


def test_order_equality_and_str():
    assert Lex() == Lex() and hash(Lex()) == hash(LEX)
    assert Weight((1, 2)) == Weight([1, 2])
    assert Weight((1, 2)) != Weight((2, 1))
    assert str(Weight((3, 2, 1))) == "weight:3,2,1"
    assert parse_order(str(Weight((3, 2, 1)))) == Weight((3, 2, 1))

"""The integer kernel against rational-arithmetic oracles."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torigcd import unipoly
from torigcd.kernel import intpoly_py


@pytest.fixture(params=[intpoly_py], ids=lambda b: b.__name__.rsplit(".", 1)[-1])
def backend(request):
    return request.param


def _frac_divmod(f, g):
    """Long division over Fraction lists, little-endian."""
    f = [Fraction(x) for x in f]
    g = [Fraction(x) for x in g]
    while f and f[-1] == 0:
        f.pop()
    while g and g[-1] == 0:
        g.pop()
    assert g, "division by zero"
    q = [Fraction(0)] * max(0, len(f) - len(g) + 1)
    r = f[:]
    while len(r) >= len(g) and r:
        c = r[-1] / g[-1]
        shift = len(r) - len(g)
        q[shift] = c
        for i, y in enumerate(g):
            r[i + shift] -= c * y
        while r and r[-1] == 0:
            r.pop()
    return q, r


def _frac_gcd_monic(f, g):
    """Euclidean gcd over Fraction lists, monic output."""
    a, b = [Fraction(x) for x in f], [Fraction(x) for x in g]
    while any(b):
        a, b = b, _frac_divmod(a, b)[1]
    if not a:
        return []
    lead = a[-1]
    return [x / lead for x in a]


def _frac_rank(rows):
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                factor = m[r][col] / m[rank][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def _rand_poly(rng, max_deg, lo=-6, hi=6):
    return [rng.randint(lo, hi) for _ in range(rng.randint(0, max_deg) + 1)]


def test_normalize_strips_trailing_zeros(backend):
    assert backend.normalize([1, 2, 0, 0]) == [1, 2]
    assert backend.normalize([0, 0]) == []
    assert backend.normalize([]) == []


def test_mul_matches_convolution(backend):
    assert backend.mul([1, 1], [1, 1]) == [1, 2, 1]
    assert backend.mul([], [1, 2]) == []
    assert backend.mul([2], [3]) == [6]


def test_content_and_primitive_part(backend):
    assert backend.content([6, -9, 12]) == 3
    assert backend.content([]) == 0
    assert backend.primitive_part([-2, -4]) == [1, 2]
    rng = random.Random(11)
    for _ in range(50):
        p = backend.normalize(_rand_poly(rng, 6))
        if not p:
            continue
        pp = backend.primitive_part(p)
        assert backend.content(pp) == 1
        assert pp[-1] > 0
        scale = backend.content(p) * (1 if p[-1] > 0 else -1)
        assert [c * scale for c in pp] == p


def test_exact_quotient_matches_fraction_division(backend):
    # random pairs and each product f*g, non-primitive g included: the
    # quotient is the Fraction quotient when that divides with no remainder
    # into integers, and None otherwise
    rng = random.Random(23)
    cases = exact = nonprimitive = 0
    for _ in range(160):
        f = backend.normalize(_rand_poly(rng, 8))
        g = backend.normalize(_rand_poly(rng, 5))
        if not g:
            continue
        nonprimitive += backend.content(g) > 1
        for a in (f, backend.mul(f, g)):
            quo, rem = _frac_divmod(a, g)
            ours = backend.exact_quotient(a, g)
            cases += 1
            if not rem and all(c.denominator == 1 for c in quo):
                exact += 1
                assert ours is not None and [Fraction(x) for x in ours] == quo
            else:
                assert ours is None
    assert nonprimitive and 0 < exact < cases


def test_gcd_matches_fraction_euclid(backend):
    rng = random.Random(37)
    for _ in range(150):
        f = backend.normalize(_rand_poly(rng, 7))
        g = backend.normalize(_rand_poly(rng, 7))
        if not f and not g:
            continue
        ours = backend.gcd(f, g)
        oracle = _frac_gcd_monic(f, g)
        # the kernel returns a primitive integer gcd; compare after monic scaling
        assert ours, (f, g)
        lead = Fraction(ours[-1])
        assert [Fraction(x) / lead for x in ours] == oracle


def test_gcd_pulls_out_common_factor(backend):
    rng = random.Random(41)
    for _ in range(60):
        w = backend.normalize(_rand_poly(rng, 4))
        p = backend.normalize(_rand_poly(rng, 3))
        q = backend.normalize(_rand_poly(rng, 3))
        if not w or not p or not q:
            continue
        g = backend.gcd(backend.mul(w, p), backend.mul(w, q))
        inner = backend.gcd(p, q)
        expect = backend.primitive_part(backend.mul(w, inner))
        assert backend.primitive_part(g) == expect


def test_bareiss_rank_matches_gauss(backend):
    rng = random.Random(59)
    for _ in range(120):
        nr = rng.randint(1, 6)
        nc = rng.randint(1, 6)
        rows = [[rng.randint(-5, 5) for _ in range(nc)] for _ in range(nr)]
        assert backend.bareiss_rank([row[:] for row in rows]) == _frac_rank(rows)


def test_bareiss_rank_rectangular_and_deficient(backend):
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert backend.bareiss_rank([r[:] for r in rows]) == 2
    assert backend.bareiss_rank([[0, 0], [0, 0]]) == 0


def _prs_reference(f, g):
    """The primitive gcd of f, g by the primitive remainder sequence.

    Each remainder comes from ``_frac_divmod``, is cleared of its
    denominators and replaced by its primitive part.  The primitive part
    does not change under scaling, so this is the primitive
    pseudo-remainder sequence.
    """
    a, b = intpoly_py.primitive_part(f), intpoly_py.primitive_part(g)
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _frac_divmod(a, b)[1]
        den = math.lcm(*(x.denominator for x in r))
        a, b = b, intpoly_py.primitive_part([x.numerator * (den // x.denominator) for x in r])
    return a


def _poly(coeff):
    return st.lists(coeff, max_size=8).map(intpoly_py.normalize)


small = st.integers(-9, 9)
huge = st.integers(-(2**400), 2**400)


@given(st.sampled_from([small, huge]).flatmap(lambda c: st.tuples(_poly(c), _poly(c), _poly(c))))
@settings(max_examples=300, deadline=None)
def test_heuristic_gcd_equals_prs_on_shared_inputs(polys):
    w, p, q = polys
    f, g = intpoly_py.mul(w, p), intpoly_py.mul(w, q)
    if not f and not g:
        return
    h = intpoly_py.gcd(f, g)
    assert h == _prs_reference(f, g)
    assert h[-1] > 0 and intpoly_py.content(h) == 1
    if f and g and w:
        # gcd(w*p, w*q) = pp(w) * gcd(p, q)
        assert h == intpoly_py.primitive_part(intpoly_py.mul(w, intpoly_py.gcd(p, q)))


@given(st.sampled_from([small, huge]).flatmap(lambda c: st.tuples(_poly(c), _poly(c))))
@settings(max_examples=300, deadline=None)
def test_heuristic_gcd_equals_prs_on_walk_inputs(pair):
    f, g = pair
    if not f and not g:
        return
    h = intpoly_py.gcd(f, g)
    assert h == _prs_reference(f, g)
    assert [Fraction(x, h[-1]) for x in h] == _frac_gcd_monic(f, g)


def test_gcd_zero_constant_and_sign_cases():
    gcd = intpoly_py.gcd
    with pytest.raises(ZeroDivisionError):
        gcd([], [])
    assert gcd([], [4, -6, -2]) == [-2, 3, 1]
    assert gcd([-6, 0, 3], []) == [-2, 0, 1]
    assert gcd([-7], [1, 2, 3]) == [1]
    assert gcd([5, 1], [2**300]) == [1]
    assert gcd([-7], []) == [1]
    # negative leading coefficients: (x-1)(-2x+3) and -(x-1)(x+5)
    assert gcd([-3, 5, -2], [5, -4, -1]) == [-1, 1]
    big = 2**333 + 1
    assert gcd([big, -big], [-big, 0, big]) == [-1, 1]
    cofactors = intpoly_py.gcd_cofactors
    with pytest.raises(ZeroDivisionError):
        cofactors([], [])
    assert cofactors([], [4, -6, -2]) == ([-2, 3, 1], [], [-2])
    assert cofactors([-6, 0, 3], []) == ([-2, 0, 1], [3], [])
    assert cofactors([-7], [1, 2, 3]) == ([1], [-7], [1, 2, 3])
    assert cofactors([-3, 5, -2], [5, -4, -1]) == ([-1, 1], [3, -2], [-5, -1])


def test_gcd_goes_past_points_that_fail():
    # b = x^2 + 1 and a = b + prod(x - x_i) over the first six points GCDHEU
    # tries: a(x_i) = b(x_i) for each of them, so each candidate interpolates
    # to b, which does not divide a; gcd must go on to a later point and
    # find that a and b are coprime
    K = intpoly_py
    b = [1, 0, 1]
    a = [1]
    # the points depend on the smaller norm, b's
    for x in itertools.islice(K._heu_points(b, b), 6):
        a = K.mul(a, [-x, 1])
    a = K.normalize([c + d for c, d in zip(a, b + [0] * len(a))])
    for x in itertools.islice(K._heu_points(a, b), 6):
        assert K._interpolate(math.gcd(K._evaluate(a, x), K._evaluate(b, x)), x) == b
    assert K.gcd(a, b) == _prs_reference(a, b) == [1]
    assert K.gcd(K.mul(a, [3, 1]), K.mul(b, [3, 1])) == [3, 1]


@pytest.mark.parametrize("k", [100, 150, 200, 300, 600, 1000])
def test_gcd_of_shifted_roots_of_unity(k):
    # z^k - 1 and (z+1)^k - 1 share a root z only if |z| = |z+1| = 1, that is
    # z a primitive cube root of unity, and then z^k = 1 and (z+1)^k = 1 hold
    # exactly when 6 | k; z^k - 1 is squarefree, so the gcd is z^2 + z + 1
    # then and 1 otherwise.  A planted factor w multiplies the gcd by pp(w).
    K = intpoly_py
    f = [-1] + [0] * (k - 1) + [1]
    g = [0] + [math.comb(k, i) for i in range(1, k + 1)]
    expected = [1, 1, 1] if k % 6 == 0 else [1]
    assert K.gcd(f, g) == expected
    w = [-14, 6, 4]
    assert K.gcd(K.mul(w, f), K.mul(w, g)) == K.primitive_part(K.mul(w, expected))


@given(st.integers(0, 2**64), st.booleans())
@settings(max_examples=25, deadline=None)
def test_gcd_cofactors_at_high_degree_match_sympy(seed, shared):
    # f = c*w*u*p and g = d*w*u*q of degree 100 to 400: w is a planted common
    # factor, u one more when the cofactors share a factor, and the contents
    # c, d make the cofactors carry signs and contents
    sympy = pytest.importorskip("sympy")
    K = intpoly_py
    rng = random.Random(seed)

    def rand(deg):
        return [rng.randint(-9, 9) for _ in range(deg)] + [rng.choice([-3, -2, -1, 1, 2, 3])]

    w = rand(rng.randint(1, 100))
    common = K.mul(w, rand(rng.randint(1, 50))) if shared else w

    def planted():
        rest = rand(max(0, rng.randint(100, 400) - len(common) + 1))
        return K.mul([rng.choice([-6, -1, 1, 4])], K.mul(common, rest))

    f, g = planted(), planted()
    h, f_h, g_h = K.gcd_cofactors(f, g)
    assert K.mul(h, f_h) == f and K.mul(h, g_h) == g
    assert h == K.gcd(f, g)
    x = sympy.Symbol("x")
    F, G = (sympy.Poly(list(reversed(a)), x, domain="ZZ") for a in (f, g))
    expected = [int(c) for c in reversed(F.gcd(G).primitive()[1].all_coeffs())]
    assert h in (expected, [-c for c in expected])


def _gcd_cofactors_by_interpolation(f, g):
    """GCDHEU that interpolates every value gcd, even a single digit."""
    K = intpoly_py
    if len(f) == 1 or len(g) == 1:
        return [1], list(f), list(g)
    a, b = K.primitive_part(f), K.primitive_part(g)
    if not a:
        return b, [], [g[-1] // b[-1]]
    if not b:
        return a, [f[-1] // a[-1]], []
    for x in K._heu_points(a, b):
        h = K.primitive_part(K._interpolate(math.gcd(K._evaluate(a, x), K._evaluate(b, x)), x))
        if len(h) == 1:
            return h, list(f), list(g)
        qa, qb = K.exact_quotient(a, h), K.exact_quotient(b, h)
        if qa is not None and qb is not None:
            return h, K._scaled(qa, f[-1] // a[-1]), K._scaled(qb, g[-1] // b[-1])


def _first_value_gcd(f, g):
    """(v, x): the value gcd at GCDHEU's first point, and that point."""
    K = intpoly_py
    a, b = K.primitive_part(f), K.primitive_part(g)
    x = next(K._heu_points(a, b))
    return math.gcd(K._evaluate(a, x), K._evaluate(b, x)), x


def test_gcd_cofactors_one_digit_exit_matches_interpolation():
    # coprime pairs, pairs with a planted common factor, and pairs whose first
    # value gcd v sits on the boundary 2*v == x of the one-digit exit
    K = intpoly_py
    rng = random.Random(409)
    seen = {"coprime": 0, "shared": 0, "boundary": 0}
    while min(seen.values()) < 40:
        f = K.normalize(_rand_poly(rng, 5))
        g = K.normalize(_rand_poly(rng, 5))
        if rng.random() < 0.3:
            w = K.normalize(_rand_poly(rng, 2))
            f, g = K.mul(w, f), K.mul(w, g)
        if rng.random() < 0.3:  # a zero at 0 makes x/2 divide the value
            f = [0] + f
        if len(f) < 2 or len(g) < 2:
            continue
        ours = K.gcd_cofactors(f, g)
        assert ours == _gcd_cofactors_by_interpolation(f, g), (f, g)
        v, x = _first_value_gcd(f, g)
        seen["boundary"] += 2 * v == x
        seen["coprime" if ours[0] == [1] else "shared"] += 1
    assert K.gcd_cofactors([0, 1], [2, 1]) == ([1], [0, 1], [2, 1])
    assert _first_value_gcd([0, 1], [2, 1]) == (2, 4)


def test_linear_polynomials_are_squarefree(monkeypatch):
    # a linear p is squarefree without a gcd; the gcd route agrees
    rng = random.Random(419)
    linear = [
        unipoly.UniPoly(
            [Fraction(rng.randint(-9, 9), rng.randint(1, 7)), Fraction(rng.choice([-5, -1, 2, 3]), rng.randint(1, 7))]
        )
        for _ in range(50)
    ]
    for p in linear:
        assert p.degree == 1 and unipoly.uni_gcd(p, p.derivative()).is_constant()

    def no_gcd(p, q):
        raise AssertionError("is_squarefree took a gcd of a linear polynomial")

    monkeypatch.setattr(unipoly, "uni_gcd", no_gcd)
    assert all(unipoly.is_squarefree(p) for p in linear)


def test_irreducible_quadratics_are_squarefree(monkeypatch):
    # a quadratic with a non-square discriminant (of either sign) is
    # squarefree, and a place, without a gcd; the gcd route agrees
    from torigcd.ratfunc import Place

    rng = random.Random(421)
    quadratics = []
    while len(quadratics) < 60:
        c = [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(2)]
        p = unipoly.UniPoly(c + [Fraction(rng.choice([-5, -1, 1, 2, 3]), rng.randint(1, 7))])
        disc = c[1] ** 2 - 4 * c[0] * p.coeffs[2]
        n = disc.numerator * disc.denominator  # a square iff disc is
        if n < 0 or math.isqrt(n) ** 2 != n:
            quadratics.append(p)
    assert {p.coeffs[1] ** 2 < 4 * p.coeffs[0] * p.coeffs[2] for p in quadratics} == {True, False}
    for p in quadratics:
        assert unipoly._irreducible(p) and unipoly.uni_gcd(p, p.derivative()).is_constant()

    def no_gcd(p, q):
        raise AssertionError("is_squarefree took a gcd of an irreducible quadratic")

    monkeypatch.setattr(unipoly, "uni_gcd", no_gcd)
    assert all(unipoly.is_squarefree(p) for p in quadratics)
    assert all(Place.finite(p).poly == p.monic() for p in quadratics)

"""Sparse multivariate polynomials over exact rationals.

A MultiPoly is stored as a map ``ints`` from exponent tuples (one slot per
ambient variable) to nonzero integer numerators over one positive
denominator ``den``, in lowest terms: gcd(content(ints), den) = 1, and the
zero polynomial is the empty map over 1.  The form is canonical, so two
polynomials are equal iff their (ints, den) pairs are, and hashing is
exact.  Arithmetic runs on the integer maps; ``terms`` gives a read-only
Fraction view for callers that want one.  ``substitute`` and
``evaluate_poly`` share one evaluation loop over the kernel's integer
lists.  Multivariate gcds run GCDHEU on the integer maps, one variable at a
time, with the kernel's evaluation points and digit reader, bottoming out in
the univariate integer kernel, after univariate restrictions at small points
have tried to prove the gcd constant; exact quotients divide by lex-leading
terms.
No factorization into irreducibles happens anywhere.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add, sub
from types import MappingProxyType
from typing import Dict, List, Mapping, Sequence, Tuple, Union

from . import kernel
from .kernel.intpoly_py import _heu_points, _interpolate, _power
from .ratfunc import RationalFunction
from .unipoly import UniPoly
from .unipoly import _canon as _canon_unipoly
from .unipoly import _render

Exponent = Tuple[int, ...]
Scalar = Union[int, Fraction]
IntMap = Dict[Exponent, int]
Terms = List[Tuple[Exponent, int]]  # each term's exponent with its value at a point


class MultiPoly:
    """Immutable sparse polynomial in a fixed number of variables."""

    __slots__ = ("nvars", "ints", "den")

    def __init__(self, nvars: int, terms: Mapping[Exponent, Scalar] = ()):
        if nvars < 1:
            raise ValueError("MultiPoly needs at least one variable")
        acc: Dict[Exponent, Fraction] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for exp, coeff in items:
            exp = tuple(exp)
            if len(exp) != nvars or any(e < 0 for e in exp):
                raise ValueError(f"bad exponent vector {exp!r} for {nvars} variables")
            c = Fraction(coeff)
            if c:
                acc[exp] = acc.get(exp, 0) + c
        fs = {e: c for e, c in acc.items() if c}
        # the lcm of reduced denominators leaves no factor common to all numerators
        den = math.lcm(*(c.denominator for c in fs.values()))
        _set_nvars(self, nvars)
        _set_ints(self, {e: c.numerator * (den // c.denominator) for e, c in fs.items()})
        _set_den(self, den)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    @staticmethod
    def constant(nvars: int, c: Scalar) -> "MultiPoly":
        return MultiPoly(nvars, {(0,) * nvars: c})

    @staticmethod
    def variable(nvars: int, axis: int) -> "MultiPoly":
        exp = [0] * nvars
        exp[axis] = 1
        return _new(nvars, {tuple(exp): 1}, 1)

    @staticmethod
    def monomial(nvars: int, exp: Exponent) -> "MultiPoly":
        return _new(nvars, {tuple(exp): 1}, 1)

    @property
    def terms(self) -> "Mapping[Exponent, Fraction]":
        """Read-only Fraction view of the coefficients; built on every access."""
        den = self.den
        return MappingProxyType({e: Fraction(c, den) for e, c in self.ints.items()})

    def is_zero(self) -> bool:
        return not self.ints

    def is_constant(self) -> bool:
        return not any(any(e) for e in self.ints)

    def as_constant(self) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return Fraction(next(iter(self.ints.values())), self.den)

    def __bool__(self) -> bool:
        return bool(self.ints)

    def total_degree(self) -> int:
        """Max term degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.ints), default=-1)

    def is_homogeneous(self) -> bool:
        """True when all stored terms share one total degree (zero counts)."""
        degrees = {sum(e) for e in self.ints}
        return len(degrees) <= 1

    def degree_in(self, axis: int) -> int:
        return max((e[axis] for e in self.ints), default=-1)

    def __eq__(self, other) -> bool:
        if isinstance(other, MultiPoly):
            return (
                self.nvars == other.nvars
                and self.den == other.den
                and self.ints == other.ints
            )
        if isinstance(other, (int, Fraction)):
            return self == MultiPoly.constant(self.nvars, other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.nvars, self.den, frozenset(self.ints.items())))

    def _check_arity(self, other: "MultiPoly") -> None:
        if self.nvars != other.nvars:
            raise ValueError(
                f"variable count mismatch: {self.nvars} vs {other.nvars}"
            )

    def __neg__(self) -> "MultiPoly":
        return _new(self.nvars, {e: -c for e, c in self.ints.items()}, self.den)

    def _combine(self, other: "MultiPoly", sign: int) -> "MultiPoly":
        """self + sign * other over the lcm of the two denominators."""
        self._check_arity(other)
        a, b = self.ints, other.ints
        da, db = self.den, other.den
        if da != db:
            g = math.gcd(da, db)
            a = {e: c * (db // g) for e, c in a.items()}
            b = {e: c * (da // g) for e, c in b.items()}
            da = da * (db // g)
        out = dict(a)
        for e, c in b.items():
            s = out.get(e, 0) + sign * c
            if s:
                out[e] = s
            else:
                del out[e]
        return _canon(self.nvars, out, da)

    def __add__(self, other) -> "MultiPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._combine(other, 1)

    __radd__ = __add__

    def __sub__(self, other) -> "MultiPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._combine(other, -1)

    def __rsub__(self, other) -> "MultiPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other._combine(self, -1)

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                return _zero(self.nvars)
            return _canon(
                self.nvars,
                {e: x * c.numerator for e, x in self.ints.items()},
                self.den * c.denominator,
            )
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_arity(other)
        return _canon(self.nvars, _mul_maps(self.ints, other.ints), self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        return NotImplemented

    def __pow__(self, k: int) -> "MultiPoly":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        if k == 0:
            return MultiPoly.constant(self.nvars, 1)
        # content^k stays coprime to den^k, so the power needs no reduction
        return _new(self.nvars, _power(self.ints, k, _mul_maps), self.den**k)

    def mul_monomial(self, exp: Exponent) -> "MultiPoly":
        """Product with x^exp: an exponent shift, which keeps the form canonical."""
        exp = tuple(exp)
        shifted = {tuple(map(add, e, exp)): x for e, x in self.ints.items()}
        return _new(self.nvars, shifted, self.den)

    def _coerce(self, value) -> "MultiPoly | None":
        if isinstance(value, MultiPoly):
            return value
        if isinstance(value, (int, Fraction)):
            return MultiPoly.constant(self.nvars, value)
        return None

    def __repr__(self) -> str:
        terms = {e: Fraction(self.ints[e], self.den) for e in sorted(self.ints, reverse=True)}
        return f"MultiPoly({self.nvars}, {terms!r})"

    def __str__(self) -> str:
        return format_multipoly(self)


_set_nvars = MultiPoly.nvars.__set__
_set_ints = MultiPoly.ints.__set__
_set_den = MultiPoly.den.__set__


def _new(nvars: int, ints: IntMap, den: int) -> MultiPoly:
    """Wrap a map and denominator that are already canonical."""
    F = object.__new__(MultiPoly)
    _set_nvars(F, nvars)
    _set_ints(F, ints)
    _set_den(F, den)
    return F


def _zero(nvars: int) -> MultiPoly:
    return _new(nvars, {}, 1)


def _canon(nvars: int, ints: IntMap, den: int) -> MultiPoly:
    """The polynomial ints/den in canonical form; ints holds no zero, den != 0."""
    if not ints:
        return _zero(nvars)
    if den < 0:
        ints = {e: -c for e, c in ints.items()}
        den = -den
    if den != 1:
        g = math.gcd(den, *ints.values())
        if g != 1:
            ints = {e: c // g for e, c in ints.items()}
            den //= g
    return _new(nvars, ints, den)


def _mul_maps(a: IntMap, b: IntMap) -> IntMap:
    """Product of two integer term maps, zeros dropped."""
    out: IntMap = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    if 0 in out.values():
        out = {e: c for e, c in out.items() if c}
    return out


def format_multipoly(F: MultiPoly, first_index: int = 0) -> str:
    """Render in the CLI grammar with variables x<first_index>, x<first_index+1>, ..."""
    names = [f"x{first_index + axis}" for axis in range(F.nvars)]
    terms = [
        (c, "*".join([v if e == 1 else f"{v}^{e}" for v, e in zip(names, exp) if e]))
        for exp, c in sorted(F.ints.items(), reverse=True)
    ]
    return _render(terms, F.den)


def homogenize(F: MultiPoly, d: int) -> MultiPoly:
    """Degree-d homogenization: x0^d * F(x1/x0, ..., xn/x0) in n+1 variables."""
    if d < F.total_degree():
        raise ValueError("homogenization degree below the total degree")
    return _new(F.nvars + 1, {(d - sum(e), *e): c for e, c in F.ints.items()}, F.den)


def dehomogenize(F: MultiPoly) -> MultiPoly:
    """Set the first variable to 1, dropping it from the ring."""
    if F.nvars < 2:
        raise ValueError("dehomogenize needs at least two variables")
    out: IntMap = {}
    for e, c in F.ints.items():
        key = e[1:]
        s = out.get(key, 0) + c
        if s:
            out[key] = s
        else:
            del out[key]
    return _canon(F.nvars - 1, out, F.den)


def equalize_degrees(F: MultiPoly, G: MultiPoly) -> "tuple[MultiPoly, MultiPoly]":
    """(F^deg G, G^deg F): both outputs have total degree deg(F) * deg(G)."""
    if F.is_constant() or G.is_constant():
        raise ValueError("equalize_degrees needs nonconstant inputs")
    return F ** G.total_degree(), G ** F.total_degree()


def substitute(F: MultiPoly, hs: Sequence[RationalFunction]) -> RationalFunction:
    """The reduced rational function F(h_1, ..., h_n).

    Each h_i = (P_i/a_i) / (Q_i/b_i), with integer polynomials P_i, Q_i and
    scalar denominators a_i, b_i, enters as the integer pair (b_i P_i, a_i Q_i);
    see ``_evaluate``.  The quotient is reduced once.
    """
    if len(hs) != F.nvars:
        raise ValueError(f"expected {F.nvars} argument functions, got {len(hs)}")
    pairs = [
        (_scaled(h.num.ints, h.den.den), _scaled(h.den.ints, h.num.den)) for h in hs
    ]
    num, den = _evaluate(F, pairs)
    return RationalFunction(_canon_unipoly(num, F.den), _canon_unipoly(list(den), 1))


def evaluate_poly(F: MultiPoly, gs: Sequence[UniPoly]) -> UniPoly:
    """F evaluated at a tuple of univariate polynomials.

    Each g_i = P_i/a_i enters ``_evaluate`` as the integer pair (P_i, a_i).
    """
    if len(gs) != F.nvars:
        raise ValueError(f"expected {F.nvars} argument polynomials, got {len(gs)}")
    num, den = _evaluate(F, [(list(g.ints), [g.den]) for g in gs])
    return _canon_unipoly(num, F.den * den[0])


_ONE = [1]


def _scaled(ints: "Sequence[int]", c: int) -> "list[int]":
    return list(ints) if c == 1 else [c * x for x in ints]


def _powers(base: "list[int]", top: int) -> "list[list[int]]":
    """[base^0, ..., base^top] by kernel products; base^0 is the shared _ONE."""
    if base == _ONE:
        return [_ONE] * (top + 1)
    table = [_ONE, base][: top + 1]
    while len(table) <= top:
        table.append(kernel.mul(table[-1], base))
    return table


def _evaluate(
    F: MultiPoly, pairs: "Sequence[tuple[list[int], list[int]]]"
) -> "tuple[list[int], list[int]]":
    """(N, Q) with F(P_1/Q_1, ..., P_n/Q_n) = N / (F.den * Q), on int lists.

    With t_i = deg_{x_i} F and F = sum_e c_e x^e / F.den, the numerator is
    N = sum_e c_e prod_i P_i^e_i Q_i^(t_i - e_i) and Q = prod_i Q_i^t_i.
    Products with the power 1 are skipped, and each term's product is
    scaled by its integer coefficient as it is added into N.
    """
    tops = [max(F.degree_in(axis), 0) for axis in range(F.nvars)]
    tables = [
        (_powers(p, t), _powers(q, t), t) for (p, q), t in zip(pairs, tops)
    ]
    acc: "list[int]" = []
    for exp, c in F.ints.items():
        prod = _ONE
        for e, (ptab, qtab, t) in zip(exp, tables):
            for f in (ptab[e], qtab[t - e]):
                if f is not _ONE:
                    prod = f if prod is _ONE else kernel.mul(prod, f)
        if len(acc) < len(prod):
            acc.extend([0] * (len(prod) - len(acc)))
        for i, x in enumerate(prod):
            if x:
                acc[i] += c * x
    den = _ONE
    for _, qtab, t in tables:
        if qtab[t] is not _ONE:
            den = qtab[t] if den is _ONE else kernel.mul(den, qtab[t])
    return kernel.normalize(acc), den


def mv_exact_div(A: MultiPoly, B: MultiPoly) -> MultiPoly:
    """Exact quotient A/B; raises ValueError when B does not divide A.

    A's numerators are divided by the primitive part of B's; by Gauss's
    lemma that quotient lies in Z[x] whenever B divides A over Q.
    """
    A._check_arity(B)
    if B.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if A.is_zero():
        return _zero(A.nvars)
    cb = math.gcd(*B.ints.values())
    q = _exact_quotient(A.ints, {e: c // cb for e, c in B.ints.items()})
    if q is None:
        raise ValueError("not an exact multivariate division")
    return _canon(A.nvars, {e: c * B.den for e, c in q.items()}, A.den * cb)


def _exact_quotient(a: IntMap, b: IntMap) -> "IntMap | None":
    """a / b when it lies in Z[x], else None; b must be nonzero.

    The multivariate twin of ``kernel.exact_quotient``: the lex-leading
    term of the remainder is divided by that of b, one quotient term at a
    time.  A coefficient or monomial that does not divide, or a quotient
    term whose degree in some variable exceeds deg a - deg b there, proves
    that a / b is not an integer polynomial.  Each step lowers the
    remainder's leading monomial in lex order, a well-order, so the loop
    ends.
    """
    eb, lb = max(b.items())
    tops = [max(e[i] for e in a) - max(e[i] for e in b) for i in range(len(eb))]
    quot: IntMap = {}
    r = dict(a)
    while r:
        er = max(r)
        t, rem = divmod(r[er], lb)
        shift = tuple(map(sub, er, eb))
        if rem or any(s < 0 or s > top for s, top in zip(shift, tops)):
            return None
        quot[shift] = t
        for e, c in b.items():
            e = tuple(map(add, e, shift))
            v = r.get(e, 0) - t * c
            if v:
                r[e] = v
            else:
                del r[e]
    return quot


def _heu_gcd(a: IntMap, b: IntMap) -> IntMap:
    """gcd(a, b) in Z[x], up to sign, for integer maps not both zero.

    GCDHEU (Char, Geddes and Gonnet, JSC 1989) one variable at a time.
    With the integer contents taken out, the last active variable is set
    to the kernel's growing points x; the gcd of the two images, found by
    recursion, is read back coefficient by coefficient in balanced base-x
    digits, and the first candidate whose primitive part divides both
    inputs is the gcd.  Univariate pairs go to ``kernel.gcd``.  Cauchy's
    bound keeps the image of the input of smaller norm nonzero, so at most
    one image vanishes, and then the gcd of the images is the other one.
    First ``_free_of`` tries to prove at small points that the gcd is free
    of every shared variable, so constant: coprime pairs of high degree are
    decided before their images at the points grow far beyond the inputs.

    The loop ends.  Write a = H*a', b = H*b' with H = gcd(a, b).  The gcd of
    the images is H(x) times a divisor of a fixed nonzero polynomial: the
    resultant of a' and b' in that variable, or a' or b' when one of them is
    free of it.  Each irreducible factor of that polynomial divides both
    images at finitely many x only, so from some point on the extra factor
    is an integer c dividing its content, and once x > 2*|c|*|H| the digits
    spell +-c*H, whose primitive part is H.
    """
    if not a or not b:
        return a or b
    ca, cb = math.gcd(*a.values()), math.gcd(*b.values())
    c = math.gcd(ca, cb)
    zero = (0,) * len(next(iter(a)))
    axes_a = {i for e in a for i, x in enumerate(e) if x}
    axes_b = {i for e in b for i, x in enumerate(e) if x}
    axes = axes_a | axes_b
    if not axes:
        return {zero: c}
    v = max(axes)
    if len(axes) == 1:
        ones = [1] * len(zero)
        h = kernel.gcd(*(_restriction(_evaluated(p, ones), v, 1) for p in (a, b)))
        return {_lift(zero, v, j): c * x for j, x in enumerate(h) if x}
    if _free_of(a, b, axes_a & axes_b):
        return {zero: c}
    a = {e: x // ca for e, x in a.items()}
    b = {e: x // cb for e, x in b.items()}
    for x in _heu_points(a.values(), b.values()):
        h: IntMap = {}
        for e, y in _heu_gcd(_image(a, v, x), _image(b, v, x)).items():
            for j, d in enumerate(_interpolate(y, x)):
                if d:
                    h[_lift(e, v, j)] = d
        if zero in h and len(h) == 1:
            return {zero: c}
        ch = math.gcd(*h.values())
        h = {e: y // ch for e, y in h.items()}
        if _exact_quotient(a, h) is not None and _exact_quotient(b, h) is not None:
            return {e: c * y for e, y in h.items()}


def _free_of(a: IntMap, b: IntMap, axes: "set[int]") -> bool:
    """True only if gcd(a, b) is free of every variable in axes.

    For each variable the others are set to 1, then to -1, then slot w to
    w + 2.  Where the leading coefficient of a or b in that variable survives,
    so does that of the gcd H, which divides it; H's image then divides both
    restrictions, so coprime restrictions prove deg H = 0 there.  At 1 and -1
    the coefficients stay as small as the inputs' whatever the degrees.  Each
    input is evaluated at most once per point, for all variables together.
    """
    n = len(next(iter(a)))
    images: "dict[int, tuple[list[int], Terms, Terms]]" = {}

    def coprime(w: int, t: int) -> bool:
        if t not in images:
            point = [(1, -1, u + 2)[t] for u in range(n)]
            images[t] = point, _evaluated(a, point), _evaluated(b, point)
        point, va, vb = images[t]
        fa, fb = _restriction(va, w, point[w]), _restriction(vb, w, point[w])
        if not (fa[-1] or fb[-1]):
            return False
        return len(kernel.gcd(kernel.normalize(fa), kernel.normalize(fb))) == 1

    return all(any(coprime(w, t) for t in range(3)) for w in axes)


def _evaluated(a: IntMap, point: "list[int]") -> Terms:
    """Each term's exponent with its value at point."""
    out = []
    for e, c in a.items():
        for x, k in zip(point, e):
            if k:
                c *= x**k
        out.append((e, c))
    return out


def _restriction(terms: Terms, axis: int, x: int) -> "list[int]":
    """The kernel list in slot axis of terms evaluated with x in that slot.

    Each value is divided by its factor x^e[axis], exactly, as x is nonzero.
    """
    out = [0] * (max(e[axis] for e, _ in terms) + 1)
    for e, c in terms:
        out[e[axis]] += c // x ** e[axis]
    return out


def _lift(e: Exponent, axis: int, j: int) -> Exponent:
    """e with exponent j in slot axis (which e leaves at 0)."""
    return e[:axis] + (j,) + e[axis + 1 :]


def _image(a: IntMap, axis: int, x: int) -> IntMap:
    """a with the variable in slot axis set to x, zeros dropped."""
    out: IntMap = {}
    for e, c in a.items():
        key = _lift(e, axis, 0)
        out[key] = out.get(key, 0) + c * x ** e[axis]
    return {e: c for e, c in out.items() if c}


def mv_gcd(F: MultiPoly, G: MultiPoly) -> MultiPoly:
    """Gcd normalized to lex-leading coefficient 1; constant gcds return 1."""
    F._check_arity(G)
    if F.is_zero() and G.is_zero():
        raise ZeroDivisionError("gcd of two zero polynomials")
    h = _heu_gcd(F.ints, G.ints)
    return _canon(F.nvars, h, h[max(h)])


def coprime_multivariate(F: MultiPoly, G: MultiPoly) -> bool:
    """True iff gcd(F, G) is constant; errors on zero input."""
    if F.is_zero() or G.is_zero():
        raise ZeroDivisionError("coprimality test with a zero polynomial")
    return mv_gcd(F, G).is_constant()

"""Sparse multivariate polynomials over exact rationals.

A MultiPoly is a map from exponent tuples (one slot per ambient variable) to
nonzero Fraction coefficients.  Multivariate gcds run by recursive
content/primitive-part reduction in a main variable with primitive
pseudo-remainder sequences, bottoming out in the univariate integer kernel;
no factorization into irreducibles happens anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Mapping, Sequence, Tuple, Union

from .ratfunc import RationalFunction
from .unipoly import UniPoly, uni_gcd

Exponent = Tuple[int, ...]
Scalar = Union[int, Fraction]


class MultiPoly:
    """Immutable sparse polynomial in a fixed number of variables."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Exponent, Scalar] = ()):
        if nvars < 1:
            raise ValueError("MultiPoly needs at least one variable")
        clean: Dict[Exponent, Fraction] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for exp, coeff in items:
            exp = tuple(exp)
            if len(exp) != nvars or any(e < 0 for e in exp):
                raise ValueError(f"bad exponent vector {exp!r} for {nvars} variables")
            c = Fraction(coeff)
            if c:
                c += clean.get(exp, 0)
                if c:
                    clean[exp] = c
                else:
                    clean.pop(exp, None)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    @staticmethod
    def zero(nvars: int) -> "MultiPoly":
        return MultiPoly(nvars)

    @staticmethod
    def constant(nvars: int, c: Scalar) -> "MultiPoly":
        return MultiPoly(nvars, {(0,) * nvars: c})

    @staticmethod
    def variable(nvars: int, axis: int) -> "MultiPoly":
        exp = [0] * nvars
        exp[axis] = 1
        return MultiPoly(nvars, {tuple(exp): 1})

    @staticmethod
    def monomial(nvars: int, exp: Exponent, c: Scalar = 1) -> "MultiPoly":
        return MultiPoly(nvars, {tuple(exp): c})

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def as_constant(self) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return next(iter(self.terms.values()))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def total_degree(self) -> int:
        """Max term degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def is_homogeneous(self) -> bool:
        """True when all stored terms share one total degree (zero counts)."""
        degrees = {sum(e) for e in self.terms}
        return len(degrees) <= 1

    def degree_in(self, axis: int) -> int:
        return max((e[axis] for e in self.terms), default=-1)

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * self.nvars, Fraction(0))

    def __eq__(self, other) -> bool:
        if isinstance(other, MultiPoly):
            return self.nvars == other.nvars and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == MultiPoly.constant(self.nvars, other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self.terms.items())))

    def _check_arity(self, other: "MultiPoly") -> None:
        if self.nvars != other.nvars:
            raise ValueError(
                f"variable count mismatch: {self.nvars} vs {other.nvars}"
            )

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __add__(self, other) -> "MultiPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        self._check_arity(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, Fraction(0)) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return MultiPoly(self.nvars, out)

    __radd__ = __add__

    def __sub__(self, other) -> "MultiPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "MultiPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return MultiPoly(self.nvars)
            return MultiPoly(
                self.nvars, {e: c * other for e, c in self.terms.items()}
            )
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_arity(other)
        out: Dict[Exponent, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, Fraction(0)) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return MultiPoly(self.nvars, out)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        return NotImplemented

    def __pow__(self, k: int) -> "MultiPoly":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = MultiPoly.constant(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def mul_monomial(self, exp: Exponent, c: Scalar = 1) -> "MultiPoly":
        """Product with c * x^exp, by exponent shift."""
        exp = tuple(exp)
        return MultiPoly(
            self.nvars,
            {
                tuple(a + b for a, b in zip(e, exp)): coeff * c
                for e, coeff in self.terms.items()
            },
        )

    def _coerce(self, value) -> "MultiPoly | None":
        if isinstance(value, MultiPoly):
            return value
        if isinstance(value, (int, Fraction)):
            return MultiPoly.constant(self.nvars, value)
        return None

    def sorted_terms(self) -> "list[tuple[Exponent, Fraction]]":
        """Terms in descending lexicographic exponent order."""
        return sorted(self.terms.items(), key=lambda t: t[0], reverse=True)

    def __repr__(self) -> str:
        return f"MultiPoly({self.nvars}, {dict(self.sorted_terms())!r})"

    def __str__(self) -> str:
        return format_multipoly(self)


def format_multipoly(F: MultiPoly, first_index: int = 0) -> str:
    """Render in the CLI grammar with variables x<first_index>, x<first_index+1>, ..."""
    if F.is_zero():
        return "0"
    parts = []
    for exp, coeff in F.sorted_terms():
        sign = "-" if coeff < 0 else ("+" if parts else "")
        mag = abs(coeff)
        factors = []
        for axis, e in enumerate(exp):
            if e == 1:
                factors.append(f"x{first_index + axis}")
            elif e > 1:
                factors.append(f"x{first_index + axis}^{e}")
        if not factors:
            body = str(mag)
        else:
            if mag != 1:
                factors.insert(0, str(mag))
            body = "*".join(factors)
        parts.append(sign + body)
    return "".join(parts)


def homogenize(F: MultiPoly, d: int) -> MultiPoly:
    """Degree-d homogenization: x0^d * F(x1/x0, ..., xn/x0) in n+1 variables."""
    if d < F.total_degree():
        raise ValueError("homogenization degree below the total degree")
    if F.is_zero():
        return MultiPoly(F.nvars + 1)
    return MultiPoly(
        F.nvars + 1, {(d - sum(e), *e): c for e, c in F.terms.items()}
    )


def dehomogenize(F: MultiPoly) -> MultiPoly:
    """Set the first variable to 1, dropping it from the ring."""
    if F.nvars < 2:
        raise ValueError("dehomogenize needs at least two variables")
    out: Dict[Exponent, Fraction] = {}
    for e, c in F.terms.items():
        key = e[1:]
        s = out.get(key, Fraction(0)) + c
        if s:
            out[key] = s
        else:
            out.pop(key, None)
    return MultiPoly(F.nvars - 1, out)


def equalize_degrees(F: MultiPoly, G: MultiPoly) -> "tuple[MultiPoly, MultiPoly]":
    """(F^deg G, G^deg F): both outputs have total degree deg(F) * deg(G)."""
    if F.is_constant() or G.is_constant():
        raise ValueError("equalize_degrees needs nonconstant inputs")
    return F ** G.total_degree(), G ** F.total_degree()


def power_vars(F: MultiPoly, k: int) -> MultiPoly:
    """Replace every variable by its k-th power."""
    if k < 1:
        raise ValueError("power substitution needs k >= 1")
    return MultiPoly(
        F.nvars, {tuple(k * x for x in e): c for e, c in F.terms.items()}
    )


def substitute(F: MultiPoly, hs: Sequence[RationalFunction]) -> RationalFunction:
    """The reduced rational function F(h_1, ..., h_n).

    With h_i = p_i/q_i and t_i = deg_{x_i} F, the value is
    sum_e c_e prod_i p_i^e_i q_i^(t_i - e_i) over the common denominator
    prod_i q_i^t_i.  The numerator is computed in the polynomial ring and the
    quotient is reduced once.
    """
    if len(hs) != F.nvars:
        raise ValueError(f"expected {F.nvars} argument functions, got {len(hs)}")
    tops = [max(F.degree_in(axis), 0) for axis in range(F.nvars)]
    cleared = MultiPoly(
        2 * F.nvars,
        {
            tuple(x for e_i, t in zip(e, tops) for x in (e_i, t - e_i)): c
            for e, c in F.terms.items()
        },
    )
    den = UniPoly.constant(1)
    for h, t in zip(hs, tops):
        den = den * h.den**t
    return RationalFunction(
        evaluate_poly(cleared, [p for h in hs for p in (h.num, h.den)]), den
    )


def evaluate_poly(F: MultiPoly, gs: Sequence[UniPoly]) -> UniPoly:
    """F evaluated at a tuple of univariate polynomials."""
    if len(gs) != F.nvars:
        raise ValueError(f"expected {F.nvars} argument polynomials, got {len(gs)}")
    powers: "list[list[UniPoly]]" = []
    for axis, g in enumerate(gs):
        top = F.degree_in(axis)
        cache = [UniPoly.constant(1)]
        for _ in range(max(top, 0)):
            cache.append(cache[-1] * g)
        powers.append(cache)
    acc = UniPoly()
    for exp, coeff in F.sorted_terms():
        term = UniPoly.constant(coeff)
        for axis, e in enumerate(exp):
            if e:
                term = term * powers[axis][e]
        acc = acc + term
    return acc


def _active_vars(F: MultiPoly) -> "list[int]":
    seen = set()
    for e in F.terms:
        for axis, x in enumerate(e):
            if x:
                seen.add(axis)
    return sorted(seen)


def _by_var(F: MultiPoly, axis: int) -> "dict[int, MultiPoly]":
    """View F as a polynomial in one variable with MultiPoly coefficients."""
    slices: Dict[int, Dict[Exponent, Fraction]] = {}
    for e, c in F.terms.items():
        key = e[axis]
        rest = list(e)
        rest[axis] = 0
        slices.setdefault(key, {})[tuple(rest)] = c
    return {j: MultiPoly(F.nvars, t) for j, t in slices.items()}


def _from_var(rep: Mapping[int, MultiPoly], axis: int, nvars: int) -> MultiPoly:
    out: Dict[Exponent, Fraction] = {}
    for j, coeff in rep.items():
        for e, c in coeff.terms.items():
            lifted = list(e)
            lifted[axis] += j
            out[tuple(lifted)] = c
    return MultiPoly(nvars, out)


def mv_exact_div(A: MultiPoly, B: MultiPoly) -> MultiPoly:
    """Exact quotient A/B; raises ValueError when B does not divide A."""
    A._check_arity(B)
    if B.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if A.is_zero():
        return MultiPoly(A.nvars)
    if B.is_constant():
        return A * (Fraction(1) / B.as_constant())
    axis = _active_vars(B)[-1]
    brep = _by_var(B, axis)
    db = max(brep)
    blc = brep[db]
    quot: Dict[int, MultiPoly] = {}
    R = A
    while not R.is_zero():
        rrep = _by_var(R, axis)
        dr = max(rrep)
        if dr < db:
            raise ValueError("not an exact multivariate division")
        qc = mv_exact_div(rrep[dr], blc)
        quot[dr - db] = qc
        piece = qc * B
        shift = [0] * A.nvars
        shift[axis] = dr - db
        R = R - piece.mul_monomial(tuple(shift))
    return _from_var(quot, axis, A.nvars)


def _mv_pseudo_rem(A: MultiPoly, B: MultiPoly, axis: int) -> MultiPoly:
    brep = _by_var(B, axis)
    db = max(brep)
    blc = brep[db]
    R = A
    while not R.is_zero():
        rrep = _by_var(R, axis)
        dr = max(rrep)
        if dr < db:
            break
        shift = [0] * A.nvars
        shift[axis] = dr - db
        R = R * blc - (B * rrep[dr]).mul_monomial(tuple(shift))
    return R


def _as_unipoly(F: MultiPoly, axis: int) -> UniPoly:
    coeffs = [Fraction(0)] * (F.degree_in(axis) + 1)
    for e, c in F.terms.items():
        coeffs[e[axis]] = c
    return UniPoly(coeffs)


def _from_unipoly(p: UniPoly, axis: int, nvars: int) -> MultiPoly:
    terms: Dict[Exponent, Fraction] = {}
    for j, c in enumerate(p.coeffs):
        if c:
            e = [0] * nvars
            e[axis] = j
            terms[tuple(e)] = c
    return MultiPoly(nvars, terms)


def _normalize_lead(F: MultiPoly) -> MultiPoly:
    """Scale so the lexicographically greatest term has coefficient 1."""
    if F.is_zero():
        return F
    lead = max(F.terms)
    return F * (Fraction(1) / F.terms[lead])


def mv_gcd(F: MultiPoly, G: MultiPoly) -> MultiPoly:
    """Gcd normalized to lex-leading coefficient 1; constant gcds return 1."""
    F._check_arity(G)
    if F.is_zero() and G.is_zero():
        raise ZeroDivisionError("gcd of two zero polynomials")
    if F.is_zero():
        return _normalize_lead(G)
    if G.is_zero():
        return _normalize_lead(F)
    active = sorted(set(_active_vars(F)) | set(_active_vars(G)))
    if not active:
        return MultiPoly.constant(F.nvars, 1)
    if len(active) == 1:
        axis = active[0]
        g = uni_gcd(_as_unipoly(F, axis), _as_unipoly(G, axis))
        return _from_unipoly(g, axis, F.nvars)
    axis = active[-1]
    fcont, fpp = _mv_content_pp(F, axis)
    gcont, gpp = _mv_content_pp(G, axis)
    cont = mv_gcd(fcont, gcont)
    a, b = fpp, gpp
    if a.degree_in(axis) < b.degree_in(axis):
        a, b = b, a
    while not b.is_zero() and b.degree_in(axis) > 0:
        r = _mv_pseudo_rem(a, b, axis)
        if not r.is_zero():
            _, r = _mv_content_pp(r, axis)
        a, b = b, r
    if b.is_zero():
        _, app = _mv_content_pp(a, axis)
        return _normalize_lead(cont * app)
    return _normalize_lead(cont)


def _mv_content_pp(F: MultiPoly, axis: int) -> "tuple[MultiPoly, MultiPoly]":
    """Content (gcd of the axis-coefficients) and primitive part of F."""
    rep = _by_var(F, axis)
    coeffs = list(rep.values())
    cont = coeffs[0]
    for c in coeffs[1:]:
        if cont.is_constant():
            break
        cont = mv_gcd(cont, c)
    cont = _normalize_lead(cont) if not cont.is_constant() else MultiPoly.constant(F.nvars, 1)
    if cont.is_constant():
        return MultiPoly.constant(F.nvars, 1), F
    return cont, mv_exact_div(F, cont)


def coprime_multivariate(F: MultiPoly, G: MultiPoly) -> bool:
    """True iff gcd(F, G) is constant; errors on zero input."""
    if F.is_zero() or G.is_zero():
        raise ZeroDivisionError("coprimality test with a zero polynomial")
    return mv_gcd(F, G).is_constant()

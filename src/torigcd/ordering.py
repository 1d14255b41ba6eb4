"""Monomial orderings: lexicographic, and weight orders with lex tie-break.

Each order is a sort key, and compare() returns -1/0/1 from the keys.  Lex
declares a >= b when the left-most nonzero entry of a - b is positive, which
is tuple comparison, so its key is a itself; a weight order's key (u.a, a)
compares u.a first and falls back to lex on ties.  Both are total orders
compatible with monomial multiplication and bounded below by the constant
monomial.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from .errors import ParseError
from .multipoly import MultiPoly
from .parsing import check_numeral

Exponent = Tuple[int, ...]


class MonomialOrder:
    """Base class; instances are stateless and shareable."""

    arity: "int | None" = None

    def key(self, e: Exponent):
        """A value whose tuple order is the monomial order on exponents of one length."""
        raise NotImplementedError

    def compare(self, a: Exponent, b: Exponent) -> int:
        if len(a) != len(b):
            raise ValueError("exponent length mismatch")
        ka, kb = self.key(a), self.key(b)
        return (ka > kb) - (ka < kb)


class Lex(MonomialOrder):
    def key(self, e: Exponent) -> Exponent:
        return e

    def __repr__(self) -> str:
        return "Lex()"

    def __str__(self) -> str:
        return "lex"

    def __eq__(self, other) -> bool:
        return isinstance(other, Lex)

    def __hash__(self) -> int:
        return hash("Lex")


class Weight(MonomialOrder):
    """Order by the dot product with u, ties broken by full lex."""

    def __init__(self, u: Sequence[int]):
        u = tuple(int(w) for w in u)
        if not u:
            raise ValueError("weight vector must be nonempty")
        if any(w < 0 for w in u):
            raise ValueError("weight vector entries must be nonnegative")
        self.u = u
        self.arity = len(u)

    def key(self, e: Exponent) -> "tuple[int, Exponent]":
        if len(e) != len(self.u):
            raise ValueError("exponent length mismatch")
        return sum(w * x for w, x in zip(self.u, e)), e

    def __repr__(self) -> str:
        return f"Weight({list(self.u)!r})"

    def __str__(self) -> str:
        return "weight:" + ",".join(str(w) for w in self.u)

    def __eq__(self, other) -> bool:
        return isinstance(other, Weight) and self.u == other.u

    def __hash__(self) -> int:
        return hash(("Weight", self.u))


LEX = Lex()


def compare(a: Exponent, b: Exponent, order: MonomialOrder) -> int:
    """-1, 0, or 1 as a is below, equal to, or above b."""
    return order.compare(tuple(a), tuple(b))


def trailing_monomial(F: MultiPoly, order: MonomialOrder) -> Exponent:
    """Smallest exponent vector of a nonzero polynomial under the order."""
    if F.is_zero():
        raise ValueError("trailing monomial of the zero polynomial")
    return min(F.ints, key=order.key)


def parse_order(text: str) -> MonomialOrder:
    """Parse 'lex' or 'weight:3,2,1'; ``build_basis_slice`` checks the arity."""
    text = text.strip()
    if text == "lex":
        return LEX
    if text.startswith("weight:"):
        parts = text[len("weight:") :].split(",")
        for part in parts:
            check_numeral(part)
        try:
            u = [int(part) for part in parts]
        except ValueError as exc:
            raise ParseError(f"bad weight vector in {text!r}") from exc
        try:
            return Weight(u)
        except ValueError as exc:
            raise ParseError(str(exc)) from exc
    raise ParseError(f"unknown order {text!r} (use lex or weight:a,b,...)")

"""Dense integer polynomial kernel.

A polynomial is a list of ints, index = exponent, with no trailing zeros;
the zero polynomial is the empty list.  These routines carry the hot loops
of the package: univariate products, exact quotients and gcds (the GCDHEU
heuristic of Char, Geddes and Gonnet, JSC 1989, with the primitive
pseudo-remainder sequence as its fallback) and exact ranks.

``bareiss_rank`` keeps the name of the Bareiss elimination it replaced, so
benchmark records stay comparable across versions.  It no longer rescales
every row at every pivot: it keeps rows sparse and updates only the rows
whose pivot-column entry is nonzero, dividing each by its content.
"""

from __future__ import annotations

import math
from typing import List

IntPoly = List[int]


def normalize(a: IntPoly) -> IntPoly:
    """Strip trailing zero coefficients in place and return the list."""
    while a and a[-1] == 0:
        a.pop()
    return a


def mul(a: IntPoly, b: IntPoly) -> IntPoly:
    """Schoolbook product of two normalized polynomials."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def content(a: IntPoly) -> int:
    """Nonnegative gcd of all coefficients; 0 for the zero polynomial."""
    g = 0
    for c in a:
        if c:
            g = math.gcd(g, c)
            if g == 1:
                break
    return g


def primitive_part(a: IntPoly) -> IntPoly:
    """a divided by its content, sign-normalized to a positive leading coefficient."""
    if not a:
        return []
    c = content(a)
    if a[-1] < 0:
        c = -c
    if c == 1:
        return list(a)
    return [x // c for x in a]


def pseudo_rem(f: IntPoly, g: IntPoly) -> IntPoly:
    """Pseudo-remainder prem(f, g) = lc(g)^(deg f - deg g + 1) * f mod g."""
    if not g:
        raise ZeroDivisionError("pseudo_rem by zero polynomial")
    r = list(f)
    dg = len(g) - 1
    lg = g[-1]
    e = len(f) - len(g) + 1
    while len(r) > dg:
        s = r[-1]
        for i in range(len(r)):
            r[i] *= lg
        shift = len(r) - 1 - dg
        for i in range(dg + 1):
            r[shift + i] -= s * g[i]
        r.pop()
        normalize(r)
        e -= 1
    if e > 0:
        m = lg**e
        r = [c * m for c in r]
    return r


HEU_TRIES = 6  # evaluation points GCDHEU tries before the PRS takes over


def gcd(f: IntPoly, g: IntPoly) -> IntPoly:
    """Primitive gcd with positive leading coefficient.

    GCDHEU first; the primitive PRS when no evaluation point succeeds.
    """
    if not f and not g:
        raise ZeroDivisionError("gcd of two zero polynomials")
    if len(f) == 1 or len(g) == 1:
        return [1]
    a = primitive_part(f)
    b = primitive_part(g)
    if not a or not b:
        return a or b
    h = _heu_gcd(a, b)
    return h if h is not None else _prs_gcd(a, b)


def _heu_points(a: IntPoly, b: IntPoly):
    """The evaluation points GCDHEU tries for primitive a, b.

    The first is 2*min(|a|, |b|) + 2 (max norms): from that bound on, a
    candidate that divides both inputs is their gcd.  Later points grow
    like x^(5/4), as in sympy's dup_zz_heu_gcd.
    """
    x = 2 * min(max(map(abs, a)), max(map(abs, b))) + 2
    for _ in range(HEU_TRIES):
        yield x
        x = 73794 * x * math.isqrt(math.isqrt(x)) // 27011


def _heu_gcd(a: IntPoly, b: IntPoly) -> "IntPoly | None":
    """GCDHEU on primitive nonconstant inputs; None when every point fails."""
    for x in _heu_points(a, b):
        h = primitive_part(_interpolate(math.gcd(_evaluate(a, x), _evaluate(b, x)), x))
        if len(h) == 1:
            return h
        if exact_quotient(a, h) is not None and exact_quotient(b, h) is not None:
            return h
    return None


def _evaluate(a: IntPoly, x: int) -> int:
    acc = 0
    for c in reversed(a):
        acc = acc * x + c
    return acc


def _interpolate(v: int, x: int) -> IntPoly:
    """The polynomial whose balanced base-x digits spell v."""
    out = []
    half = x // 2
    while v:
        v, d = divmod(v, x)
        if d > half:
            d -= x
            v += 1
        out.append(d)
    return out


def exact_quotient(a: IntPoly, b: IntPoly) -> "IntPoly | None":
    """a / b in Z[x] for primitive nonzero b, or None when b does not divide a.

    By Gauss's lemma an exact quotient has integer coefficients, so the
    first leading coefficient that lc(b) does not divide proves a remainder.
    """
    db = len(b) - 1
    if len(a) <= db:
        return None if a else []
    r = list(a)
    lb = b[-1]
    quot = [0] * (len(a) - db)
    for shift in range(len(a) - 1 - db, -1, -1):
        t, rem = divmod(r[shift + db], lb)
        if rem:
            return None
        if t:
            quot[shift] = t
            for i in range(db):
                r[shift + i] -= t * b[i]
    if any(r[:db]):
        return None
    return quot


def _prs_gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """Primitive gcd of primitive a, b via the primitive PRS."""
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = primitive_part(pseudo_rem(a, b))
        a, b = b, r
    return a


def bareiss_rank(rows: List[List[int]]) -> int:
    """Exact rank of dense int rows by fraction-free elimination.

    Each nonzero row is kept as a map from column to nonzero entry and filed
    under its leading column.  Columns are taken left to right; the rows
    filed under a column are the ones with a nonzero entry there (their
    head), and the sparsest of them, the one ending first among equals,
    becomes the pivot.  Only those rows are touched: each becomes
    (p/g)*row - (h/g)*pivot, with p the pivot's head, h the row's head and
    g = gcd(p, h), is divided by its content and filed again under its new
    leading column; rows that vanish are dropped.  A nonzero multiple of a
    row plus a multiple of another keeps the row space over Q, so the rank,
    the number of pivots, is exact.  A sparse matrix thus costs work in
    proportion to the rows each pivot changes, not to rows times columns.
    The rows are not modified.  The name is kept from the Bareiss
    elimination this replaced, so benchmark records stay comparable.
    """
    ncols = len(rows[0]) if rows else 0
    by_lead: "list[list[dict[int, int]] | None]" = [[] for _ in range(ncols)]
    for row in rows:
        entries = {c: x for c, x in enumerate(row) if x}
        if entries:
            by_lead[next(iter(entries))].append(entries)
    rank = 0
    for pc in range(ncols):
        heads = by_lead[pc]
        by_lead[pc] = None  # every row filed later leads further right
        if not heads:
            continue
        rank += 1
        pivot = min(heads, key=lambda r: (len(r), max(r)))
        p = pivot[pc]
        for row in heads:
            if row is pivot:
                continue
            h = row[pc]
            g = math.gcd(p, h)
            a, b = p // g, h // g
            new = {c: a * x for c, x in row.items()}
            for c, y in pivot.items():
                v = new.get(c, 0) - b * y
                if v:
                    new[c] = v
                else:
                    del new[c]
            if new:
                g = math.gcd(*new.values())
                if g != 1:
                    new = {c: x // g for c, x in new.items()}
                by_lead[min(new)].append(new)
    return rank

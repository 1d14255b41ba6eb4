"""Dense integer polynomial kernel.

A polynomial is a list of ints, index = exponent, with no trailing zeros;
the zero polynomial is the empty list.  These routines carry the hot loops
of the package: univariate products, exact and pseudo-quotients, gcds
and their cofactors (GCDHEU of Char, Geddes and Gonnet, JSC 1989, over an
unbounded sequence of evaluation points, which always ends) and exact ranks.

``pivot_rows`` eliminates rows given as maps from column to int or as
dense lists of ints or Fractions, reading each row once and clearing a
dense row's denominators, and updates only the rows whose pivot-column
entry is nonzero.  It is the package's one fraction-free elimination:
slice ranks read its pivot rows, and independence certificates
(``linalg.pivots_or_relation``) read relations off the pivot rows of int
rows with a unit tail appended.  ``bareiss_rank`` counts its pivot rows;
it keeps the name of the Bareiss elimination it replaced, so benchmark
records stay comparable across versions.
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


def pseudo_divmod(f: IntPoly, g: IntPoly) -> "tuple[IntPoly, IntPoly]":
    """(q, r) with lc(g)^e * f = q * g + r and deg r < deg g.

    Here e = max(deg f - deg g + 1, 0).  Both q and r are unique, and r is
    the pseudo-remainder prem(f, g).
    """
    if not g:
        raise ZeroDivisionError("pseudo_divmod by zero polynomial")
    dg = len(g) - 1
    lg = g[-1]
    r = list(f)
    q = [0] * max(len(f) - dg, 0)
    for shift in range(len(q) - 1, -1, -1):
        # r <- lg * r - s * z^shift * g cancels r's top coefficient s; the
        # shift steps still to come scale q's new coefficient by lg each
        s = r.pop()
        if lg != 1:
            r = [c * lg for c in r]
        if s:
            q[shift] = s * lg**shift
            for i in range(dg):
                r[shift + i] -= s * g[i]
    return q, normalize(r)


def gcd(f: IntPoly, g: IntPoly) -> IntPoly:
    """Primitive gcd with positive leading coefficient, by GCDHEU.

    The first element of ``gcd_cofactors(f, g)``, without building the
    cofactors when an input is constant.
    """
    if len(f) == 1 or len(g) == 1:
        return [1]
    return gcd_cofactors(f, g)[0]


def gcd_cofactors(f: IntPoly, g: IntPoly) -> "tuple[IntPoly, IntPoly, IntPoly]":
    """(h, f/h, g/h) with h = gcd(f, g) primitive, positive leading coefficient.

    GCDHEU: primitive a, b are evaluated at growing integer points x; the
    balanced base-x digits of gcd(a(x), b(x)) spell a candidate, and the
    first whose primitive part divides both a and b is h.  From the first
    point on, x >= 2*min(|a|, |b|) + 2 (max norms), such a candidate is the
    gcd (Char, Geddes and Gonnet, JSC 1989).  The divisibility check
    computes a/h and b/h; scaled by the signed contents f/a and g/b they are
    the cofactors, so h * (f/h) == f and h * (g/h) == g hold exactly.

    The loop ends.  Write a = G*a', b = G*b' with G = gcd(a, b).  Then
    gcd(a(x), b(x)) = |G(x)| * c with c = gcd(a'(x), b'(x)), and c divides
    the fixed nonzero integer Res(a', b'), since u*a' + v*b' = Res(a', b')
    for integer polynomials u, v.  Once x > 2*|Res(a', b')|*|G|, every
    coefficient of c*G lies below x/2 in absolute value, so the digits spell
    +-c*G, whose primitive part is G.  The points grow by a factor of about
    1.25 in bit length, so the number of tries is O(log log) of that bound.
    """
    if not f and not g:
        raise ZeroDivisionError("gcd of two zero polynomials")
    if len(f) == 1 or len(g) == 1:
        return [1], list(f), list(g)
    a = primitive_part(f)
    b = primitive_part(g)
    if not a:
        return b, [], [g[-1] // b[-1]]
    if not b:
        return a, [f[-1] // a[-1]], []
    for x in _heu_points(a, b):
        h = primitive_part(_interpolate(math.gcd(_evaluate(a, x), _evaluate(b, x)), x))
        if len(h) == 1:
            return h, list(f), list(g)
        qa = exact_quotient(a, h)
        if qa is None:
            continue
        qb = exact_quotient(b, h)
        if qb is not None:
            return h, _scaled(qa, f[-1] // a[-1]), _scaled(qb, g[-1] // b[-1])


def _scaled(a: IntPoly, c: int) -> IntPoly:
    return a if c == 1 else [c * x for x in a]


def _heu_points(a: IntPoly, b: IntPoly):
    """The endless, increasing evaluation points GCDHEU tries for primitive a, b.

    a and b may be any iterables of their coefficients, so ``multipoly``
    passes the values of its term maps.  The first point is
    2*min(|a|, |b|) + 2 (max norms); later points grow like x^(5/4), as in
    sympy's dup_zz_heu_gcd.
    """
    x = 2 * min(max(map(abs, a)), max(map(abs, b))) + 2
    while True:
        yield x
        x = 73794 * x * math.isqrt(math.isqrt(x)) // 27011


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
    """a / b when it lies in Z[x], else None; b must be nonzero.

    The quotient is built top down, dividing by lc(b) at each step; a step
    whose division leaves a remainder, or a nonzero remainder polynomial at
    the end, proves that a / b is not an integer polynomial.  So for any b
    the result is a / b whenever a / b lies in Z[x] (every Bareiss quotient
    does, by Sylvester's identity).  For primitive b, Gauss's lemma adds
    that b divides a over Q only if a / b lies in Z[x], so None then means
    b does not divide a at all.
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


def bareiss_rank(rows: list) -> int:
    """Exact rank of the rows ``pivot_rows`` takes: the number of its pivot rows."""
    return len(pivot_rows(rows))


def pivot_rows(rows: list) -> "list[dict[int, int]]":
    """The pivot rows of a fraction-free elimination of `rows`, one per rank.

    A row is a map from column index to int, where zero entries may be
    left out, or a dense list of int or Fraction entries.  Each row is read
    once into a map from column to nonzero int entry, a dense row scaled by
    the lcm of its denominators if it has a Fraction entry, and filed under
    its leading column.  Columns are taken left to right; the rows filed
    under a column are the ones with a nonzero entry there (their head),
    and the sparsest of them, the one ending first among equals, becomes
    the pivot.  Only those rows are touched: each becomes
    (p/g)*row - (h/g)*pivot, negated when p/g = -1, with p the pivot's head,
    h the row's head and g = gcd(p, h), is divided by its content and filed
    again under its new leading column; rows that vanish are dropped.  A
    nonzero multiple of a row plus a multiple of another keeps the row
    space over Q, so the pivot rows, one per leading column in increasing
    order, span it and are independent.  A sparse matrix thus costs work in
    proportion to the rows each pivot changes, not to rows times columns.
    The rows are not modified.
    """
    maps = []
    for row in rows:
        if isinstance(row, dict):
            entries = dict(row) if all(row.values()) else {c: x for c, x in row.items() if x}
        else:
            entries = {c: x for c, x in enumerate(row) if x}
            if any(type(x) is not int for x in entries.values()):
                den = math.lcm(*(x.denominator for x in entries.values()))
                entries = {c: x.numerator * (den // x.denominator) for c, x in entries.items()}
        if entries:
            maps.append(entries)
    ncols = 1 + max(map(max, maps), default=-1)
    by_lead: "list[list[dict[int, int]] | None]" = [[] for _ in range(ncols)]
    for entries in maps:
        by_lead[min(entries)].append(entries)
    pivots = []
    for pc in range(ncols):
        heads = by_lead[pc]
        by_lead[pc] = None  # every row filed later leads further right
        if not heads:
            continue
        pivot = heads[0]
        if len(heads) > 1:
            fewest = min(map(len, heads))
            pivot = min((r for r in heads if len(r) == fewest), key=max)
        pivots.append(pivot)
        p = pivot[pc]
        for row in heads:
            if row is pivot:
                continue
            h = row[pc]
            g = math.gcd(p, h)
            a, b = p // g, h // g
            if a == 1 or a == -1:
                # row - a*b*pivot = a*(a*row - b*pivot) needs no scaling,
                # and the row is this elimination's own copy: update it in place
                new, b = row, b * a
            else:
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
    return pivots

"""The four benchmark workloads: seeded inputs, the op, and its output check.

Each workload builds a pool of rounds from its seed.  Every round holds
the same mix of input shapes (sweep templates, slice cells, tuple sizes or
corpus cases) with fresh seeded inputs in a seeded order, and the timed
loop stops on round boundaries, so every run measures the same mix.  Ops call the package through its modules as
found in ``sys.modules`` at call time, never through names bound here, so
the tracer sees every call.  The program sees only the generated inputs.

Rounds cycle when a run outlasts the pool.  The package keeps no state
between calls, so a repeated input costs what a fresh one does; a change
that adds a cache across calls would have to be judged with that in mind.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from pathlib import Path
from typing import Any, Callable, List, Optional

HERE = Path(__file__).resolve().parent


def pkg(name: str):
    """The package module ``torigcd.<name>`` itself (never a re-exported function)."""
    return importlib.import_module("torigcd." + name)


@dataclass
class Item:
    key: str  # canonical text of the input; equal keys mean equal inputs
    payload: Any


@dataclass
class Pool:
    rounds: List[List[Item]]
    warmup: Item

    def serialize(self) -> bytes:
        lines = [f"warmup {self.warmup.key}"]
        for r, items in enumerate(self.rounds):
            lines.extend(f"{r} {item.key}" for item in items)
        return "\n".join(lines).encode()


@dataclass
class Workload:
    name: str
    tail_pct: int  # fixed so that the seed's sample count leaves >= 10 samples beyond it
    generate: Callable[[int], Pool]
    op: Callable[[Any], Any]
    canonical: Callable[[Any], Any]  # comparable form of an op output
    check: Callable[[Item, Any, bool], Optional[str]]  # None when the output is right


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _shuffled(rng: random.Random, items: list) -> list:
    items = list(items)
    rng.shuffle(items)
    return items


# -- sweep -----------------------------------------------------------------

# (F, G, bases, k_max, track).  Bases are formats over the seeded constants
# a, b, c: the magnitudes 1, 2, 3 in a seeded order with seeded signs, so
# that every input has the same coefficient sizes (a zero or repeated
# constant makes a sweep several times cheaper or dearer).  F, G are
# unit-equation shapes as in the paper's sweeps.  An odd count puts the
# median op in the middle of one template's samples rather than on the
# edge between two.
SWEEP_TEMPLATES = [
    ("x1-1", "x2-1", ("z{a:+d}", "z{b:+d}"), 60, "n"),
    ("x1-1", "x2-1", ("z{a:+d}", "z^2{b:+d}"), 30, "n"),
    ("x1*x2-1", "x3-1", ("z{a:+d}", "z{b:+d}", "z{c:+d}"), 40, "n"),
    ("x1-1", "x2*x3-1", ("z{a:+d}", "z{b:+d}", "z{c:+d}"), 20, "n"),
    ("x1-1", "x2-1", ("z/(z{a:+d})", "z{b:+d}"), 30, "n"),
    ("x1-1", "x2-1", ("z/(z{a:+d})", "(z{b:+d})/(z{c:+d})"), 30, "n"),
    ("x1*x2-1", "x1-1", ("z{a:+d}", "z{b:+d}"), 30, "n"),
    ("x1^2-x2", "x2-1", ("z{a:+d}", "z{b:+d}"), 30, "n"),
    ("x1-1", "x2-1", ("z{a:+d}", "z{b:+d}"), 30, "t"),
    ("x1-1", "x2-1", ("z{a:+d}", "z^2{b:+d}"), 30, "t"),
    ("x1-1", "x2-1", ("z^2{a:+d}", "z^2{b:+d}"), 20, "n"),
]
SWEEP_ROUNDS = 6


@dataclass
class SweepInput:
    F: str
    G: str
    bases: tuple
    k_max: int
    track: str
    config: Any  # nevandeg.SweepConfig


def _sweep_input(F, G, bases, k_max, track) -> SweepInput:
    parsing, nevandeg = pkg("parsing"), pkg("nevandeg")
    n = len(bases)
    cfg = nevandeg.SweepConfig(
        F=parsing.parse_multipoly(F, n, first_index=1),
        G=parsing.parse_multipoly(G, n, first_index=1),
        gs=tuple(parsing.parse_ratfunc(g) for g in bases),
        k_min=1,
        k_max=k_max,
    )
    return SweepInput(F, G, tuple(bases), k_max, track, cfg)


def _sweep_valid(inp: SweepInput) -> bool:
    cfg = inp.config
    coprime = pkg("multipoly").coprime_multivariate(cfg.F, cfg.G)
    return coprime and pkg("nevandeg").mult_independent(cfg.gs).independent


def _sweep_key(inp: SweepInput) -> str:
    return f"{inp.F};{inp.G};{','.join(inp.bases)};k<={inp.k_max};track={inp.track}"


def sweep_generate(seed: int) -> Pool:
    rng = _rng("sweep", seed)
    rounds = []
    for _ in range(SWEEP_ROUNDS):
        items = []
        for F, G, bases, k_max, track in SWEEP_TEMPLATES:
            while True:
                a, b, c = (m * rng.choice((-1, 1)) for m in rng.sample((1, 2, 3), 3))
                inp = _sweep_input(F, G, [g.format(a=a, b=b, c=c) for g in bases], k_max, track)
                if _sweep_valid(inp):
                    break
            items.append(Item(_sweep_key(inp), inp))
        rounds.append(_shuffled(rng, items))
    first = rounds[0][0].payload
    warm = _sweep_input(first.F, first.G, first.bases, 3, first.track)
    return Pool(rounds, Item(_sweep_key(warm), warm))


def sweep_op(inp: SweepInput):
    nevandeg = pkg("nevandeg")
    run = nevandeg.gcd_sweep if inp.track == "n" else nevandeg.tgcd_sweep
    return run(inp.config)


def sweep_canonical(res):
    rows = tuple((r.k, r.gcd_degree, r.scale, str(r.ratio)) for r in res.rows)
    return (res.track, rows, res.first_below, res.stays_below, res.threshold_k)


def sweep_check(item: Item, res, oracle: bool) -> Optional[str]:
    inp = item.payload
    cfg = inp.config
    unit = max(max(g.num.degree, g.den.degree) for g in cfg.gs)
    if res.track != inp.track or [r.k for r in res.rows] != list(range(1, inp.k_max + 1)):
        return "wrong track or k range"
    for r in res.rows:
        if r.scale != r.k * unit or r.ratio != Fraction(r.gcd_degree, r.scale) or r.gcd_degree < 0:
            return f"inconsistent row at k={r.k}"
    below = [r.ratio < cfg.epsilon for r in res.rows]
    first = next((r.k for r, b in zip(res.rows, below) if b), None)
    last_above = max((i for i, b in enumerate(below) if not b), default=-1)
    threshold = res.rows[last_above + 1].k if last_above + 1 < len(res.rows) else None
    stays = first is not None and all(below[first - 1 :])
    if (res.first_below, res.stays_below, res.threshold_k) != (first, stays, threshold):
        return "summary disagrees with rows"
    if oracle:
        ks = sorted({1, 6, 12, inp.k_max} & set(range(1, inp.k_max + 1)))
        from oracles import sweep_degree

        for k in ks:
            expected = sweep_degree(inp.F, inp.G, inp.bases, k, inp.track)
            if res.rows[k - 1].gcd_degree != expected:
                return f"k={k}: degree {res.rows[k - 1].gcd_degree}, sympy {expected}"
    return None


# -- wronskian -------------------------------------------------------------

# (M, max degree of each numerator and denominator).  Degrees fall as M
# grows so that no one shape carries a run.  Two cheap shapes and three of
# about equal cost put the median op inside a dense cluster of samples
# rather than on the edge of a gap; a round holds one tuple of each.  The
# pool holds more tuples than a run takes, so no tuple counts twice.
WRONSKIAN_SHAPES = ((2, 3), (4, 1), (3, 3), (4, 2), (5, 1))
WRONSKIAN_ROUNDS = 80


def _independent(fs) -> bool:
    """W(fs) != 0, i.e. the fs are linearly independent: rank of the cleared numerators."""
    unipoly, linalg = pkg("unipoly"), pkg("linalg")
    den = reduce(unipoly.uni_lcm, (f.den for f in fs))
    nums = [f.num * unipoly.exact_div(den, f.den) for f in fs]
    width = max(p.degree for p in nums) + 1
    return linalg.rank([list(p.coeffs) + [0] * (width - len(p.coeffs)) for p in nums]) == len(fs)


def wronskian_generate(seed: int) -> Pool:
    rng = _rng("wronskian", seed)
    randgen, ratfunc = pkg("randgen"), pkg("ratfunc")
    rounds = []
    for _ in range(WRONSKIAN_ROUNDS):
        items = []
        for M, deg in _shuffled(rng, WRONSKIAN_SHAPES):
            while True:  # as in criterion 8, dependent tuples (W = 0) are redrawn
                fs = tuple(randgen.random_ratfunc(rng, deg, nonzero=True) for _ in range(M))
                if _independent(fs):
                    break
            items.append(Item(";".join(ratfunc.format_ratfunc(f) for f in fs), fs))
        rounds.append(items)
    smallest = min((i for r in rounds for i in r), key=lambda i: len(i.payload))
    return Pool(rounds, smallest)


def wronskian_op(fs):
    """W, then ordw_check at every place of the gcd-free basis of the tuple and W."""
    wronskian, ratfunc = pkg("wronskian"), pkg("ratfunc")
    w = wronskian.wronskian(fs)
    polys = [p for f in fs for p in (f.num, f.den)] + [w.num, w.den]
    places = ratfunc.coprime_basis(polys)
    return w, [wronskian.ordw_check(fs, ratfunc.Place.finite(b)) for b in places]


def wronskian_canonical(out):
    w, reports = out
    return str(w), tuple(json.dumps(r.to_json(), sort_keys=True) for r in reports)


def _exact_quotient(p: tuple, b: tuple) -> Optional[tuple]:
    """p / b when b divides p, else None; coefficient tuples, lowest degree first."""
    if len(p) < len(b):
        return None
    rem = list(p)
    quo = [Fraction(0)] * (len(p) - len(b) + 1)
    for i in reversed(range(len(quo))):
        c = rem[i + len(b) - 1] / b[-1]
        quo[i] = c
        for j, bj in enumerate(b):
            rem[i + j] -= c * bj
    return None if any(rem) else tuple(quo)


def _valuation(f, b: tuple) -> int:
    """Valuation of the rational function f at the squarefree place b, in plain Fractions."""
    v = 0
    for poly, sign in ((f.num.coeffs, 1), (f.den.coeffs, -1)):
        while (poly := _exact_quotient(poly, b)) is not None:
            v += sign
    return v


def wronskian_check(item: Item, out, oracle: bool) -> Optional[str]:
    """Both sides of every report, recomputed from valuations, and the Wronskian lemma.

    The truncated inequality ordw_check tests need not hold where some f_j
    has a pole (f_1 ~ 1/z, f_2 ~ z^2 give lhs 1, rhs 0 at z), so a report
    may rightly say it fails.  What always holds for an independent tuple
    is the untruncated lemma v(W) >= sum_j v(f_j) - M(M-1)/2, and with it
    the truncated one at places where no f_j has a pole.
    """
    w, reports = out
    fs = item.payload
    M = len(fs)
    if not reports:
        return "no places checked"
    for r in reports:
        b = r.place.poly.coeffs
        vs = [_valuation(f, b) for f in fs]
        v_w = _valuation(w, b)
        lhs = sum(max(0, v) for v in vs) - M * (M - 1) // 2
        if (r.lhs, r.rhs, r.passed) != (lhs, max(0, v_w), lhs <= max(0, v_w)):
            return f"ordw_check at {r.place} disagrees with the valuations"
        if v_w < sum(vs) - M * (M - 1) // 2:
            return f"W breaks the Wronskian lemma at {r.place}"
        if r.info.get("wronskian") != pkg("ratfunc").format_ratfunc(w):
            return f"W differs between places at {r.place}"
    if oracle:
        from oracles import ordw_sides, wronskian_matches

        texts = [str(f) for f in fs]
        if not wronskian_matches(texts, str(w)):
            return "W disagrees with sympy"
        for r in reports:
            if (r.lhs, r.rhs) != ordw_sides(texts, str(w), str(r.place)):
                return f"ordw_check sides at {r.place} disagree with sympy"
    return None


# -- slice -----------------------------------------------------------------

# Two inputs of each criterion-1 grid cell (33 cells, up to 0.3 s) plus
# four of the larger (3, 2, 8) cell, where verification takes about 0.5 s.
# The four make the top 6% of every round one shape, so the tail
# percentile (p95) falls inside that shape's samples, and the median op
# falls between the two inputs of one grid cell.
SLICE_CELLS = 2 * [
    (n, d, m) for n in (1, 2, 3) for d in (1, 2) for m in range(d, 2 * d + 4)
] + [(3, 2, 8)] * 4
SLICE_ROUNDS = 8
SLICE_ORACLE_MAX_ROWS = 40


@dataclass
class SliceInput:
    n: int
    d: int
    m: int
    F1: Any
    F2: Any


def slice_generate(seed: int) -> Pool:
    rng = _rng("slice", seed)
    randgen, multipoly = pkg("randgen"), pkg("multipoly")
    rounds = []
    for _ in range(SLICE_ROUNDS):
        items = []
        for n, d, m in SLICE_CELLS:
            F1, F2 = randgen.random_coprime_pair(rng, n + 1, d)
            key = f"n={n},d={d},m={m};{multipoly.format_multipoly(F1)};{multipoly.format_multipoly(F2)}"
            items.append(Item(key, SliceInput(n, d, m, F1, F2)))
        rounds.append(_shuffled(rng, items))
    return Pool(rounds, min(rounds[0], key=lambda i: i.payload.m * (i.payload.n + 1)))


def slice_op(inp: SliceInput):
    idealslice = pkg("idealslice")
    s = idealslice.build_basis_slice(inp.F1, inp.F2, inp.m)
    return s, idealslice.verify_basis(s), idealslice.verify_sum_formulas(s)


def slice_canonical(out):
    s, basis, sums = out
    fmt = pkg("multipoly").format_multipoly
    return tuple(fmt(p) for p in s.B), repr(basis), repr(sums)


def _comb(a: int, b: int) -> int:
    return math.comb(a, b) if 0 <= b <= a else 0


def slice_check(item: Item, out, oracle: bool) -> Optional[str]:
    inp = item.payload
    s, basis, sums = out
    n, d, m = inp.n, inp.d, inp.m
    # dimension of the degree-m slice of an ideal generated by two coprime degree-d forms
    M = 2 * _comb(m - d + n, n) - _comb(m - 2 * d + n, n)
    if (basis.M, basis.size, basis.rank_B, basis.span_dim) != (M, M, M, M) or not basis.passed:
        return f"basis report {basis} against closed-form M={M}"
    if not sums.passed:
        return "sum formulas failed"
    if oracle and M <= SLICE_ORACLE_MAX_ROWS:
        from oracles import rank_of

        if rank_of([p.terms for p in s.B]) != M:
            return "sympy rank of B differs from M"
    return None


# -- corpus ----------------------------------------------------------------

# Every round runs all 17 cases, so the tail percentile (p85) falls near
# the middle of the samples of case 08, the third slowest, whatever the
# number of rounds, rather than among one case's fastest samples.
CORPUS_ROUNDS = 8
DIGESTS = HERE / "corpus_digests.json"


def corpus_dir() -> Path:
    return HERE.parent / "corpus"


@dataclass
class CorpusCase:
    name: str
    argv: tuple
    expect_exit: int
    digests: Optional[dict]  # exit code and report digests recorded by record_corpus.py


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_corpus() -> "list[CorpusCase]":
    recorded = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    cases = []
    for path in sorted(corpus_dir().glob("*.json")):
        config = json.loads(path.read_text())
        argv = tuple(str(a) for a in config["argv"])
        expect = int(config.get("expect_exit", 0))
        cases.append(CorpusCase(path.name, argv, expect, recorded.get(path.name)))
    if not cases:
        raise FileNotFoundError(f"no corpus cases under {corpus_dir()}")
    return cases


def corpus_generate(seed: int) -> Pool:
    rng = _rng("corpus", seed)
    cases = load_corpus()
    rounds = [[Item(c.name, c) for c in _shuffled(rng, cases)] for _ in range(CORPUS_ROUNDS)]
    return Pool(rounds, Item(cases[0].name, cases[0]))


def corpus_op(case: CorpusCase):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = pkg("cli").run(list(case.argv))
    return code, out.getvalue(), err.getvalue()


def corpus_canonical(out):
    code, stdout, stderr = out
    return {"exit": code, "stdout_sha256": _sha256(stdout), "stderr_sha256": _sha256(stderr)}


def corpus_check(item: Item, out, oracle: bool) -> Optional[str]:
    got = corpus_canonical(out)
    if got["exit"] != item.payload.expect_exit:
        return f"exit {got['exit']}, expected {item.payload.expect_exit}"
    if got != item.payload.digests:
        return "report bytes differ from the recorded digest"
    return None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep", 75, sweep_generate, sweep_op, sweep_canonical, sweep_check),
        Workload("wronskian", 90, wronskian_generate, wronskian_op, wronskian_canonical, wronskian_check),
        Workload("slice", 95, slice_generate, slice_op, slice_canonical, slice_check),
        Workload("corpus", 85, corpus_generate, corpus_op, corpus_canonical, corpus_check),
    )
}


def min_ops(w: Workload) -> int:
    """Fewest ops that leave at least ten samples beyond the tail percentile."""
    return math.ceil(10 * 100 / (100 - w.tail_pct))

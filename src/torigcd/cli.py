"""Command-line front end and deterministic corpus runner.

Exit codes: 0 pass/success, 1 verification failure, 2 hypothesis-gate
rejection (certificate included in the report), 3 parse or usage error,
4 internal fault (an exception no other code covers; one line on stderr).
Reports are CSV for sweep-style tables and JSON for certificates; every
report records the seed in its header and renders rationals exactly.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import os
import sys
from contextlib import redirect_stdout
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path
from typing import List, Optional, Sequence

from .errors import HypothesisError, ParseError
from .expunits import QuadExt, exp_char_slope, exp_ngcd_slope, format_quad, parse_quad
from .idealslice import (
    asymptotic_check,
    build_basis_slice,
    monomial_count,
    slice_constants,
    verify_basis,
    verify_sum_formulas,
)
from .multipoly import format_multipoly
from .nevandeg import SweepConfig, gcd_sweep, mult_independent, tgcd_sweep
from .ordering import parse_order
from .parsing import (
    MAX_POWER_DEGREE,
    MAX_SLICE_MONOMIALS,
    infer_homogeneous_nvars,
    parse_multipoly,
    parse_place,
    parse_ratfunc,
    parse_rational,
    parse_unipoly,
)
from .wronskian import bs_check, ordw_check

PASS, FAIL, REJECTED, USAGE, INTERNAL = 0, 1, 2, 3, 4
OUTDIR_ENV = "TORIGCD_OUTDIR"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems via exception, not sys.exit(2)."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _emit(text: str, out: Optional[str], subcommand: str, ext: str) -> None:
    if out is None:
        outdir = os.environ.get(OUTDIR_ENV)
        if outdir:
            out = str(Path(outdir) / f"{subcommand}.{ext}")
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        Path(out).write_text(text)


def _emit_json(payload: dict, seed: int, out: Optional[str], subcommand: str) -> None:
    payload = {"seed": seed, **payload}
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", out, subcommand, "json")


def _csv_text(seed: int, header: Sequence[str], rows: Sequence[Sequence], trailer: str = "") -> str:
    lines = [f"# seed={seed}", ",".join(header)]
    lines.extend(",".join(str(x) for x in row) for row in rows)
    if trailer:
        lines.append(trailer)
    return "\n".join(lines) + "\n"


def _check_slice_size(command: str, m: int, nvars: int) -> None:
    """Usage error when the degree-m slice in nvars variables is over the cap.

    A slice has degree m >= d >= 1, so counting at least degree 1 also caps
    the variable count before any polynomial in them is built.
    """
    count = monomial_count(max(m, 1), nvars - 1)
    if count > MAX_SLICE_MONOMIALS:
        raise _UsageError(
            f"{command}: --m {m} in {nvars} variables gives {count} slice"
            f" monomials, over the cap {MAX_SLICE_MONOMIALS}"
        )


def _cmd_basis(args) -> int:
    nvars = infer_homogeneous_nvars(args.F1, args.F2)
    _check_slice_size("basis", args.m, nvars)
    F1 = parse_multipoly(args.F1, nvars)
    F2 = parse_multipoly(args.F2, nvars)
    order = parse_order(args.order, nvars)
    s = build_basis_slice(F1, F2, args.m, order)
    consts = slice_constants(s.m, s.n, s.d)
    basis_rep = verify_basis(s)
    sums_rep = verify_sum_formulas(s)
    payload = {
        "m": s.m,
        "n": s.n,
        "d": s.d,
        "order": str(s.order),
        "swapped": s.swapped,
        "tm_tie": s.tm_tie,
        "F1": format_multipoly(s.F1),
        "F2": format_multipoly(s.F2),
        "constants": {
            "c": consts.c,
            "M": consts.M,
            "Mprime": consts.Mprime,
            "L": consts.L,
        },
        "B": [format_multipoly(p) for p in s.B],
        "basis_report": asdict(basis_rep),
        "sum_report": {
            "passed": sums_rep.passed,
            "rows": [asdict(r) for r in sums_rep.rows],
        },
        "passed": basis_rep.passed and sums_rep.passed,
    }
    _emit_json(payload, args.seed, args.out, "basis")
    return PASS if payload["passed"] else FAIL


def _cmd_identities(args) -> int:
    if args.n < 1 or args.d < 1 or args.mmax < 4 * args.d:
        raise _UsageError("identities: need --n >= 1, --d >= 1 and --mmax >= 4*d")
    rep = asymptotic_check(args.n, args.d, args.mmax)
    rows = [
        (r.m, r.c, r.M, r.Mprime, r.res_c, r.res_M, r.res_Mprime) for r in rep.rows
    ]
    summary = {
        "n": rep.n,
        "d": rep.d,
        "anchor_m": rep.anchor_m,
        "passed": rep.passed,
        "summaries": [
            {
                "name": s.name,
                "anchor_value": str(s.anchor_value),
                "max_value": str(s.max_value),
                "argmax_m": s.argmax_m,
                "bounded_by_anchor": s.bounded_by_anchor,
            }
            for s in rep.summaries
        ],
    }
    text = _csv_text(
        args.seed,
        ("m", "c", "M", "Mprime", "res_c", "res_M", "res_Mprime"),
        rows,
        trailer="# summary: " + json.dumps(summary, sort_keys=True),
    )
    _emit(text, args.out, "identities", "csv")
    return PASS if rep.passed else FAIL


def _cmd_gcd_sweep(args) -> int:
    if args.kmin < 1 or args.kstep < 1 or args.kmax < args.kmin:
        raise _UsageError("gcd-sweep: need 1 <= --kmin <= --kmax and --kstep >= 1")
    epsilon = parse_rational(args.epsilon)
    if epsilon <= 0:
        raise _UsageError("gcd-sweep: --epsilon must be positive")
    nvars = len(args.g)
    F = parse_multipoly(args.F, nvars, first_index=1)
    G = parse_multipoly(args.G, nvars, first_index=1)
    gs = tuple(parse_ratfunc(g) for g in args.g)
    # the sweep builds g^kmax for every base: the powers the parser caps
    top = max(max(g.num.degree, g.den.degree, 1) for g in gs)
    if args.kmax * top > MAX_POWER_DEGREE:
        raise _UsageError(
            f"gcd-sweep: --kmax {args.kmax} on a base of degree {top} exceeds"
            f" the degree cap {MAX_POWER_DEGREE}"
        )
    cfg = SweepConfig(
        F=F,
        G=G,
        gs=gs,
        k_min=args.kmin,
        k_max=args.kmax,
        k_step=args.kstep,
        epsilon=epsilon,
    )
    result = gcd_sweep(cfg) if args.track == "n" else tgcd_sweep(cfg)
    rows = [(r.k, r.gcd_degree, r.scale, r.ratio) for r in result.rows]
    text = _csv_text(
        args.seed,
        ("k", "gcd_degree", "scale", "ratio"),
        rows,
        trailer="# summary: " + json.dumps(result.to_summary(), sort_keys=True),
    )
    _emit(text, args.out, "gcd-sweep", "csv")
    return PASS if result.threshold_k is not None else FAIL


def _cmd_indep(args) -> int:
    cert = mult_independent([parse_ratfunc(g) for g in args.g])
    _emit_json(cert.to_json(), args.seed, args.out, "indep")
    return PASS


def _cmd_wronskian_check(args) -> int:
    etas = [parse_ratfunc(e) for e in args.eta]
    rep = ordw_check(etas, parse_place(args.place))
    _emit_json(rep.to_json(), args.seed, args.out, "wronskian-check")
    return PASS if rep.passed else FAIL


def _cmd_bs_check(args) -> int:
    nvars = len(args.g)
    _check_slice_size("bs-check", args.m, nvars)
    F = parse_multipoly(args.F, nvars)
    G = parse_multipoly(args.G, nvars)
    gs = [parse_unipoly(g) for g in args.g]
    rep = bs_check(F, G, args.m, gs, parse_place(args.place))
    _emit_json(rep.to_json(), args.seed, args.out, "bs-check")
    return PASS if rep.passed else FAIL


def _cmd_exp_slopes(args) -> int:
    a = parse_quad(args.a)
    b = parse_quad(args.b)
    if not 1 <= args.kmax <= MAX_POWER_DEGREE:
        raise _UsageError(f"exp-slopes: --kmax must be in 1..{MAX_POWER_DEGREE}, the row cap")
    scale = max(exp_char_slope(a), exp_char_slope(b))
    rows = []
    for k in range(1, args.kmax + 1):
        ngcd = exp_ngcd_slope(a, b, k)
        max_t = scale * QuadExt.rational(k)
        rows.append((k, format_quad(ngcd), format_quad(max_t), format_quad(ngcd / max_t)))
    text = _csv_text(args.seed, ("k", "ngcd_slope", "maxT_slope", "ratio"), rows)
    _emit(text, args.out, "exp-slopes", "csv")
    return PASS


def _cmd_corpus(args) -> int:
    root = Path(args.path)
    if not root.is_dir():
        raise _UsageError(f"corpus: not a directory: {root}")
    cases = sorted(root.glob("*.json"))
    lines = []
    failures = 0
    if not cases:
        lines.append(f"warning: empty corpus directory {root}")
    for case in cases:
        try:
            config = json.loads(case.read_text())
            argv = config["argv"]
            expected = int(config.get("expect_exit", 0))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            lines.append(f"case {case.name}: unreadable config ({exc}) FAIL")
            failures += 1
            continue
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = run([str(x) for x in argv])
        verdict = "PASS" if code == expected else "FAIL"
        if code != expected:
            failures += 1
        lines.append(f"case {case.name}: exit {code} (expected {expected}) {verdict}")
    lines.append(
        f"corpus: {len(cases) - failures}/{len(cases)} passed"
        if cases
        else "corpus: 0/0 passed"
    )
    print("\n".join(lines))
    return PASS if failures == 0 else FAIL


def build_parser() -> _Parser:
    parser = _Parser(prog="torigcd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        p.add_argument("--seed", type=int, default=0, help="seed recorded in the report header")
        p.add_argument("--out", default=None, help=f"output path (default: stdout or ${OUTDIR_ENV})")
        return p

    p = add("basis", _cmd_basis, help="build and verify one graded ideal slice")
    p.add_argument("--F1", required=True)
    p.add_argument("--F2", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--order", default="lex", help="lex or weight:u0,u1,...")

    p = add("identities", _cmd_identities, help="slice-constant table with asymptotic residuals")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--mmax", type=int, required=True)

    p = add("gcd-sweep", _cmd_gcd_sweep, help="gcd degree of composed powers against k")
    p.add_argument("--F", required=True)
    p.add_argument("--G", required=True)
    p.add_argument("--g", action="append", required=True, help="one per variable; repeatable")
    p.add_argument("--kmin", type=int, default=1)
    p.add_argument("--kmax", type=int, default=60)
    p.add_argument("--kstep", type=int, default=1)
    p.add_argument("--epsilon", default="1/10")
    p.add_argument("--track", choices=("n", "t"), default="n")

    p = add("indep", _cmd_indep, help="multiplicative-independence certificate")
    p.add_argument("--g", action="append", required=True)

    p = add("wronskian-check", _cmd_wronskian_check, help="local Wronskian inequality")
    p.add_argument("--eta", action="append", required=True)
    p.add_argument("--place", required=True)

    p = add("bs-check", _cmd_bs_check, help="local slice counting inequality")
    p.add_argument("--F", required=True)
    p.add_argument("--G", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--g", action="append", required=True)
    p.add_argument("--place", required=True)

    p = add("exp-slopes", _cmd_exp_slopes, help="exponential-unit gcd slope table")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--kmax", type=int, required=True)

    p = add("corpus", _cmd_corpus, help="run a directory of recorded invocations")
    p.add_argument("path")

    return parser


@functools.cache
def _shared_parser() -> _Parser:
    """build_parser(), built on first use.  Parsing leaves it unchanged, so
    nested runs (the corpus runner calls run) can share it."""
    return build_parser()


def run(argv: Sequence[str]) -> int:
    try:
        args = _shared_parser().parse_args(list(argv))
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return USAGE
    except SystemExit as exc:  # --help and friends
        return PASS if exc.code in (0, None) else USAGE
    try:
        return args.func(args)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return USAGE
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return USAGE
    except HypothesisError as exc:
        payload = {
            "seed": getattr(args, "seed", 0),
            "rejected": str(exc),
            "certificate": exc.certificate,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return REJECTED
    except (ZeroDivisionError, ValueError) as exc:
        payload = {
            "seed": getattr(args, "seed", 0),
            "rejected": str(exc),
            "certificate": {},
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return REJECTED
    except Exception as exc:
        # one line on stderr and no traceback: line breaks in the message fold
        detail = " ".join(str(exc).split())
        suffix = f": {detail}" if detail else ""
        print(f"internal error: {type(exc).__name__}{suffix}", file=sys.stderr)
        return INTERNAL


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

"""Command-line front end and deterministic corpus runner.

Exit codes: 0 pass/success, 1 verification failure, 2 hypothesis-gate
rejection (certificate included in the report), 3 parse or usage error,
4 internal fault (an exception no other code covers; one line on stderr).
Reports are CSV for sweep-style tables and JSON for certificates; every
report records the seed in its header and renders rationals exactly.  A
subcommand only builds its report and verdict; run writes the report (to
--out, else $TORIGCD_OUTDIR/<subcommand>.<ext>, else stdout) and picks the
exit code.  The cases of a corpus run write only to their own --out.
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
from pathlib import Path
from typing import Optional, Sequence

from .errors import HypothesisError, ParseError, UsageError
from .expunits import exp_slope_table, parse_quad
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
_HAS_DIGIT_LIMIT = hasattr(sys, "set_int_max_str_digits")  # CPython 3.10.7+, 3.11+
# what each _cmd_* handler returns, with no I/O of its own: the rendered
# report, its file extension and its verdict; run writes the report once and
# exits 0 on a true verdict, 1 on a false one
Report = tuple[str, str, bool]


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems via exception, not sys.exit(2)."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _emit(text: str, out: Optional[str]) -> None:
    """Write a report to the path out, or to stdout when out is None."""
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            Path(out).parent.mkdir(parents=True, exist_ok=True)
            Path(out).write_text(text)
        except OSError as exc:
            raise UsageError(f"cannot write {out}: {exc}") from exc


def _json_text(seed: int, payload: dict) -> str:
    return json.dumps({"seed": seed, **payload}, indent=2, sort_keys=True) + "\n"


def _csv_text(seed: int, header: Sequence[str], rows: Sequence[Sequence], trailer: str = "") -> str:
    lines = [f"# seed={seed}", ",".join(header)]
    lines.extend(",".join(str(x) for x in row) for row in rows)
    if trailer:
        lines.append(trailer)
    return "\n".join(lines) + "\n"


def _check_slice_size(m: int, nvars: int) -> None:
    """Usage error when the degree-m slice in nvars variables is over the cap.

    A slice has degree m >= d >= 1, so counting at least degree 1 also caps
    the variable count before any polynomial in them is built.
    """
    count = monomial_count(max(m, 1), nvars - 1)
    if count > MAX_SLICE_MONOMIALS:
        raise UsageError(
            f"--m {m} in {nvars} variables gives {count} slice"
            f" monomials, over the cap {MAX_SLICE_MONOMIALS}"
        )


def _cmd_basis(args) -> Report:
    nvars = infer_homogeneous_nvars(args.F1, args.F2)
    _check_slice_size(args.m, nvars)
    F1 = parse_multipoly(args.F1, nvars)
    F2 = parse_multipoly(args.F2, nvars)
    order = parse_order(args.order)
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
    return _json_text(args.seed, payload), "json", payload["passed"]


def _cmd_identities(args) -> Report:
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
    return text, "csv", rep.passed


def _cmd_gcd_sweep(args) -> Report:
    nvars = len(args.g)
    cfg = SweepConfig(
        F=parse_multipoly(args.F, nvars, first_index=1),
        G=parse_multipoly(args.G, nvars, first_index=1),
        gs=tuple(parse_ratfunc(g) for g in args.g),
        k_min=args.kmin,
        k_max=args.kmax,
        k_step=args.kstep,
        epsilon=parse_rational(args.epsilon),
    )
    result = gcd_sweep(cfg) if args.track == "n" else tgcd_sweep(cfg)
    rows = [(r.k, r.gcd_degree, r.scale, r.ratio) for r in result.rows]
    text = _csv_text(
        args.seed,
        ("k", "gcd_degree", "scale", "ratio"),
        rows,
        trailer="# summary: " + json.dumps(result.to_summary(), sort_keys=True),
    )
    return text, "csv", result.threshold_k is not None


def _cmd_indep(args) -> Report:
    cert = mult_independent([parse_ratfunc(g) for g in args.g])
    return _json_text(args.seed, cert.to_json()), "json", True


def _cmd_wronskian_check(args) -> Report:
    etas = [parse_ratfunc(e) for e in args.eta]
    rep = ordw_check(etas, parse_place(args.place))
    return _json_text(args.seed, rep.to_json()), "json", rep.passed


def _cmd_bs_check(args) -> Report:
    nvars = len(args.g)
    _check_slice_size(args.m, nvars)
    F = parse_multipoly(args.F, nvars)
    G = parse_multipoly(args.G, nvars)
    gs = [parse_unipoly(g) for g in args.g]
    rep = bs_check(F, G, args.m, gs, parse_place(args.place))
    return _json_text(args.seed, rep.to_json()), "json", rep.passed


def _cmd_exp_slopes(args) -> Report:
    rows = exp_slope_table(parse_quad(args.a), parse_quad(args.b), args.kmax)
    return _csv_text(args.seed, ("k", "ngcd_slope", "maxT_slope", "ratio"), rows), "csv", True


def _cmd_corpus(args) -> Report:
    root = Path(args.path)
    if not root.is_dir():
        raise UsageError(f"not a directory: {root}")
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
            code = _run([str(x) for x in argv], None)
        verdict = "PASS" if code == expected else "FAIL"
        if code != expected:
            failures += 1
        lines.append(f"case {case.name}: exit {code} (expected {expected}) {verdict}")
    lines.append(f"corpus: {len(cases) - failures}/{len(cases)} passed")
    return "\n".join(lines) + "\n", "txt", failures == 0


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
    return _run(argv, os.environ.get(OUTDIR_ENV))


def _joined(argv: Sequence[str]) -> "list[str]":
    """argv with each '--opt -value' written '--opt=-value'.

    Every option takes exactly one value, but argparse reads a separate value
    that begins with '-' as an option unless it looks like a negative number,
    so '--F -x1+1' would lack its argument.  '-h' and '--' are left alone.
    """
    out: "list[str]" = []
    for tok in argv:
        prev = out[-1] if out else ""
        if (
            prev.startswith("--") and len(prev) > 2 and "=" not in prev and prev != "--help"
            and tok.startswith("-") and not tok.startswith("--") and tok != "-h"
        ):
            out[-1] = f"{prev}={tok}"
        else:
            out.append(tok)
    return out


def _run(argv: Sequence[str], outdir: Optional[str]) -> int:
    """run with outdir in place of $TORIGCD_OUTDIR: the corpus runner passes
    None, so its cases write no report there and cannot overwrite each other."""
    # exact answers print in full: the interpreter's int-to-str digit limit is
    # lifted once argparse has read the integer options, and the parsers cap
    # every numeral they convert
    digit_limit = sys.get_int_max_str_digits() if _HAS_DIGIT_LIMIT else 0
    args = None
    try:
        args = _shared_parser().parse_args(_joined(argv))
        if _HAS_DIGIT_LIMIT:
            sys.set_int_max_str_digits(0)
        text, ext, passed = args.func(args)
        out = args.out
        if out is None and outdir:
            out = str(Path(outdir) / f"{args.command}.{ext}")
        _emit(text, out)
        return PASS if passed else FAIL
    except SystemExit as exc:  # --help and friends
        return PASS if exc.code in (0, None) else USAGE
    except UsageError as exc:  # argparse's own errors name the program already
        print(str(exc) if args is None else f"{args.command}: {exc}", file=sys.stderr)
        return USAGE
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return USAGE
    except HypothesisError as exc:  # raised by a subcommand, so args is set
        payload = {"rejected": str(exc), "certificate": exc.certificate}
        sys.stdout.write(_json_text(args.seed, payload))
        return REJECTED
    except Exception as exc:
        # one line on stderr and no traceback: line breaks in the message fold
        detail = " ".join(str(exc).split())
        suffix = f": {detail}" if detail else ""
        print(f"internal error: {type(exc).__name__}{suffix}", file=sys.stderr)
        return INTERNAL
    finally:
        if _HAS_DIGIT_LIMIT:
            sys.set_int_max_str_digits(digit_limit)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

"""End-to-end CLI behavior: exit codes, headers, determinism, corpus runs."""

import contextlib
import io
import json
import pathlib
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torigcd import cli, nevandeg
from torigcd.cli import run
from torigcd.parsing import MAX_NESTING, MAX_POWER_DEGREE, MAX_SLICE_MONOMIALS, MAX_SWEEP_WORK

BASIS = ["basis", "--F1", "x0", "--F2", "x1", "--m", "2", "--order", "lex"]
SWEEP = [
    "gcd-sweep", "--F", "x1-1", "--G", "x2-1", "--g", "z", "--g", "z+1",
    "--kmin", "1", "--kmax", "60", "--epsilon", "1/10",
]
SHIPPED = pathlib.Path(__file__).resolve().parents[1] / "corpus"
# one invocation of each subcommand, with the extension of its report file
EVERY_SUBCOMMAND = [
    (BASIS, "json"),
    (["identities", "--n", "2", "--d", "1", "--mmax", "60"], "csv"),
    (SWEEP, "csv"),
    (["indep", "--g", "z^2", "--g", "z^3"], "json"),
    (["wronskian-check", "--eta", "z^2", "--eta", "z^3", "--place", "z"], "json"),
    (["bs-check", "--F", "x0", "--G", "x1", "--m", "2", "--g", "z", "--g", "z+1", "--place", "z"],
     "json"),
    (["exp-slopes", "--a", "1", "--b", "3/2", "--kmax", "20"], "csv"),
    (["corpus", str(SHIPPED)], "txt"),
]
EVERY_NAME = [argv[0] for argv, _ in EVERY_SUBCOMMAND]


def _json_out(capsys):
    return json.loads(capsys.readouterr().out)


def test_basis_pass(capsys):
    assert run(BASIS) == 0
    payload = _json_out(capsys)
    assert payload["seed"] == 0
    assert payload["constants"]["M"] == 3
    assert payload["basis_report"]["passed"] and payload["sum_report"]["passed"]


def test_basis_hypothesis_rejection(capsys):
    argv = ["basis", "--F1", "x0*x1", "--F2", "x1^2", "--m", "2"]
    assert run(argv) == 2
    payload = _json_out(capsys)
    assert "coprime" in payload["rejected"]
    assert payload["certificate"]["F1"] == "x0*x1"
    assert payload["seed"] == 0


def test_basis_parse_error(capsys):
    assert run(["basis", "--F1", "x0+", "--F2", "x1", "--m", "2"]) == 3


def test_basis_eleven_variables(capsys):
    argv = ["basis", "--F1", "x0+x1+x10", "--F2", "x3-x10+x5", "--m", "2"]
    assert run(argv) == 0
    payload = _json_out(capsys)
    assert payload["n"] == 10 and payload["constants"]["M"] == 21
    assert payload["passed"] and "x0*x10" in payload["B"][0]


def test_slice_size_cap_boundary(capsys):
    # the degree-1 slice in N variables has N monomials; degree m in two has m + 1
    top = MAX_SLICE_MONOMIALS
    assert run(["basis", "--F1", "x0", "--F2", f"x{top - 1}", "--m", "1"]) == 0
    assert _json_out(capsys)["passed"]
    assert run(["basis", "--F1", "x0", "--F2", f"x{top}", "--m", "1"]) == 3
    assert run(["basis", "--F1", "x0", "--F2", "x1", "--m", str(top)]) == 3
    bs = ["bs-check", "--F", "x0", "--G", "x1", "--m", "1", "--g", "z", "--g", "z+1"]
    assert run(bs + ["--g", "1"] * (top - 2) + ["--place", "z"]) == 0
    assert _json_out(capsys)["passed"]
    assert run(bs + ["--g", "1"] * (top - 1) + ["--place", "z"]) == 3
    bs[bs.index("--m") + 1] = str(top)
    assert run(bs + ["--place", "z"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and f"over the cap {top}" in captured.err


@pytest.mark.parametrize("m", ["0", "-1", "2"])
def test_huge_variable_index_is_usage_error(m, capsys):
    assert run(["basis", "--F1", "x0", "--F2", "x99999999999", "--m", m]) == 3
    assert run(["basis", "--F1", "x0", "--F2", "x" + "9" * 5000, "--m", m]) == 3
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("power", ["z^999999999", "((z^1000)^1000)^1000"])
def test_huge_power_is_parse_error(power, capsys):
    argv = ["gcd-sweep", "--F", "x1-1", "--G", "x2-1", "--g", power, "--g", "z+1"]
    assert run(argv) == 3
    assert "degree cap" in capsys.readouterr().err
    assert run(["gcd-sweep", "--F", power.replace("z", "x1"), "--G", "x2-1",
                "--g", "z", "--g", "z+1"]) == 3


def test_huge_product_is_parse_error(capsys):
    five = "(x1+x2+x3+x4+x5)^10"
    argv = ["gcd-sweep", "--F", f"{five}*{five}*{five}", "--G", "x2-1"]
    assert run(argv + ["--g", "z"] * 5) == 3
    assert "term cap" in capsys.readouterr().err


def test_long_literal_is_parse_error(capsys):
    assert run(["indep", "--g", "1" * 5000 + "*z", "--g", "z+1"]) == 3
    captured = capsys.readouterr()
    assert "coefficient cap" in captured.err
    assert captured.out == ""


SWEEP_BASES = ["gcd-sweep", "--F", "x1-1", "--G", "x2-1", "--g", "z", "--g"]


def test_sweep_kmax_degree_cap(capsys):
    # the sweep builds g^kmax for every base, so kmax times the largest base
    # degree is held to the parser's power cap
    assert run(SWEEP_BASES + ["z+1", "--kmin", "5000", "--kmax", "5000"]) == 3
    assert "degree cap" in capsys.readouterr().err
    assert run(SWEEP_BASES + ["z+1", "--kmin", "1001", "--kmax", "1001"]) == 3
    assert run(SWEEP_BASES + ["(z^2+1)/(z-3)", "--kmax", "501"]) == 3
    assert "degree cap" in capsys.readouterr().err
    # at the cap: one row each
    at_cap = ["gcd-sweep", "--F", "x1-1", "--G", "x1+1", "--g", "z", "--g"]
    assert run(at_cap + ["z+1", "--kmin", "1000", "--kmax", "1000"]) == 0
    assert run(at_cap + ["z^2+1", "--kmin", "500", "--kmax", "500"]) == 0
    assert capsys.readouterr().out.count("# summary") == 2
    # z^1000 - 1 and (z+1)^1000 - 1 are coprime, the hardest row the cap admits
    assert run(SWEEP_BASES + ["z+1", "--kmin", "1000", "--kmax", "1000"]) == 0
    assert "\n1000,0,1000,0\n" in capsys.readouterr().out


def test_sweep_composed_degree_cap(capsys):
    # F(g^k) has degree up to k * sum_i deg_{x_i} F * deg g_i, here 500 * k
    composed = ["gcd-sweep", "--F", "x1^100-2", "--G", "x2-1", "--g", "z^5", "--g", "z+1"]
    assert run(composed + ["--kmax", "2"]) == 0
    assert capsys.readouterr().out.count("# summary") == 1
    assert run(composed + ["--kmax", "3"]) == 3
    assert "degree cap" in capsys.readouterr().err
    # degree 444 * 444 per step; this ran for 18 to 28 s before the cap
    assert run(["gcd-sweep", "--F", "x1^444", "--G", "x2-1", "--g", "z^444", "--g", "z+1",
                "--kmax", "2"]) == 3
    assert "degree cap" in capsys.readouterr().err


ZP3 = ["--F", "x1-1", "--G", "x2-1", "--g", "z+3", "--g", "z-2"]


def test_sweep_size_cap(capsys, monkeypatch):
    # the sum over rows of V_k^2, V_k the bits of row k's point values bounded
    # at kmax's point (nevandeg._point_bits): over z+3, z-2 kmax 411 gives
    # 9.995 * 10^12, the corner, and 412 gives 1.013 * 10^13
    found = ["gcd-sweep", *ZP3]
    assert MAX_SWEEP_WORK == 10**13
    # kmax 1000 did not finish in 300 s before any size cap
    for track in ("n", "t"):
        assert run(found + ["--kmax", "1000", "--track", track]) == 3
        assert "size cap" in capsys.readouterr().err
    # 412 rows over the cap, and 51 and 50 rows of about 1.6 * 10^6 bits
    for extra in (["--kmax", "412"], ["--kmin", "950", "--kmax", "1000"],
                  ["--kmin", "951", "--kmax", "1000"]):
        assert run(found + extra) == 3
        assert "size cap" in capsys.readouterr().err
    # at the corner the gate checks the full sweep and the rows are stubbed:
    # the 411-row sweep is a CI time budget
    monkeypatch.setattr(nevandeg, "_degree_at_point", lambda *args: 0)
    for track in ("n", "t"):
        assert run(found + ["--kmax", "411", "--track", track]) == 0
        out = capsys.readouterr().out
        assert "\n411,0,411,0\n" in out and out.count("\n") == 411 + 3


FOUND_ROWS = ["--F", "x1^300*x2^300*x3^300+1", "--G", "x1^300*x2^300*x3^300+x1+2"]


@pytest.mark.parametrize(
    "argv",
    [
        # one row took 25 s over the 2^30 bases and 87 s over the 2^60 bases,
        # and these ten rows 48 s, under the earlier cap on rows times bits
        FOUND_ROWS + ["--g", "2^30*z+1", "--g", "2^30*z+3", "--g", "2^30*z+5", "--kmax", "1"],
        FOUND_ROWS + ["--g", "2^60*z+1", "--g", "2^60*z+3", "--g", "2^60*z+5", "--kmax", "1"],
        ZP3 + ["--kmin", "991", "--kmax", "1000"],
    ],
)
@pytest.mark.parametrize("track", ["n", "t"])
def test_sweep_size_cap_fails_fast(argv, track, capsys, monkeypatch):
    def unreached(*args):
        raise AssertionError("the size cap comes first")

    monkeypatch.setattr(nevandeg, "coprime_multivariate", unreached)
    monkeypatch.setattr(nevandeg, "mult_independent", unreached)
    start = time.perf_counter()
    assert run(["gcd-sweep", *argv, "--track", track]) == 3
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == "" and "size cap" in captured.err


def test_usage_errors():
    assert run(["no-such-command"]) == 3
    assert run(["basis", "--F1", "x0"]) == 3  # missing required
    assert run(BASIS + ["--bogus"]) == 3


@pytest.mark.parametrize(
    "extra",
    [
        ["--kstep", "0"],
        ["--kstep", "-2"],
        ["--kmin", "0"],
        ["--kmin", "5", "--kmax", "4"],
        ["--epsilon", "0"],
        ["--epsilon", "-1/3"],
    ],
)
def test_sweep_bad_range_is_usage_error(extra, capsys):
    assert run(SWEEP + extra) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "gcd-sweep" in captured.err
    if extra[0] == "--epsilon":  # '-1/3' too reaches the sweep's own check
        assert "epsilon must be positive" in captured.err


@pytest.mark.parametrize(
    "argv, at",
    [
        (["gcd-sweep", "--F", "-x1+1", "--G", "x2-1", "--g", "z", "--g", "z+1", "--kmax", "5"], 1),
        (["bs-check", "--F", "-x0-x1", "--G", "x0-2*x1", "--m", "3", "--g", "z^3", "--g", "z+1", "--place", "z"], 1),
        (["basis", "--F1", "-x0", "--F2", "x1", "--m", "2"], 1),
        (["indep", "--g", "-z", "--g", "z+1"], 1),
        (["wronskian-check", "--eta", "-z", "--eta", "z^2", "--place", "z"], 1),
        (["wronskian-check", "--eta", "z", "--eta", "z^2", "--place", "-z"], 5),
        (["exp-slopes", "--a", "-1/2", "--b", "2", "--kmax", "3"], 1),
    ],
)
def test_value_with_leading_minus_reads_as_its_equals_form(argv, at, capsys):
    joined = argv[:at] + [f"{argv[at]}={argv[at + 1]}"] + argv[at + 2 :]
    code = run(argv)
    out = capsys.readouterr().out
    assert code != 3
    assert (run(joined), capsys.readouterr().out) == (code, out)


@pytest.mark.parametrize(
    "argv",
    [
        # a usage fault beside a hypothesis fault: zero F, one base for two
        # variables, an inhomogeneous F1
        SWEEP[:2] + ["0"] + SWEEP[3:] + ["--kmin", "0"],
        ["gcd-sweep", "--F", "x1-1", "--G", "x2-1", "--g", "z", "--kmin", "0"],
        ["basis", "--F1", "x0+1", "--F2", "x1", "--m", "2", "--order", "weight:1"],
    ],
)
def test_usage_fault_outranks_hypothesis_fault(argv, capsys):
    assert run(argv) == 3
    assert capsys.readouterr().out == ""


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert run(["basis", "--help"]) == 0
    capsys.readouterr()


def test_identities_degree_one_passes(capsys):
    assert run(["identities", "--n", "2", "--d", "1", "--mmax", "24"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# seed=0\n")
    assert "# summary:" in out


def test_identities_degree_two_fails(capsys):
    # the d=2 residuals keep growing past every anchor; reported as failure
    assert run(["identities", "--n", "2", "--d", "2", "--mmax", "24"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "nd_mmax",
    [
        ("1", "1", "3"), ("0", "1", "8"), ("-1", "1", "8"), ("2", "0", "8"), ("2", "2", "7"),
        # one row per m, and n + 1 variables, within the slice cap at degree 1
        (str(MAX_SLICE_MONOMIALS), "1", "8"), ("2000", "1", "8"),
        ("2", "1", str(MAX_POWER_DEGREE + 1)),
    ],
)
def test_identities_bad_range_is_usage_error(nd_mmax, capsys):
    n, d, mmax = nd_mmax
    assert run(["identities", "--n", n, "--d", d, "--mmax", mmax]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "identities" in captured.err


def test_identities_accepts_mmax_at_four_d(capsys):
    assert run(["identities", "--n", "1", "--d", "2", "--mmax", "8"]) == 0
    assert capsys.readouterr().out.startswith("# seed=0\n")
    assert run(["identities", "--n", str(MAX_SLICE_MONOMIALS - 1), "--d", "1", "--mmax", "4"]) == 0
    assert "\n4," in capsys.readouterr().out


def test_sweep_full_run(capsys):
    assert run(SWEEP) == 0
    out = capsys.readouterr().out
    assert out.startswith("# seed=0\n")
    header, first = out.splitlines()[1:3]
    assert header == "k,gcd_degree,scale,ratio"
    assert first == "1,0,1,0"
    assert '"threshold_k": 19' in out


def test_sweep_on_dense_three_variable_pair(capsys):
    argv = ["gcd-sweep", "--F", "(x1+2*x2-x3+1)^5+x1*x2^4-3",
            "--G", "(x1-x2+3*x3-2)^5+x3^5+5", "--g", "z", "--g", "z+1", "--g", "z+2",
            "--kmax", "3"]
    assert run(argv) == 0
    rows = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
    assert rows == ["k,gcd_degree,scale,ratio", "1,0,1,0", "2,0,2,0", "3,0,3,0"]


def test_sweep_rationals_round_trip(capsys):
    from fractions import Fraction

    assert run(["gcd-sweep", "--F", "x1-1", "--G", "x2-1", "--g", "z", "--g", "z+1",
                "--kmin", "6", "--kmax", "6", "--epsilon", "1/2"]) == 0
    rows = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
    k, deg, scale, ratio = rows[1].split(",")
    assert Fraction(ratio) == Fraction(int(deg), int(scale)) == Fraction(1, 3)


def test_sweep_without_threshold_fails(capsys):
    assert run(["gcd-sweep", "--F", "x1-1", "--G", "x2-1", "--g", "z", "--g", "z+1",
                "--kmin", "1", "--kmax", "18"]) == 1
    capsys.readouterr()


def test_sweep_dependent_gs_rejected(capsys):
    argv = ["gcd-sweep", "--F", "x1-1", "--G", "x2-1", "--g", "z^2", "--g", "z^3"]
    assert run(argv) == 2
    payload = _json_out(capsys)
    assert payload["certificate"]["certificate"]["witness"] == [3, -2]


def test_indep_reports_both_verdicts(capsys):
    assert run(["indep", "--g", "z", "--g", "z+1"]) == 0
    assert _json_out(capsys)["independent"] is True
    # a dependent verdict is still a successful standalone run
    assert run(["indep", "--g", "z^2", "--g", "z^3"]) == 0
    payload = _json_out(capsys)
    assert payload["independent"] is False and payload["witness"] == [3, -2]


def test_wronskian_check(capsys):
    argv = ["wronskian-check", "--eta", "z^2", "--eta", "z^3", "--place", "z"]
    assert run(argv) == 0
    payload = _json_out(capsys)
    assert payload["lhs"] == payload["rhs"] == 4 and payload["passed"]
    assert run(["wronskian-check", "--eta", "z", "--eta", "2*z", "--place", "z"]) == 0
    assert _json_out(capsys)["vacuous"] is True


def test_bs_check(capsys):
    argv = ["bs-check", "--F", "x0", "--G", "x1", "--m", "2",
            "--g", "z", "--g", "z+1", "--place", "z"]
    assert run(argv) == 0
    payload = _json_out(capsys)
    assert payload["passed"] and payload["info"]["u"] == [1, 0]
    bad = ["bs-check", "--F", "x0", "--G", "x1", "--m", "2",
           "--g", "z", "--g", "z^2+z", "--place", "z"]
    assert run(bad) == 2
    capsys.readouterr()


def test_bs_check_at_z_with_high_multiplicity(capsys):
    # valuations at z of several hundred summed over the slice; the report
    # must equal the one the per-element valuations gave
    argv = ["bs-check", "--F", "x0+x1", "--G", "x0-2*x1", "--m", "120",
            "--g", "z^3", "--g", "z+1", "--place", "z"]
    assert run(argv) == 0
    assert _json_out(capsys) == {
        "check": "bs",
        "info": {
            "M": 121, "c": 7259, "d": 1, "h": "1", "m": 120,
            "min_weighted_exponent": 0, "n": 1, "swapped": False,
            "tm_tie": True, "u": [3, 0],
        },
        "lhs": 21777, "passed": True, "place": "z", "rhs": 21777,
        "seed": 0, "vacuous": False,
    }


def test_exp_slopes_tracks_dichotomy(capsys):
    assert run(["exp-slopes", "--a", "1", "--b", "3/2", "--kmax", "3"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[0] == "k,ngcd_slope,maxT_slope,ratio"
    assert all(l.split(",")[3] == "1/3" for l in lines[1:])
    assert run(["exp-slopes", "--a", "1", "--b", "sqrt2", "--kmax", "3"]) == 0
    out = capsys.readouterr().out
    rows = [l for l in out.splitlines() if l and not l.startswith("#")][1:]
    assert all(r.split(",")[1] == "0" for r in rows)
    assert run(["exp-slopes", "--a", "1", "--b", "sqrt12", "--kmax", "3"]) == 3
    assert run(["exp-slopes", "--a", "sqrt10000000000000061", "--b", "1", "--kmax", "1"]) == 3
    assert "cap" in capsys.readouterr().err


def test_exp_slopes_kmax_cap(capsys):
    # one row per k: --kmax is held to MAX_POWER_DEGREE, the most rows gcd-sweep accepts
    assert run(["exp-slopes", "--a", "1", "--b", "3/2", "--kmax", "1000"]) == 0
    assert capsys.readouterr().out.count("\n1000,") == 1
    assert run(["exp-slopes", "--a", "1", "--b", "3/2", "--kmax", "1001"]) == 3
    assert "cap" in capsys.readouterr().err


def test_determinism_byte_identical(capsys):
    assert run(SWEEP) == 0
    first = capsys.readouterr().out
    assert run(SWEEP) == 0
    assert capsys.readouterr().out == first


def test_seed_recorded(capsys):
    assert run(BASIS + ["--seed", "7"]) == 0
    assert _json_out(capsys)["seed"] == 7
    assert run(["identities", "--n", "1", "--d", "1", "--mmax", "8", "--seed", "9"]) == 0
    assert capsys.readouterr().out.startswith("# seed=9\n")


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "nested" / "report.json"
    assert run(BASIS + ["--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(target.read_text())["constants"]["M"] == 3


def test_unwritable_out_is_usage_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    for target in (blocker / "report.json", blocker / "nested" / "report.json", tmp_path):
        assert run(BASIS + ["--out", str(target)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"basis: cannot write {target}: ")
        assert captured.err.count("\n") == 1


def test_outdir_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TORIGCD_OUTDIR", str(tmp_path))
    assert run(["indep", "--g", "z", "--g", "z+1"]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads((tmp_path / "indep.json").read_text())["independent"]


@pytest.mark.parametrize("argv, ext", EVERY_SUBCOMMAND, ids=EVERY_NAME)
def test_out_flag_writes_file_for_every_subcommand(argv, ext, tmp_path, capsys):
    code = run(argv)
    printed = capsys.readouterr().out
    target = tmp_path / "nested" / f"report.{ext}"
    assert run(argv + ["--out", str(target)]) == code
    assert capsys.readouterr().out == ""
    assert target.read_bytes() == printed.encode()


@pytest.mark.parametrize("argv, ext", EVERY_SUBCOMMAND, ids=EVERY_NAME)
def test_outdir_env_for_every_subcommand(argv, ext, tmp_path, capsys, monkeypatch):
    code = run(argv)
    printed = capsys.readouterr().out
    monkeypatch.setenv("TORIGCD_OUTDIR", str(tmp_path))
    assert run(argv) == code
    assert capsys.readouterr().out == ""
    assert (tmp_path / f"{argv[0]}.{ext}").read_bytes() == printed.encode()
    # the one report: corpus cases write none under $TORIGCD_OUTDIR
    assert [p.name for p in tmp_path.iterdir()] == [f"{argv[0]}.{ext}"]


def _write_case(path, name, argv, expect=0):
    (path / name).write_text(json.dumps({"argv": argv, "expect_exit": expect}))


def test_corpus_cases_write_only_their_own_out(tmp_path, capsys, monkeypatch):
    cases, outdir, own = tmp_path / "cases", tmp_path / "outdir", tmp_path / "own" / "indep.json"
    cases.mkdir()
    _write_case(cases, "01_out.json", ["indep", "--g", "z", "--out", str(own)])
    _write_case(cases, "02_plain.json", ["indep", "--g", "z+1"])
    monkeypatch.setenv("TORIGCD_OUTDIR", str(outdir))
    assert run(["corpus", str(cases)]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(own.read_text())["independent"]
    assert [p.name for p in outdir.iterdir()] == ["corpus.txt"]
    assert (outdir / "corpus.txt").read_text().endswith("corpus: 2/2 passed\n")


def test_corpus_aggregates(tmp_path, capsys):
    _write_case(tmp_path, "01_ok.json", BASIS)
    _write_case(tmp_path, "02_gate.json",
                ["basis", "--F1", "x0*x1", "--F2", "x1^2", "--m", "2"], expect=2)
    assert run(["corpus", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "corpus: 2/2 passed" in out


def test_corpus_names_offender(tmp_path, capsys):
    _write_case(tmp_path, "01_ok.json", BASIS)
    (tmp_path / "02_broken.json").write_text("{not json")
    _write_case(tmp_path, "03_wrong_exit.json", BASIS, expect=2)
    assert run(["corpus", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "02_broken" in out and "FAIL" in out
    assert "03_wrong_exit" in out
    assert "corpus: 1/3 passed" in out


def test_corpus_empty_dir_warns(tmp_path, capsys):
    assert run(["corpus", str(tmp_path)]) == 0
    assert "warning" in capsys.readouterr().out.lower()


def test_corpus_missing_dir(tmp_path, capsys):
    assert run(["corpus", str(tmp_path / "absent")]) == 3
    capsys.readouterr()


def test_shipped_corpus_passes(capsys):
    shipped = SHIPPED
    if not shipped.is_dir():
        pytest.skip("shipped corpus not present")
    assert run(["corpus", str(shipped)]) == 0
    capsys.readouterr()


def test_shipped_cases_repeat_byte_for_byte(capsys):
    """The parser is built once per process: runs in one process, with a
    usage error between them, give the same exit codes and the same bytes."""
    cases = sorted(SHIPPED.glob("*.json"))
    if not cases:
        pytest.skip("shipped corpus not present")

    def run_all():
        results = []
        for case in cases:
            config = json.loads(case.read_text())
            code = run([str(x) for x in config["argv"]])
            assert code == int(config.get("expect_exit", 0)), case.name
            results.append((case.name, code, capsys.readouterr()))
        return results

    first = run_all()
    assert run(["gcd-sweep", "--F", "x1"]) == 3
    assert "required" in capsys.readouterr().err
    assert run_all() == first


def test_internal_fault_exits_4(capsys, monkeypatch):
    def fault(_):
        raise AssertionError("witness does not\nkill the rows")

    monkeypatch.setattr(cli, "mult_independent", fault)
    assert run(["indep", "--g", "z", "--g", "z+1"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: AssertionError: witness does not kill the rows\n"

    def bare_fault(_):
        raise AssertionError

    monkeypatch.setattr(cli, "mult_independent", bare_fault)
    assert run(["indep", "--g", "z"]) == 4
    assert capsys.readouterr().err == "internal error: AssertionError\n"
    # only HypothesisError is a rejection: a bare ZeroDivisionError is a fault
    monkeypatch.setattr(cli, "mult_independent", lambda _: 1 / 0)
    assert run(["indep", "--g", "z"]) == 4
    assert capsys.readouterr().err == "internal error: ZeroDivisionError: division by zero\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["indep", "--g", "0"],
        ["gcd-sweep", "--F", "x1-1", "--G", "x2-1", "--g", "0", "--g", "z"],
        ["wronskian-check", "--eta", "0", "--eta", "z", "--place", "z"],
        ["exp-slopes", "--a", "0", "--b", "1", "--kmax", "2"],
        ["exp-slopes", "--a", "sqrt2", "--b", "sqrt3", "--kmax", "2"],
    ],
)
def test_broken_hypotheses_are_rejected_with_certificates(argv, capsys):
    # a zero function, a zero frequency and mixed quadratic fields are
    # hypotheses of the theorems, rejected as such
    assert run(argv) == 2
    payload = _json_out(capsys)
    assert payload["rejected"] and payload["certificate"]


def test_deep_nesting_is_parse_error(capsys):
    deep = "(" * MAX_NESTING + "z" + ")" * MAX_NESTING
    assert run(["indep", "--g", deep]) == 0
    capsys.readouterr()
    for text in ("(" + deep + ")", "(" * 200 + "z" + ")" * 200):
        assert run(["indep", "--g", text]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "nest deeper than the cap" in captured.err
    assert run(["indep", "--g=" + "-" * 1000 + "z"]) == 0
    assert _json_out(capsys)["independent"]


def test_exact_answers_print_in_full(capsys):
    # W(N z, N z^2) = N^2 z^2: 5999 digits, past the interpreter's default
    # int-to-str limit, which run lifts for the subcommand only
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    N = "1" + "0" * 2999
    assert run(["wronskian-check", "--eta", f"{N}*z", "--eta", f"{N}*z^2", "--place", "z"]) == 0
    payload = _json_out(capsys)
    assert payload["info"]["wronskian"] == "1" + "0" * 5998 + "*z^2"
    assert payload["passed"]
    for argv in (["indep", "--g", "z+"], ["indep", "--g", "0"], ["identities"]):
        run(argv)
    capsys.readouterr()
    if limit is not None:
        assert sys.get_int_max_str_digits() == limit


# the grammar's tokens, joined by spaces so that digits never run together:
# a soup's exponents and integers stay at most 4
_TOKENS = [
    "z", "x0", "x1", "x2", "x3", "0", "1", "2", "3", "4",
    "+", "-", "*", "/", "^", "(", ")", "sqrt2", "inf", "lex", "weight:1,2", "",
]
_SOUP = st.lists(st.sampled_from(_TOKENS), max_size=6).map(" ".join)

# each subcommand's flags with typical values; corpus, which replays recorded
# invocations through run, is left out
_INT = ("2", "1", "3", "4", "0", "-1")
_UNI = ("z", "z+1", "z^2-1", "2*z-2", "1/z", "0", "inf")
_HOMOGENEOUS = ("x0", "x1", "x0+x1", "x0-2*x1", "x0*x1", "x0^2+x1^2", "x1-x2")
_SWEEP = ("x1-1", "x2-1", "x1+x2", "x1*x2-1", "x1^2-x2", "0")
_QUAD = ("sqrt2", "1", "sqrt3", "3/2", "0", "2*sqrt2", "1+sqrt3")
_FLAGS = {
    "basis": {"--F1": _HOMOGENEOUS, "--F2": _HOMOGENEOUS, "--m": _INT, "--order": ("lex", "weight:1,2")},
    "identities": {"--n": _INT, "--d": _INT, "--mmax": ("8", "4", "12", "3")},
    "gcd-sweep": {
        "--F": _SWEEP, "--G": _SWEEP, "--g": _UNI, "--kmin": _INT, "--kmax": _INT,
        "--kstep": _INT, "--epsilon": ("1/10", "1/2", "0"), "--track": ("n", "t"),
    },
    "indep": {"--g": _UNI},
    "wronskian-check": {"--eta": _UNI, "--place": _UNI},
    "bs-check": {"--F": _HOMOGENEOUS, "--G": _HOMOGENEOUS, "--m": _INT, "--g": _UNI, "--place": _UNI},
    "exp-slopes": {"--a": _QUAD, "--b": _QUAD, "--kmax": _INT},
}


@st.composite
def _argv_soup(draw):
    """A subcommand with each flag given once or twice at typical values,
    then one kind of noise: none, one or two values swapped for token soup,
    a flag left out, or a stray positional.  gcd-sweep's default --kmax of
    60 is held to 2 unless a flag sets it, so every draw stays small."""
    command = draw(st.sampled_from(sorted(_FLAGS)))
    pairs = [
        [flag, value]
        for flag, typical in _FLAGS[command].items()
        for value in draw(st.lists(st.sampled_from(typical), min_size=1, max_size=2))
    ]
    noise = draw(st.sampled_from(["none", "soup", "soup", "two soups", "left out", "stray"]))
    for _ in range({"soup": 1, "two soups": 2}.get(noise, 0)):
        pairs[draw(st.integers(0, len(pairs) - 1))][1] = draw(_SOUP)
    if noise == "left out":
        gone = draw(st.sampled_from(sorted(_FLAGS[command])))
        pairs = [pair for pair in pairs if pair[0] != gone]
    argv = [command] + (["--kmax=2"] if command == "gcd-sweep" else [])
    argv += [f"{flag}={value}" for flag, value in pairs]
    return argv + ([draw(_SOUP)] if noise == "stray" else [])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_argv_soup())
def test_cli_soup_never_faults(argv):
    """Every exception the subcommands raise on bad input is a usage error,
    a parse error or a hypothesis rejection: no exit 4."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2, 3), (argv, err.getvalue())
    assert not err.getvalue().startswith("internal error"), argv
    if code == 2:
        payload = json.loads(out.getvalue())
        assert "rejected" in payload and "certificate" in payload

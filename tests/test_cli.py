"""End-to-end CLI behavior: exit codes, headers, determinism, corpus runs."""

import json
import pathlib

import pytest

from torigcd import cli
from torigcd.cli import run
from torigcd.parsing import MAX_SLICE_MONOMIALS

BASIS = ["basis", "--F1", "x0", "--F2", "x1", "--m", "2", "--order", "lex"]
SWEEP = [
    "gcd-sweep", "--F", "x1-1", "--G", "x2-1", "--g", "z", "--g", "z+1",
    "--kmin", "1", "--kmax", "60", "--epsilon", "1/10",
]


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
    [("1", "1", "3"), ("0", "1", "8"), ("-1", "1", "8"), ("2", "0", "8"), ("2", "2", "7")],
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


def test_outdir_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TORIGCD_OUTDIR", str(tmp_path))
    assert run(["indep", "--g", "z", "--g", "z+1"]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads((tmp_path / "indep.json").read_text())["independent"]


def _write_case(path, name, argv, expect=0):
    (path / name).write_text(json.dumps({"argv": argv, "expect_exit": expect}))


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


SHIPPED = pathlib.Path(__file__).resolve().parents[1] / "corpus"


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
    # the mapped exceptions keep their codes
    monkeypatch.setattr(cli, "mult_independent", lambda _: 1 / 0)
    assert run(["indep", "--g", "z"]) == 2
    capsys.readouterr()

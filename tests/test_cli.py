"""End-to-end CLI behavior: exit codes, headers, determinism, corpus runs."""

import json

import pytest

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
    # at the cap: one row each, on F, G whose gcds at these k are quick
    at_cap = ["gcd-sweep", "--F", "x1-1", "--G", "x1+1", "--g", "z", "--g"]
    assert run(at_cap + ["z+1", "--kmin", "1000", "--kmax", "1000"]) == 0
    assert run(at_cap + ["z^2+1", "--kmin", "500", "--kmax", "500"]) == 0
    assert capsys.readouterr().out.count("# summary") == 2


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


def test_sweep_full_run(capsys):
    assert run(SWEEP) == 0
    out = capsys.readouterr().out
    assert out.startswith("# seed=0\n")
    header, first = out.splitlines()[1:3]
    assert header == "k,gcd_degree,scale,ratio"
    assert first == "1,0,1,0"
    assert '"threshold_k": 19' in out


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


def test_shipped_corpus_passes(capsys):
    import pathlib

    shipped = pathlib.Path(__file__).resolve().parents[1] / "corpus"
    if not shipped.is_dir():
        pytest.skip("shipped corpus not present")
    assert run(["corpus", str(shipped)]) == 0
    capsys.readouterr()

"""Self-tests of the benchmark: seeded inputs, tracing, checks and the contract.

    python3 -m pytest perfbench/tests
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from hostspeed import REF_NOMINAL_S, HostClock
from layertrace import LAYER_METRICS, Tracer
from workloads import WORKLOADS, Pool, pkg

BENCH = Path(__file__).resolve().parent.parent
BENCHMARK_JSON = BENCH.parent / "BENCHMARK.json"


def one_round(pool: Pool) -> Pool:
    return Pool(pool.rounds[:1], pool.warmup)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    w = WORKLOADS[name]
    assert w.generate(3).serialize() == w.generate(3).serialize()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_other_seed_gives_other_inputs(name):
    w = WORKLOADS[name]
    assert w.generate(3).serialize() != w.generate(4).serialize()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_exercises_its_layers_and_keeps_outputs(name):
    """Every per-layer metric mapped to this workload reads nonzero, and tracing changes no output."""
    w = WORKLOADS[name]
    pool = one_round(w.generate(5))
    items = pool.rounds[0]
    plain = [w.canonical(w.op(item.payload)) for item in items]
    tracer = Tracer()
    with tracer:
        traced = [w.canonical(w.op(item.payload)) for item in items]
    assert traced == plain
    metrics = tracer.layer_metrics(len(items), 1.0, 1.0)
    assert [m for m, _, _ in LAYER_METRICS] == list(metrics)
    silent = [m for m, _, mapped in LAYER_METRICS if mapped == name and not metrics[m]["value"] > 0]
    assert not silent, f"{name} leaves these per-layer metrics at zero: {silent}"


def test_tracer_wraps_every_binding_site_and_restores_them():
    ratfunc, unipoly = pkg("ratfunc"), pkg("unipoly")
    original = unipoly.uni_gcd
    with Tracer():
        assert ratfunc.uni_gcd is unipoly.uni_gcd is not original
        assert unipoly.UniPoly.__rmul__ is unipoly.UniPoly.__mul__
        assert sys.modules["torigcd.wronskian"].wronskian.__wrapped__ is not None
    assert ratfunc.uni_gcd is unipoly.uni_gcd is original
    assert not hasattr(unipoly.UniPoly.__mul__, "__wrapped__")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_checks_pass_on_real_outputs_with_the_oracle(name):
    w = WORKLOADS[name]
    pool = w.generate(6)
    cheap = sorted(pool.rounds[0], key=lambda i: len(i.key))[:3]
    for item in cheap:
        assert w.check(item, w.op(item.payload), True) is None


def test_checks_catch_wrong_outputs():
    sweep = WORKLOADS["sweep"]
    item = next(i for i in sweep.generate(7).rounds[0] if i.payload.k_max == 20)
    res = sweep.op(item.payload)
    rows = list(res.rows)
    rows[0] = dataclasses.replace(rows[0], gcd_degree=rows[0].gcd_degree + 1)
    rows[0] = dataclasses.replace(rows[0], ratio=rows[0].ratio.__class__(rows[0].gcd_degree, rows[0].scale))
    assert sweep.check(item, dataclasses.replace(res, rows=tuple(rows)), True) is not None

    wr = WORKLOADS["wronskian"]
    item = min(wr.generate(7).rounds[0], key=lambda i: len(i.payload))
    w, reports = wr.op(item.payload)
    shifted = [dataclasses.replace(reports[0], lhs=reports[0].lhs - 1)] + reports[1:]
    assert wr.check(item, (w, shifted), True)

    sl = WORKLOADS["slice"]
    item = sl.generate(7).rounds[0][0]
    s, basis, sums = sl.op(item.payload)
    assert sl.check(item, (s, dataclasses.replace(basis, rank_B=basis.rank_B - 1), sums), False)

    corpus = WORKLOADS["corpus"]
    item = corpus.generate(7).rounds[0][0]
    code, out, err = corpus.op(item.payload)
    assert corpus.check(item, (code, out + " ", err), False)


def test_wronskian_check_accepts_a_true_failure_and_catches_a_false_pass():
    """Where f_1 has a pole the truncated inequality can fail; the check wants the truth."""
    wr = WORKLOADS["wronskian"]
    parse = pkg("parsing").parse_ratfunc
    fs = (parse("(-1/2*z+1/2)/(z^3+1/2*z^2-1/2*z)"), parse("(2/3*z^3+z^2)/(z^2-2/3*z-1/3)"))
    item = dataclasses.replace(wr.generate(7).rounds[0][0], payload=fs)
    w, reports = wr.op(fs)
    at_z = [r for r in reports if str(r.place) == "z"]
    assert [(r.lhs, r.rhs, r.passed) for r in at_z] == [(1, 0, False)]
    assert wr.check(item, (w, reports), True) is None
    forged = [dataclasses.replace(r, passed=True) if r in at_z else r for r in reports]
    assert wr.check(item, (w, forged), False)


def test_host_clock_scales_each_op_by_the_reference_jobs_around_it():
    clock = HostClock()
    clock.at, clock.ref = list(range(8)), [REF_NOMINAL_S] * 4 + [2 * REF_NOMINAL_S] * 4
    assert [clock.local(i) / REF_NOMINAL_S for i in (0, 3, 4, 7)] == [1, 1.5, 2, 2]
    assert clock.normalized([0.3] * 8) == pytest.approx([0.3, 0.3, 0.3, 0.2, 0.15, 0.15, 0.15, 0.15])


def test_benchmark_json_names_what_the_code_reports():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(m, u) for m, u, _ in LAYER_METRICS]
    assert {m["name"] for m in spec["end_to_end"]} == {
        "ops_per_s", "op_p50_ms", "op_tail_ms", "ok_ratio", "setup_s", "peak_rss_mb"
    }


def test_fails_without_the_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCHMARK_JSON, tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "corpus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_compare_refuses_mixed_backends(tmp_path):
    import compare

    def record(name, backend):
        path = tmp_path / name
        metrics = {"ops_per_s": {"value": 1.0, "unit": "1/s"}}
        path.write_text(json.dumps({"workload": "corpus", "env": {"backend": backend}, "metrics": metrics}))
        return str(path)

    same = record("a.json", "pure")
    assert compare.main(["--base", same, "--change", record("b.json", "pure")]) == 0
    assert compare.main(["--base", same, "--change", record("c.json", "compiled")]) == 2


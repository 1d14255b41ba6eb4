"""Benchmark of the torigcd toolkit: one workload, one process, one result.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Runs from any directory; the package is imported from ``src/`` next to this
directory, never from an installed copy.  The load is a closed loop in one
thread: the next op starts when the previous one returns, because the
toolkit is a batch program, not a server.

``--trace 0`` times whole rounds of ops (see workloads.py) until
``--seconds`` of op time have run and the tail percentile has ten samples
beyond it, checking each output outside the timed region, and reports the
end-to-end metrics.  Their times are normalized for the host's speed by a
reference job run between ops (hostspeed.py); the measured times are in
the full record.  ``--trace 1`` runs rounds for half of ``--seconds``
with every public function of the package wrapped (layertrace.py),
replays the same ops untraced, and reports per-layer counts and self times
plus the tracing overhead; traced and untraced outputs must agree.

The last line of stdout is the result: ``correct``, ``attempted``,
``failed`` and ``metrics`` (each ``{"value", "unit"}``).  The full record,
with the environment stamp and the tail percentile's sample count, goes to
stderr and, with ``--out``, to a file that compare.py reads.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import pkgutil
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Optional

from hostspeed import HostClock, REF_EVERY_S, normalize, reference_time

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3


def import_package() -> None:
    """Import every torigcd module afresh from this checkout's src/."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "torigcd" or n.startswith("torigcd.")]:
        del sys.modules[name]
    torigcd = importlib.import_module("torigcd")
    for info in pkgutil.walk_packages(torigcd.__path__, "torigcd."):
        if not info.name.endswith("._intpoly"):  # the compiled twin loads itself if present
            importlib.import_module(info.name)
    if SRC.resolve() not in Path(torigcd.__file__).resolve().parents:
        raise ImportError(f"torigcd came from {torigcd.__file__}, not {SRC}")


def git_commit() -> Optional[str]:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "torigcd").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    """Stamp for every result; compare.py refuses results whose backend differs."""
    return {
        "backend": importlib.import_module("torigcd.kernel").BACKEND,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "source_sha256": source_digest(),
    }


class Checker:
    """Checks each op right after it returns, outside the timed region.

    Only canonical forms are kept, so finished outputs do not pile up on the
    heap and slow the ops that follow.  The first run of each input gets the
    full check; repeats must reproduce its canonical output.  Inputs of the
    first round also get the sympy oracle, after the timed loop, so that
    sympy's import weighs on neither the timings nor peak memory.
    """

    def __init__(self, w, pool):
        self.w = w
        self.oracle_keys = {item.key for item in pool.rounds[0]}
        self.first: dict = {}  # key -> canonical output
        self.verdict: dict = {}  # key -> failure reason or None
        self.deferred: list = []  # (item, output) awaiting the oracle
        self.samples: list = []  # (key, latency_s, own failure reason or None)

    def _check(self, item, output, oracle: bool) -> Optional[str]:
        try:
            return self.w.check(item, output, oracle)
        except Exception:
            return "check raised: " + traceback.format_exc().strip().splitlines()[-1]

    def record(self, item, latency_s: float, output, error: Optional[str]) -> None:
        key = item.key
        if error is None:
            canon = self.w.canonical(output)
            if key not in self.first:
                self.first[key] = canon
                self.verdict[key] = self._check(item, output, False)
                if key in self.oracle_keys:
                    self.deferred.append((item, output))
            elif canon != self.first[key]:
                error = "output differs on a repeated input"
        self.samples.append((key, latency_s, error))

    def agrees(self, item, output) -> bool:
        return self.w.canonical(output) == self.first.get(item.key)

    def finish(self) -> "list[Optional[str]]":
        """Run the deferred oracle checks; return the failure reason of every sample."""
        for item, output in self.deferred:
            if self.verdict[item.key] is None:
                self.verdict[item.key] = self._check(item, output, True)
        self.deferred.clear()
        return [error or self.verdict.get(key) for key, _, error in self.samples]


def timed_op(w, item):
    """(latency_s, output, error) of one op; a raising op is a failed op."""
    t0 = time.perf_counter()
    try:
        out = w.op(item.payload)
    except Exception as exc:
        return time.perf_counter() - t0, None, f"raised {exc!r}"
    return time.perf_counter() - t0, out, None


def run_rounds(w, pool, checker: Checker, seconds: float, least_ops: int, clock=None):
    """Whole rounds until `seconds` of op time and `least_ops` ops are done.

    With a clock, the reference job runs first, last and after every
    REF_EVERY_S of op time.  Returns the op time (checks and reference jobs
    excluded), the rounds run and the items in run order.
    """
    busy = since = 0.0
    items = []
    r = 0
    while busy < seconds or len(items) < least_ops:
        for item in pool.rounds[r % len(pool.rounds)]:
            if clock is not None and (since >= REF_EVERY_S or not items):
                clock.sample(len(items))
                since = 0.0
            latency, out, error = timed_op(w, item)
            busy += latency
            since += latency
            items.append(item)
            checker.record(item, latency, out, error)
        r += 1
    if clock is not None:
        clock.sample(len(items))
    return busy, r, items


def set_up(w, seed: int):
    """Import, generate the inputs and warm up, SETUP_REPEATS times; inputs must repeat exactly.

    Returns the pool and each set-up's measured and normalized time; two
    reference jobs before and two after a set-up judge the host's speed.
    """
    times, normalized, images = [], [], []
    for _ in range(SETUP_REPEATS):
        refs = [reference_time(), reference_time()]
        t0 = time.perf_counter()
        import_package()
        pool = w.generate(seed)
        w.op(pool.warmup.payload)
        times.append(time.perf_counter() - t0)
        refs += [reference_time(), reference_time()]
        normalized.append(normalize(times[-1], refs))
        images.append(pool.serialize())
    if len(set(images)) != 1:
        raise RuntimeError("the same seed generated different inputs")
    return pool, times, normalized


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timings(w, latencies: "list[float]", setup_times: "list[float]", ok: int) -> dict:
    tail = statistics.quantiles(latencies, n=100, method="inclusive")[w.tail_pct - 1]
    return {
        "ops_per_s": ok / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": tail * 1e3,
        "setup_s": statistics.median(setup_times),
        "tail_beyond": sum(x > tail for x in latencies),
    }


def end_to_end(w, pool, seconds: float, setup_times, setup_normalized):
    """Untraced rounds; the reported times are normalized for the host's speed."""
    from workloads import min_ops

    checker = Checker(w, pool)
    clock = HostClock()
    busy, rounds, _ = run_rounds(w, pool, checker, seconds, min_ops(w), clock)
    rss = peak_rss_mb()
    reasons = checker.finish()
    ok = sum(r is None for r in reasons)
    measured = [latency for _, latency, _ in checker.samples]
    t = timings(w, clock.normalized(measured), setup_normalized, ok)
    metrics = {
        "ops_per_s": {"value": t["ops_per_s"], "unit": "1/s"},
        "op_p50_ms": {"value": t["op_p50_ms"], "unit": "ms"},
        "op_tail_ms": {"value": t["op_tail_ms"], "unit": "ms"},
        "ok_ratio": {"value": ok / len(measured), "unit": "ratio"},
        "setup_s": {"value": t["setup_s"], "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }
    info = {
        "rounds": rounds,
        "timed_s": busy,
        "tail": {"percentile": w.tail_pct, "samples": len(measured), "beyond": t["tail_beyond"]},
        "measured": timings(w, measured, setup_times, ok),
        "host": clock.summary(),
    }
    return reasons, metrics, info


def traced(w, pool, seconds: float):
    """Traced rounds, then the same ops untraced; both runs must give the same outputs."""
    from layertrace import Tracer

    checker = Checker(w, pool)
    tracer = Tracer()
    with tracer:  # half the budget, so that with the replay the run takes about `seconds`
        traced_s, rounds, items = run_rounds(w, pool, checker, seconds / 2, 1)
    untraced_s = 0.0
    differ = []
    for item in items:
        latency, out, error = timed_op(w, item)
        untraced_s += latency
        differ.append(error is not None or not checker.agrees(item, out))
    reasons = [
        r or ("traced and untraced outputs differ" if d else None)
        for r, d in zip(checker.finish(), differ)
    ]
    metrics = tracer.layer_metrics(len(items), traced_s, untraced_s)
    info = {"rounds": rounds, "traced_s": traced_s, "untraced_s": untraced_s}
    return reasons, metrics, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full record to this file")
    args = parser.parse_args(argv)
    try:
        import_package()
    except ImportError as exc:
        print(f"perfbench: cannot import torigcd from {SRC}: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    os.environ.pop("TORIGCD_OUTDIR", None)  # corpus reports must reach the captured stdout
    w = WORKLOADS[args.workload]
    pool, setup_times, setup_normalized = set_up(w, args.seed)
    gc.collect()
    if args.trace:
        reasons, metrics, info = traced(w, pool, args.seconds)
    else:
        reasons, metrics, info = end_to_end(w, pool, args.seconds, setup_times, setup_normalized)
    failures = [r for r in reasons if r is not None]
    record = {
        "workload": w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(),
        "setup_repeats_s": setup_times,
        **info,
        "attempted": len(reasons),
        "failed": len(failures),
        "failures": sorted(set(failures))[:10],
        "metrics": metrics,
    }
    text = json.dumps(record, sort_keys=True)
    print(text, file=sys.stderr)
    if args.out:
        Path(args.out).write_text(text + "\n")
    result = {
        "correct": not failures,
        "attempted": len(reasons),
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Compare two sets of benchmark records metric by metric.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --out base1.json
    ...
    python3 perfbench/compare.py --base base*.json --change change*.json

Each record is the file ``run.py --out`` writes.  Records whose kernel
backend differs are refused (exit 2): the compiled and the pure kernel are
different programs.  For every workload and metric it prints the medians and
the base's quartile spread, and marks a metric WORSE when the change's
median is worse than the base's by more than the bound in BENCHMARK.json,
UNRESOLVED when the base's own spread exceeds that bound.  Exit 1 if any
metric is WORSE.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(paths):
    return [json.loads(Path(p).read_text()) for p in paths]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args(argv)
    base, change = load(args.base), load(args.change)
    backends = {r["env"]["backend"] for r in base + change}
    if len(backends) != 1:
        print(f"refusing to compare kernel backends {sorted(backends)}", file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    metrics = spec["end_to_end"] + spec["per_layer"]
    worse = False
    for workload in sorted({r["workload"] for r in base + change}):
        for m in metrics:
            name, lower = m["name"], m["better"] == "lower"
            b = [r["metrics"][name]["value"] for r in base if r["workload"] == workload and name in r["metrics"]]
            c = [r["metrics"][name]["value"] for r in change if r["workload"] == workload and name in r["metrics"]]
            if not b or not c:
                continue
            bmed, cmed = statistics.median(b), statistics.median(c)
            spread = (
                (statistics.quantiles(b, n=4)[2] - statistics.quantiles(b, n=4)[0]) / bmed
                if len(b) >= 2 and bmed
                else 0.0
            )
            delta = (cmed - bmed) / bmed if bmed else 0.0
            verdict = ""
            if "bound" in m:
                if spread > m["bound"]:
                    verdict = "UNRESOLVED"
                elif (delta if lower else -delta) > m["bound"]:
                    verdict, worse = "WORSE", True
            print(
                f"{workload:10s} {name:40s} base {bmed:12.6g} change {cmed:12.6g}"
                f" {delta:+8.2%} spread {spread:6.2%} {verdict}"
            )
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())

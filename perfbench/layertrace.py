"""Per-layer tracing: wrap the package's public functions from outside.

A layer is a module under ``src/torigcd``.  ``Tracer.install`` replaces every
public function of the package at every place callers look it up: each
``torigcd.*`` module namespace (so ``from .unipoly import uni_gcd`` in
ratfunc, multipoly, nevandeg and wronskian is covered), the package
namespace that re-exports them, and the class attributes named in
``METHODS`` together with their aliases (``__rmul__ = __mul__``).  Modules
are reached through ``sys.modules``: ``torigcd.wronskian`` as an attribute
of the package is the re-exported *function*, not the module.

The kernel backends are leaves: calls inside ``kernel.gcd`` (primitive
parts, pseudo-remainders) stay unwrapped, so ``kernel.gcd.self_s`` is the
whole cost of a gcd.  A function's self time is its wall time minus the
time of traced functions it called.

The benchmark is one process, one thread and a closed loop, so no layer
ever waits for another: per-layer wait time is zero by construction and is
not reported.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import time
from collections import defaultdict

PACKAGE = "torigcd"
LEAF_MODULES = frozenset({"torigcd.kernel.intpoly_py", "torigcd.kernel._intpoly"})

# class methods traced under a layer name, keyed by the method's qualname;
# aliases of the same function object (__rmul__ = __mul__) are found by identity
METHODS = {
    "UniPoly.__mul__": "unipoly.mul",
    "UniPoly.__divmod__": "unipoly.divmod",
    "RationalFunction.__init__": "ratfunc.reduce",
}

# (metric, unit, workload whose traced run must exercise it).  The last
# column is the mapping the self-test checks; it is also where the metric
# is expected to move when its layer changes.
LAYER_METRICS = [
    ("kernel.gcd.calls", "count", "sweep"),
    ("kernel.gcd.self_s", "s", "sweep"),
    ("kernel.gcd.time_share", "ratio", "sweep"),
    ("kernel.gcd.shared_ratio", "ratio", "sweep"),
    ("kernel.gcd.trivial_share", "ratio", "sweep"),
    ("kernel.gcd.trivial_calls", "count", "sweep"),
    ("kernel.gcd.trivial_self_s", "s", "sweep"),
    ("kernel.gcd.coprime_calls", "count", "sweep"),
    ("kernel.gcd.coprime_self_s", "s", "sweep"),
    ("kernel.gcd.in_deg_max", "deg", "sweep"),
    ("kernel.gcd.coeff_bits_max", "bits", "sweep"),
    ("kernel.bareiss_rank.calls", "count", "slice"),
    ("kernel.bareiss_rank.self_s", "s", "slice"),
    ("kernel.bareiss_rank.cells", "count", "slice"),
    ("unipoly.mul.calls", "count", "wronskian"),
    ("unipoly.mul.self_s", "s", "wronskian"),
    ("unipoly.divmod.calls", "count", "wronskian"),
    ("unipoly.divmod.self_s", "s", "wronskian"),
    ("unipoly.uni_gcd.calls", "count", "wronskian"),
    ("unipoly.uni_gcd.self_s", "s", "wronskian"),
    ("ratfunc.reduce.calls", "count", "wronskian"),
    ("ratfunc.reduce.self_s", "s", "wronskian"),
    ("ratfunc.reduce.useful_share", "ratio", "wronskian"),
    ("ratfunc.coprime_basis.calls", "count", "wronskian"),
    ("ratfunc.coprime_basis.self_s", "s", "wronskian"),
    ("ratfunc.valuation.calls", "count", "wronskian"),
    ("ratfunc.valuation.self_s", "s", "wronskian"),
    ("multipoly.substitute.calls", "count", "sweep"),
    ("multipoly.substitute.self_s", "s", "sweep"),
    ("multipoly.mv_gcd.calls", "count", "sweep"),
    ("multipoly.mv_gcd.self_s", "s", "sweep"),
    ("multipoly.evaluate_poly.self_s", "s", "corpus"),
    ("linalg.rank.calls", "count", "slice"),
    ("linalg.rank.self_s", "s", "slice"),
    ("idealslice.build_basis_slice.self_s", "s", "slice"),
    ("idealslice.verify_basis.self_s", "s", "slice"),
    ("nevandeg.mult_independent.self_s", "s", "sweep"),
    ("nevandeg.ngcd_slope.self_s", "s", "sweep"),
    ("nevandeg.tgcd_slope.self_s", "s", "sweep"),
    ("wronskian.wronskian.calls", "count", "wronskian"),
    ("wronskian.wronskian.self_s", "s", "wronskian"),
    ("wronskian.ordw_check.self_s", "s", "wronskian"),
    ("wronskian.builds_per_op", "1/op", "wronskian"),
    ("cli.run.self_s", "s", "corpus"),
    ("parsing.parse.self_s", "s", "corpus"),
    ("expunits.exp_ngcd_slope.self_s", "s", "corpus"),
    ("trace.overhead_ratio", "ratio", "sweep"),
]


class Stat:
    __slots__ = ("calls", "self_s")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0


class GcdShape:
    """Input/output shape of kernel.gcd calls: the traffic that picks a gcd algorithm."""

    def __init__(self):
        self.trivial_calls = 0  # a constant input
        self.trivial_s = 0.0
        self.coprime_calls = 0  # two nonconstant inputs, constant output
        self.coprime_s = 0.0
        self.out_deg_sum = 0  # over calls with two nonconstant inputs
        self.min_in_deg_sum = 0
        self.in_deg_max = 0
        self.coeff_bits_max = 0


def _gcd_hook(tracer, args, result, self_s):
    a, b = args
    g = tracer.gcd
    da, db = len(a) - 1, len(b) - 1
    g.in_deg_max = max(g.in_deg_max, da, db)
    bits = max((abs(c).bit_length() for c in itertools.chain(a, b)), default=0)
    g.coeff_bits_max = max(g.coeff_bits_max, bits)
    if min(da, db) <= 0:
        g.trivial_calls += 1
        g.trivial_s += self_s
        return
    g.out_deg_sum += len(result) - 1
    g.min_in_deg_sum += min(da, db)
    if len(result) == 1:
        g.coprime_calls += 1
        g.coprime_s += self_s


def _rank_hook(tracer, args, result, self_s):
    rows = args[0]
    tracer.rank_cells += len(rows) * (len(rows[0]) if rows else 0)


def _reduce_hook(tracer, args, result, self_s):
    # args = (self, num, den): the gcd was nonconstant iff the numerator shrank
    rf, num = args[0], args[1]
    degree = getattr(num, "degree", 0)
    if degree >= 1 and rf.num.degree < degree:
        tracer.useful_reductions += 1


HOOKS = {"kernel.gcd": _gcd_hook, "kernel.bareiss_rank": _rank_hook, "ratfunc.reduce": _reduce_hook}


def _layer_of(fn) -> "str | None":
    """Layer name '<module>.<function>' of a public package function, else None."""
    if not inspect.isroutine(fn):
        return None
    module = getattr(fn, "__module__", None) or ""
    name = getattr(fn, "__name__", "")
    if not module.startswith(PACKAGE + ".") or name.startswith("_"):
        return None
    return f"{module.split('.')[1]}.{name}"


class Tracer:
    """Counts calls and self time per layer function while installed."""

    def __init__(self):
        self.stats = defaultdict(Stat)
        self.gcd = GcdShape()
        self.rank_cells = 0
        self.useful_reductions = 0
        self._stack: "list[float]" = []
        self._wrappers: dict = {}
        self._patches: list = []

    def _wrap(self, fn, name):
        key = id(fn)
        if key in self._wrappers:
            return self._wrappers[key]
        stat = self.stats[name]
        hook = HOOKS.get(name)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stat.calls += 1
                stat.self_s += dt - child
                if stack:
                    stack[-1] += dt
            if hook is not None:
                hook(self, args, result, dt - child)
            return result

        self._wrappers[key] = functools.wraps(fn)(traced)
        return traced

    def _patch(self, owner, attr, original, name):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, name))

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        classes = {}
        for modname in sorted(sys.modules):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            if modname in LEAF_MODULES:
                continue
            module = sys.modules[modname]
            for attr, value in list(vars(module).items()):
                name = _layer_of(value)
                if name is not None:
                    self._patch(module, attr, value, name)
                elif isinstance(value, type) and value.__module__.startswith(PACKAGE + "."):
                    classes[id(value)] = value
        for cls in classes.values():
            for attr, value in list(vars(cls).items()):
                name = METHODS.get(getattr(value, "__qualname__", None))
                if inspect.isfunction(value) and name is not None:
                    self._patch(cls, attr, value, name)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def calls(self, name: str) -> int:
        return self.stats[name].calls if name in self.stats else 0

    def self_s(self, name: str) -> float:
        return self.stats[name].self_s if name in self.stats else 0.0

    def layer_metrics(self, ops: int, traced_s: float, untraced_s: float) -> dict:
        """Every LAYER_METRICS value; ratios over an empty base read 0."""
        g = self.gcd
        gcd_calls = self.calls("kernel.gcd")
        reduce_calls = self.calls("ratfunc.reduce")
        derived = {
            "kernel.gcd.time_share": _ratio(self.self_s("kernel.gcd"), traced_s),
            "kernel.gcd.shared_ratio": _ratio(g.out_deg_sum, g.min_in_deg_sum),
            "kernel.gcd.trivial_share": _ratio(g.trivial_calls, gcd_calls),
            "kernel.gcd.trivial_calls": g.trivial_calls,
            "kernel.gcd.trivial_self_s": g.trivial_s,
            "kernel.gcd.coprime_calls": g.coprime_calls,
            "kernel.gcd.coprime_self_s": g.coprime_s,
            "kernel.gcd.in_deg_max": g.in_deg_max,
            "kernel.gcd.coeff_bits_max": g.coeff_bits_max,
            "kernel.bareiss_rank.cells": self.rank_cells,
            "ratfunc.reduce.useful_share": _ratio(self.useful_reductions, reduce_calls),
            "wronskian.builds_per_op": _ratio(self.calls("wronskian.wronskian"), ops),
            "parsing.parse.self_s": sum(
                s.self_s for n, s in self.stats.items() if n.startswith("parsing.parse_")
            ),
            "trace.overhead_ratio": _ratio(traced_s, untraced_s),
        }
        out = {}
        for metric, unit, _ in LAYER_METRICS:
            if metric in derived:
                value = derived[metric]
            else:
                function, stat = metric.rsplit(".", 1)
                value = self.calls(function) if stat == "calls" else self.self_s(function)
            out[metric] = {"value": value, "unit": unit}
        return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0

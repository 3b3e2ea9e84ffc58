"""Layer spans around dirikit's public functions, installed from outside.

The tracer replaces each traced function in every dirikit module
namespace that binds it (and the suite runners in ``suites.SUITES``),
and wraps ``AnalyticFunction.__init__`` to count and time every build.
A span is (name, start, end, parent); spans live in flat arrays while the
run lasts and are written out when it ends.  Self time is a span's
duration minus the durations of its child spans.  Everything is restored
when the ``with`` block ends, whatever happened inside it.
"""

from __future__ import annotations

import sys
import time
from array import array
from pathlib import Path

import numpy as np

#: Traced public functions, by dirikit module.
TRACED = {
    "functions": ("evaluate", "divide_by_root", "multiply", "derivative"),
    "quadrature": ("poisson_weighted_energy",),
    "dirichlet": (
        "dirichlet_weighted",
        "dirichlet_sigma",
        "douglas_decompose",
        "multiplier_norm_upper",
    ),
    "operators": ("gram_section", "defect_sequence", "tuple_norm_sq"),
    "cli": ("main",),
}
BUILD_SPAN = "functions.AnalyticFunction"
EVALUATE_SPAN = "functions.evaluate"
ENERGY_SPAN = "quadrature.poisson_weighted_energy"
#: Spans that make one quadrature-route integral out of their energy calls.
INTEGRAL_SPANS = ("dirichlet.dirichlet_weighted", "dirichlet.douglas_decompose")

SUITE_NAMES = (
    "monomial", "douglas", "tmap", "kernel", "dilation", "shiftineq",
    "multiplier", "atomic", "szego", "isometry", "vsubspace",
)

#: Per-layer metrics in report order: (name, unit).  Counts and times are
#: per operation; ``quadrature.grid_points`` is computed from the spec.
PER_LAYER = (
    [
        ("dirikit.import_ms", "ms"),
        ("functions.AnalyticFunction.built", "calls/op"),
        ("functions.AnalyticFunction.self_ms", "ms/op"),
        ("functions.evaluate.calls", "calls/op"),
        ("functions.evaluate.points", "points/op"),
        ("functions.evaluate.self_ms", "ms/op"),
        ("functions.divide_by_root.calls", "calls/op"),
        ("functions.divide_by_root.self_ms", "ms/op"),
        ("functions.multiply.calls", "calls/op"),
        ("functions.multiply.self_ms", "ms/op"),
        ("functions.derivative.calls", "calls/op"),
        ("quadrature.poisson_weighted_energy.calls", "calls/op"),
        ("quadrature.poisson_weighted_energy.self_ms", "ms/op"),
        ("quadrature.grid_points", "computed_pts/op"),
        ("quadrature.calls_per_integral", "calls/integral"),
        ("dirichlet.dirichlet_weighted.calls", "calls/op"),
        ("dirichlet.dirichlet_weighted.self_ms", "ms/op"),
        ("dirichlet.dirichlet_sigma.calls", "calls/op"),
        ("dirichlet.dirichlet_sigma.self_ms", "ms/op"),
        ("dirichlet.douglas_decompose.self_ms", "ms/op"),
        ("dirichlet.multiplier_norm_upper.self_ms", "ms/op"),
        ("operators.gram_section.self_ms", "ms/op"),
        ("operators.defect_sequence.self_ms", "ms/op"),
        ("operators.tuple_norm_sq.calls", "calls/op"),
    ]
    + [(f"suites.{name}.ms", "ms/op") for name in SUITE_NAMES]
    + [("cli.main.self_ms", "ms/op"), ("trace.overhead_pct", "%")]
)


class Tracer:
    """Collects spans of one traced loop; use as a context manager."""

    def __init__(self, dirikit_module):
        self.dirikit = dirikit_module
        self._names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.op_start = array("q")
        self.points = 0
        self._stack = [-1]
        self._restore: list = []

    def _wrap(self, span: str, fn, count_points: bool = False):
        ident = self._ids.setdefault(span, len(self._names))
        if ident == len(self._names):
            self._names.append(span)
        name, parent, start, end = self.name, self.parent, self.start, self.end
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(name)
            name.append(ident)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(index)
            if count_points:
                z = args[1] if len(args) > 1 else kwargs["z"]
                self.points += int(np.size(z))
            start[index] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def __enter__(self) -> Tracer:
        modules = [
            module
            for key, module in sys.modules.items()
            if key == "dirikit" or key.startswith("dirikit.")
        ]
        suites = sys.modules["dirikit.suites"]
        targets = [
            (f"{short}.{attr}", getattr(sys.modules[f"dirikit.{short}"], attr))
            for short, attrs in TRACED.items()
            for attr in attrs
        ] + [(f"suites.{key}", runner) for key, runner in suites.SUITES.items()]
        namespaces = [vars(module) for module in modules] + [suites.SUITES]
        try:
            for span, original in targets:
                wrapper = self._wrap(span, original, span == EVALUATE_SPAN)
                for namespace in namespaces:
                    for key, value in list(namespace.items()):
                        if value is original:
                            self._restore.append((namespace, key, original))
                            namespace[key] = wrapper
            cls = self.dirikit.AnalyticFunction
            self._restore.append((cls, "__init__", cls.__init__))
            cls.__init__ = self._wrap(BUILD_SPAN, cls.__init__)
        except BaseException:
            self._undo()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._undo()

    def _undo(self) -> None:
        while self._restore:
            owner, key, original = self._restore.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    def mark_op(self) -> None:
        """Note that the spans from here on belong to the next operation."""
        self.op_start.append(len(self.name))

    def stats(self) -> dict[str, dict[str, float]]:
        """Calls, total and self milliseconds per span name."""
        names = np.frombuffer(self.name, dtype=np.int32)
        parents = np.frombuffer(self.parent, dtype=np.int32)
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        children = np.zeros(len(names))
        nested = parents >= 0
        np.add.at(children, parents[nested], duration[nested])
        own = duration - children
        out = {}
        for ident, span in enumerate(self._names):
            mask = names == ident
            out[span] = {
                "calls": float(np.count_nonzero(mask)),
                "ms": 1e3 * float(duration[mask].sum()),
                "self_ms": 1e3 * float(own[mask].sum()),
            }
        return out

    def integrals(self) -> int:
        """Quadrature-route integrals: the distinct nearest integral spans
        above the energy calls, an energy call with none counting alone."""
        if ENERGY_SPAN not in self._ids:
            return 0
        energy = self._ids[ENERGY_SPAN]
        owners = {self._ids[s] for s in INTEGRAL_SPANS if s in self._ids}
        roots = set()
        for index, ident in enumerate(self.name):
            if ident != energy:
                continue
            node = index
            while node >= 0 and self.name[node] not in owners:
                node = self.parent[node]
            roots.add(node if node >= 0 else index)
        return len(roots)

    def write(self, path: Path) -> None:
        """Write the spans, the span-name table and the operation bounds."""
        np.savez(
            path,
            span_names=np.array(self._names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            op_start=np.frombuffer(self.op_start, dtype=np.int64),
        )


def grid_points_per_call(spec) -> int:
    """Points one ``poisson_weighted_energy`` call samples: the spec's grid
    and the half grid of its error estimate."""
    return spec.radial * spec.angular + max(spec.radial // 2, 4) * max(
        spec.angular // 2, 8
    )


def layer_metrics(
    tracer: Tracer, ops: int, import_ms: float, overhead_pct: float
) -> dict[str, float]:
    """Per-layer metric values, per operation, keyed as in ``PER_LAYER``."""
    stats = tracer.stats()
    spec = tracer.dirikit.QuadratureSpec.default()

    def get(span: str, field: str) -> float:
        return stats.get(span, {}).get(field, 0.0) / ops

    energy_calls = stats.get(ENERGY_SPAN, {}).get("calls", 0.0)
    integrals = tracer.integrals()
    values = {
        "dirikit.import_ms": import_ms,
        "functions.AnalyticFunction.built": get(BUILD_SPAN, "calls"),
        "functions.evaluate.points": tracer.points / ops,
        "quadrature.grid_points": energy_calls * grid_points_per_call(spec) / ops,
        "quadrature.calls_per_integral": (
            energy_calls / integrals if integrals else 0.0
        ),
        "trace.overhead_pct": overhead_pct,
    }
    for name, _unit in PER_LAYER:
        if name in values:
            continue
        span, _, field = name.rpartition(".")
        values[name] = get(span, field)
    return values

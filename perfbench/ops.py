"""Operations of each workload and the checks on their outputs.

``OPERATIONS[workload](dirikit, makeup, expected, scratch)`` turns the plain
make-up into program inputs and returns a ``Workload``: the operations of
one round, a warm-up call, and a check of one operation's output against
the oracle values run.py computed (``expected``).  Checks compare
numbers only; the worker runs them outside every timed region.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

#: Relative agreement of either program route with the exact oracle.  The
#: quadrature grid (96 x 256) is exact for these degrees up to roundoff;
#: over seeds 0-4 the worst errors were 3.7e-14 (quadrature) and 2.7e-15
#: (exact route, Gram forms, defect norms).
REL_TOL = 1e-11
#: Largest |G - G^H| allowed, relative to the largest entry of G (worst
#: seen 2.5e-16).
HERMITIAN_TOL = 1e-13
#: Largest (m+1)-th forward difference allowed, relative to max beta_k
#: (worst seen 1.9e-15).
DEFECT_TOL = 1e-12
#: A certified upper bound may sit below an exact lower bound only by
#: the rounding of the bound itself.
BOUND_SLACK = 1e-12


@dataclass
class Workload:
    """One round of operations, the warm-up call, and the output check."""

    ops: list[Callable[[], object]]
    warmup: Callable[[], object]
    check: Callable[[object], list[str]]


def _function(dk, coeffs, exact=True):
    return dk.AnalyticFunction(tuple(coeffs), exact)


def _measure(dk, plain):
    atoms = tuple(dk.Atom(angle, mass) for angle, mass in plain["atoms"])
    return dk.CircleMeasure(atoms, plain["lebesgue"])


def _close(observed: float, exact: float) -> bool:
    return abs(observed - exact) <= REL_TOL * abs(exact)


def _integral_errors(results, expected, route, label) -> list[str]:
    errors = []
    for i, (result, exact) in enumerate(zip(results, expected)):
        if result.method != route:
            errors.append(f"{label}[{i}]: route {result.method}, not {route}")
        if not _close(result.value, exact):
            errors.append(f"{label}[{i}]: {result.value!r} vs oracle {exact!r}")
    if len(results) != len(expected):
        errors.append(f"{label}: {len(results)} results for {len(expected)}")
    return errors


def _quad_atoms(dk, makeup, expected, scratch) -> Workload:
    items = [
        (
            _function(dk, it["coeffs"], it.get("exact", True)),
            _measure(dk, it["measure"]),
            it["order"],
            it["force"],
        )
        for it in makeup["integrals"]
    ]

    def op():
        return [
            dk.dirichlet_weighted(f, mu, n, force_quadrature=force)
            for f, mu, n, force in items
        ]

    def check(results) -> list[str]:
        return _integral_errors(
            results, expected["integrals"], "quadrature", "integral"
        )

    return Workload([op], op, check)


def _exact_tuple(dk, makeup, expected, scratch) -> Workload:
    weighted = [
        (_function(dk, it["coeffs"]), _measure(dk, it["measure"]), it["order"])
        for it in makeup["weighted"]
    ]

    def measure_tuple(plain):
        return dk.MeasureTuple(tuple(_measure(dk, m) for m in plain))

    grams = [(measure_tuple(g["tuple"]), g["degree"]) for g in makeup["grams"]]
    vectors = [
        [np.array(v, dtype=complex) for v in g["vectors"]] for g in makeup["grams"]
    ]
    defects = [
        (_function(dk, d["coeffs"]), measure_tuple(d["tuple"]), d["max_order"])
        for d in makeup["defects"]
    ]
    multipliers = [
        (_function(dk, m["phi"]), m["order"], m["section"])
        for m in makeup["multipliers"]
    ]

    def op():
        return (
            [dk.dirichlet_weighted(f, mu, n) for f, mu, n in weighted],
            [dk.gram_section(mt, degree) for mt, degree in grams],
            [dk.defect_sequence(f, mt, top) for f, mt, top in defects],
            [dk.multiplier_norm_upper(p, j, s) for p, j, s in multipliers],
        )

    def check(output) -> list[str]:
        results, sections, reports, bounds = output
        errors = _integral_errors(
            results, expected["weighted"], "decomposition", "weighted"
        )
        for g, (section, vecs, norms) in enumerate(
            zip(sections, vectors, expected["gram_norms"])
        ):
            matrix = section.matrix
            skew = float(np.max(np.abs(matrix - matrix.conj().T)))
            if skew > HERMITIAN_TOL * float(np.max(np.abs(matrix))):
                errors.append(f"gram[{g}]: not Hermitian, |G - G^H| = {skew:.3e}")
            for v, (a, exact) in enumerate(zip(vecs, norms)):
                # the program's G[j, k] pairs z^j (linear slot) with z^k
                value = complex(a @ matrix @ a.conj())
                if not _close(value.real, exact) or abs(value.imag) > REL_TOL * exact:
                    errors.append(f"gram[{g}] vector {v}: {value!r} vs oracle {exact!r}")
        for d, (report, betas) in enumerate(zip(reports, expected["defect_betas"])):
            top = len(betas) - 1
            for k, (beta, exact) in enumerate(zip(report.beta, betas)):
                if not _close(beta, exact):
                    errors.append(f"defect[{d}] beta_{k}: {beta!r} vs oracle {exact!r}")
            last = report.differences[top][0]
            if abs(last) > DEFECT_TOL * max(betas):
                errors.append(f"defect[{d}]: difference {top} is {last!r}, not 0")
        for m, (bound, lower) in enumerate(zip(bounds, expected["multiplier_lower"])):
            if bound < lower * (1.0 - BOUND_SLACK):
                errors.append(f"multiplier[{m}]: bound {bound!r} below {lower!r}")
        return errors

    return Workload([op], op, check)


def _verify_all(dk, makeup, expected, scratch: Path) -> Workload:
    seen: dict[int, bytes] = {}

    def verify(seed: int):
        path = scratch / f"verify-{seed}.json"
        code = dk.cli.main(["verify", "all", "--seed", str(seed), "--out", str(path)])
        return seed, code, path

    def check(output) -> list[str]:
        seed, code, path = output
        data = path.read_bytes()
        errors = []
        if code != 0:
            errors.append(f"verify all --seed {seed}: exit code {code}")
        reports = json.loads(data)
        failing = [r["suite"] for r in reports if not r["passed"]]
        if failing or len(reports) != len(dk.SUITES):
            errors.append(f"verify all --seed {seed}: not passed: {failing}")
        if seen.setdefault(seed, data) != data:
            errors.append(f"verify all --seed {seed}: report bytes differ")
        return errors

    ops = [lambda s=seed: verify(s) for seed in makeup["round"]]
    return Workload(ops, lambda: verify(makeup["warmup"]), check)


OPERATIONS = {
    "verify-all": _verify_all,
    "quad-atoms": _quad_atoms,
    "exact-tuple": _exact_tuple,
}

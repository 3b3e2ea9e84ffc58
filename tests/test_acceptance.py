"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.  Criterion 9 checks the product-multiplier inequality
with the multiplier norm of the full order-(n-1) norm; the form with the
order-(n-1) seminorm admits explicit counterexamples for orders n >= 2
(see test_dirichlet.py::test_multiplier_inequality_counterexample) and is
not what the suite certifies.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import dirikit
from dirikit import QuadratureSpec, integrate_disc
from dirikit.suites import (
    run_atomic,
    run_dilation,
    run_douglas,
    run_isometry,
    run_kernel,
    run_monomial,
    run_multiplier,
    run_shiftineq,
    run_szego,
    run_tmap,
    run_vsubspace,
)

SEED = 2026
#: Pinned report of ``verify all --seed 42``.  Criterion 12 also holds a
#: fresh report to these bytes, so a change that moves any number shows.
GOLDEN_REPORT = Path(__file__).parent / "data" / "verify-all-seed42.json"
#: The child process imports the package the tests import, installed or not.
CHILD_PATH = os.pathsep.join(
    filter(None, [str(Path(dirikit.__file__).parents[1]), os.environ.get("PYTHONPATH")])
)


def _report(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:02d} ({name}): {status} {detail}")


def test_criterion_01_monomial_identity():
    report = run_monomial(trials=50, seed=SEED, tolerance=1e-12)
    _report(1, "monomial identity", report.passed,
            f"max_residual={report.max_residual:.3e} tol=1e-12")
    assert report.passed


def test_criterion_02_douglas_identity():
    report = run_douglas(trials=200, seed=SEED)
    _report(2, "local decomposition identity", report.passed,
            f"max_residual={report.max_residual:.3e} tol=1e-6 (1e-3 at n=1)")
    assert report.passed


def test_criterion_03_lift_isometry():
    report = run_tmap(trials=100, seed=SEED, tolerance=1e-6)
    _report(3, "Bergman lift isometry", report.passed,
            f"max_residual={report.max_residual:.3e} tol=1e-6")
    assert report.passed


def test_criterion_04_kernel_consistency():
    report = run_kernel(trials=25, seed=SEED, tolerance=1e-10)
    _report(4, "kernel closed form vs expansion", report.passed,
            f"max_residual={report.max_residual:.3e} tol=1e-10")
    assert report.passed


def test_criterion_05_szego_energies():
    report = run_szego(seed=SEED, tolerance=1e-4)
    _report(5, "Szego energies vs quadrature and series", report.passed,
            f"max_residual={report.max_residual:.3e} tol=1e-4/1e-10")
    assert report.passed


def test_criterion_06_dilation_bound():
    report = run_dilation(trials=500, seed=SEED, tolerance=1e-9)
    _report(6, "dilation bound and factor<=1 grid", report.passed,
            f"max_residual={report.max_residual:.3e} tol=1e-9")
    assert report.passed


def test_criterion_07_shift_seminorm_inequality():
    report = run_shiftineq(trials=500, seed=SEED, tolerance=1e-9)
    _report(7, "shift seminorm inequality", report.passed,
            f"max_residual={report.max_residual:.3e} tol=1e-9")
    assert report.passed


def test_criterion_08_atomic_round_trip():
    report = run_atomic(trials=100, seed=SEED, tolerance=1e-10)
    _report(8, "atomic decomposition round-trip", report.passed,
            f"max_residual={report.max_residual:.3e} tol=1e-10")
    assert report.passed


def test_criterion_09_multiplier_inequalities():
    """Product and boundary bounds with a certified multiplier norm.

    The quotient (f - f*(lam))/(z - lam) has full order-(n-1) norm
    sum_{k<=n} D_k(f), so the bounds use that sum and the multiplier norm.
    The seminorm form is false for n >= 2: the quotient can sit almost
    entirely in the kernel of the order-(n-1) seminorm, where no finite
    multiplier seminorm controls the product (see
    test_dirichlet.py::test_multiplier_inequality_counterexample).  Any
    violation found is reported with its trial record.
    """
    report = run_multiplier(trials=200, seed=SEED, tolerance=1e-9)
    detail = f"max_residual={report.max_residual:.3e} tol=1e-9"
    if report.failures:
        worst = max(report.failures, key=lambda f: f.gap)
        detail += (
            f" counterexample: {worst.record} observed={worst.observed:.4f}"
            f" bound={worst.expected:.4f}"
        )
    _report(9, "multiplier inequalities", report.passed, detail)
    assert report.passed


def test_criterion_10_operator_lab():
    isometry = run_isometry(trials=100, seed=SEED, tolerance=1e-8)
    membership = run_vsubspace(trials=100, seed=SEED)
    ok = isometry.passed and membership.passed
    _report(10, "shift defect identities", ok,
            f"isometry max_residual={isometry.max_residual:.3e} tol=1e-8; "
            f"membership consistent on {membership.trials} trials")
    assert isometry.passed
    assert membership.passed


def test_criterion_11_quadrature_self_test():
    spec = QuadratureSpec(radial=96, angular=64)
    worst = 0.0
    for a in range(13):
        for b in range(13):
            value, _ = integrate_disc(
                lambda z: z**a * np.conj(z) ** b, spec, clip=2.0**-6, levels=10
            )
            expected = 1.0 / (a + 1) if a == b else 0.0
            worst = max(worst, abs(value - expected))
    ok = worst <= 1e-12
    _report(11, "monomial quadrature self-test", ok,
            f"worst_abs_err={worst:.3e} tol=1e-12")
    assert ok


def test_criterion_12_report_determinism(tmp_path):
    outputs = []
    codes = []
    for name in ("first.json", "second.json"):
        out = tmp_path / name
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "dirikit",
                "verify",
                "all",
                "--seed",
                "42",
                "--out",
                str(out),
            ],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": CHILD_PATH},
        )
        codes.append(result.returncode)
        outputs.append(out.read_bytes())
    golden = outputs[0] == GOLDEN_REPORT.read_bytes()
    ok = outputs[0] == outputs[1] and codes[0] == codes[1] and golden
    _report(12, "byte-identical verify-all reports", ok,
            f"{len(outputs[0])} bytes, exit={codes[0]}, golden={golden}")
    assert ok

"""Byte-for-byte pins of the gram, defects, eval and decompose reports.

Each case runs one command on the inputs in ``tests/data`` and compares
the report file with the golden one next to them, so a change that moves
any byte of these reports fails here.  ``verify all --seed 42`` is pinned
by criterion 12 in ``test_acceptance.py``.  The ``douglas`` and ``tmap``
cases run with ``--tol -1``, so every trial fails and the report lists
each observed and expected value; they exit 1.  So do the ``szego`` and
``monomial`` cases, which pin every value those suites compute, and the
``dilation``, ``multiplier``, ``isometry``, ``vsubspace`` and
``shiftineq`` cases, which pin every value of their exact-route
integrals, and the ``kernel`` cases, which pin the gap of every closed-form
kernel value from its exact series and of every reproducing check, at the
default orders and at orders 60, 91 and 95, and the ``atomic`` case,
which pins the residual of every decomposition round trip.
"""

from pathlib import Path

import pytest

from dirikit.cli import main

DATA = Path(__file__).parent / "data"
F12 = str(DATA / "golden-f12.json")
MEASURE = str(DATA / "golden-measure.json")
TUPLE3 = str(DATA / "golden-tuple3.json")
F16 = str(DATA / "golden-f16.json")
MEASURE8 = str(DATA / "golden-measure8.json")
TRUNCATION60 = str(DATA / "golden-truncation60.json")
MEASURE2 = str(DATA / "golden-measure2.json")

CASES = {
    "golden-gram-deg24.csv": ["gram", "--measures", TUPLE3, "--degree", "24"],
    "golden-defects.json": [
        "defects", "--function", F12, "--measures", TUPLE3, "--max-order", "4",
    ],
    "golden-eval-exact.json": [
        "eval", "--function", F12, "--measure", MEASURE, "--n", "2",
    ],
    "golden-eval-quadrature.json": [
        "eval", "--function", F12, "--measure", MEASURE, "--n", "2",
        "--force-quadrature",
    ],
    # eight atoms plus arc length on the degree-16 grids, as quad-atoms runs
    "golden-eval-quadrature-f16-n1.json": [
        "eval", "--function", F16, "--measure", MEASURE8, "--n", "1",
        "--force-quadrature",
    ],
    "golden-eval-quadrature-f16-n4.json": [
        "eval", "--function", F16, "--measure", MEASURE8, "--n", "4",
        "--force-quadrature",
    ],
    # a truncation takes the default grid
    "golden-eval-quadrature-truncation60.json": [
        "eval", "--function", TRUNCATION60, "--measure", MEASURE2, "--n", "2",
        "--force-quadrature",
    ],
    "golden-decompose.json": [
        "decompose", "--function", F12, "--atom", "2.2", "--n", "3",
    ],
    "golden-verify-douglas.json": [
        "verify", "douglas", "--trials", "40", "--seed", "7", "--tol", "-1",
        "--quad", "32,64",
    ],
    "golden-verify-tmap.json": [
        "verify", "tmap", "--trials", "24", "--seed", "5", "--tol", "-1",
        "--quad", "32,64",
    ],
    "golden-verify-szego.json": ["verify", "szego", "--seed", "0", "--tol", "-1"],
    "golden-verify-monomial.json": [
        "verify", "monomial", "--trials", "6", "--n", "3", "--tol", "-1",
        "--seed", "42",
    ],
    "golden-verify-dilation.json": [
        "verify", "dilation", "--trials", "40", "--seed", "3", "--tol", "-1",
    ],
    "golden-verify-multiplier.json": [
        "verify", "multiplier", "--trials", "40", "--seed", "3", "--tol", "-1",
    ],
    "golden-verify-isometry.json": [
        "verify", "isometry", "--trials", "30", "--seed", "3", "--tol", "-1",
    ],
    "golden-verify-vsubspace.json": [
        "verify", "vsubspace", "--trials", "30", "--seed", "3", "--tol", "-1",
    ],
    "golden-verify-shiftineq.json": [
        "verify", "shiftineq", "--trials", "45", "--seed", "3", "--tol", "-1",
    ],
    "golden-verify-atomic.json": ["verify", "atomic", "--tol", "-1"],
    "golden-verify-kernel.json": [
        "verify", "kernel", "--trials", "5", "--seed", "3", "--tol", "-1",
    ],
    # series of up to 455 terms; order 95's closed form overflows on the
    # grid's diagonal, so its report carries "inf" and "nan" gaps
    **{
        f"golden-verify-kernel-n{n}.json": [
            "verify", "kernel", "--n", str(n), "--trials", "2", "--seed", "3",
            "--tol", "-1",
        ]
        for n in (60, 91, 95)
    },
}
#: Cases whose reports list failures on purpose.
EXIT = {
    "golden-verify-douglas.json": 1,
    "golden-verify-tmap.json": 1,
    "golden-verify-szego.json": 1,
    "golden-verify-monomial.json": 1,
    "golden-verify-dilation.json": 1,
    "golden-verify-multiplier.json": 1,
    "golden-verify-isometry.json": 1,
    "golden-verify-vsubspace.json": 1,
    "golden-verify-shiftineq.json": 1,
    "golden-verify-atomic.json": 1,
    "golden-verify-kernel.json": 1,
    "golden-verify-kernel-n60.json": 1,
    "golden-verify-kernel-n91.json": 1,
    "golden-verify-kernel-n95.json": 1,
}


@pytest.mark.parametrize("golden", sorted(CASES))
def test_report_matches_golden(golden, tmp_path):
    out = tmp_path / golden
    assert main(CASES[golden] + ["--out", str(out)]) == EXIT.get(golden, 0)
    assert out.read_bytes() == (DATA / golden).read_bytes()

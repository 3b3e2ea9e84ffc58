"""Make-up of the three workloads, as plain data.

Every input is a pure function of the workload seed and is built with
numpy alone, without importing dirikit.  run.py builds it, evaluates the
oracle on it, and hands both to the worker in one JSON file, where
complex numbers are written by ``encode_complex`` and read back by
``decode_complex``.  A function is a list of complex Taylor
coefficients; a measure is a list of (angle, mass) atoms plus an
arc-length mass.

The shape of an operation (degrees, atom counts, orders, sizes) never
depends on the seed, so every run of a workload does the same amount of
work; the seed moves only coefficients, atom positions, masses and, on
``verify-all``, the order of the verify seeds in a round.
"""

from __future__ import annotations

import math

import numpy as np

WORKLOADS = ("verify-all", "quad-atoms", "exact-tuple")

#: Verify seeds on which every suite passes; one round runs each once.
VERIFY_SEEDS = (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 42, 2026)
#: The warm-up call of ``verify-all``; fixed so set-up time has one shape.
VERIFY_WARMUP_SEED = 42

ORDERS = (1, 2, 3, 4)
#: Atom counts of the multi-atom integrals (each plus arc length).
ATOM_COUNTS = (1, 4, 8)
#: Degree of the exact polynomials of both integral bundles.
POLY_DEGREE = 16
#: Degree of the Szego truncations, as in the ``szego`` suite.
TRUNCATION_DEGREE = 60
TRUNCATION_ATOMS = 2

#: Exact-route bundle of ``exact-tuple``.
WEIGHTED_COPIES = 4
GRAM_DEGREE = 64
GRAM_TUPLES = 3
GRAM_VECTORS = 2
#: Atom counts and arc-length presence of the three tuple entries.
TUPLE_SHAPE = ((2, True), (3, False), (1, True))
DEFECT_FUNCTIONS = 4
DEFECT_DEGREE = 12
DEFECT_MAX_ORDER = len(TUPLE_SHAPE) + 1
MULTIPLIER_DEGREE = 6
MULTIPLIER_ORDERS = (0, 1, 2, 3)
MULTIPLIER_COPIES = 2
#: Polynomials f whose ratio ||phi f|| / ||f|| bounds the multiplier norm.
MULTIPLIER_SAMPLES = 3
MULTIPLIER_SAMPLE_DEGREE = 20


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def _poly(rng: np.random.Generator, degree: int) -> list[complex]:
    re = rng.uniform(-1.0, 1.0, degree + 1)
    im = rng.uniform(-1.0, 1.0, degree + 1)
    return [complex(a, b) for a, b in zip(re, im)]


def _measure(rng: np.random.Generator, atoms: int, arc: bool) -> dict:
    # jittered even spacing keeps the atoms pairwise distinct
    angles = [
        2.0 * math.pi * (i + 0.8 * float(rng.uniform())) / atoms
        for i in range(atoms)
    ]
    masses = [float(rng.uniform(0.2, 2.0)) for _ in range(atoms)]
    lebesgue = float(rng.uniform(0.2, 2.0)) if arc else 0.0
    return {"atoms": list(zip(angles, masses)), "lebesgue": lebesgue}


def quad_atoms(seed: int) -> dict:
    """Sixteen quadrature-route integrals at orders 1-4.

    The first twelve are degree-16 exact polynomials against 1, 4 and 8
    atoms plus arc length, with ``force_quadrature``.  The last four are
    degree-60 Szego truncations 1/(1 - z conj(w)) at |w| in [0.3, 0.6]
    against two atoms plus arc length; being inexact they take the
    quadrature route for the atoms without forcing, and the series route
    for the arc length.
    """
    rng = _rng(seed, "quad-atoms")
    forced = [
        {
            "coeffs": _poly(rng, POLY_DEGREE),
            "measure": _measure(rng, atoms, True),
            "order": n,
            "force": True,
        }
        for n in ORDERS
        for atoms in ATOM_COUNTS
    ]
    truncated = []
    for n in ORDERS:
        w = float(rng.uniform(0.3, 0.6)) * complex(
            np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        )
        coeffs = np.conj(w) ** np.arange(TRUNCATION_DEGREE + 1)
        truncated.append(
            {
                "coeffs": [complex(c) for c in coeffs],
                "exact": False,
                "measure": _measure(rng, TRUNCATION_ATOMS, True),
                "order": n,
                "force": False,
            }
        )
    return {"integrals": forced + truncated}


def predicted_calls_per_integral(makeup: dict) -> float:
    """Energy calls per quadrature-route integral the program makes today.

    One call per atom, plus one for the arc-length part of a forced
    integral (an unforced one sums its arc-length part as a series).
    """
    integrals = makeup["integrals"]
    calls = sum(
        len(it["measure"]["atoms"])
        + (1 if it["force"] and it["measure"]["lebesgue"] > 0 else 0)
        for it in integrals
    )
    return calls / len(integrals)


def exact_tuple(seed: int) -> dict:
    """Exact-route bundle: weighted integrals, Gram sections, defects, bounds."""
    rng = _rng(seed, "exact-tuple")
    weighted = [
        {
            "coeffs": _poly(rng, POLY_DEGREE),
            "measure": _measure(rng, atoms, True),
            "order": n,
        }
        for _ in range(WEIGHTED_COPIES)
        for n in ORDERS
        for atoms in ATOM_COUNTS
    ]

    def measure_tuple() -> list[dict]:
        return [_measure(rng, atoms, arc) for atoms, arc in TUPLE_SHAPE]

    grams = [
        {
            "tuple": measure_tuple(),
            "degree": GRAM_DEGREE,
            "vectors": [_poly(rng, GRAM_DEGREE) for _ in range(GRAM_VECTORS)],
        }
        for _ in range(GRAM_TUPLES)
    ]
    defects = [
        {
            "coeffs": _poly(rng, DEFECT_DEGREE),
            "tuple": measure_tuple(),
            "max_order": DEFECT_MAX_ORDER,
        }
        for _ in range(DEFECT_FUNCTIONS)
    ]
    multipliers = [
        {
            "phi": _poly(rng, MULTIPLIER_DEGREE),
            "order": j,
            # the section run_multiplier uses: doubled, past deg(phi) + order
            "section": 2 * (j + MULTIPLIER_DEGREE + 16),
            "samples": [
                _poly(rng, MULTIPLIER_SAMPLE_DEGREE)
                for _ in range(MULTIPLIER_SAMPLES)
            ],
        }
        for _ in range(MULTIPLIER_COPIES)
        for j in MULTIPLIER_ORDERS
    ]
    return {
        "weighted": weighted,
        "grams": grams,
        "defects": defects,
        "multipliers": multipliers,
    }


def verify_all(seed: int) -> dict:
    """One round: every verify seed once, in an order drawn from the seed."""
    order = _rng(seed, "verify-all").permutation(len(VERIFY_SEEDS))
    return {
        "round": [VERIFY_SEEDS[i] for i in order],
        "warmup": VERIFY_WARMUP_SEED,
    }


MAKEUP = {
    "verify-all": verify_all,
    "quad-atoms": quad_atoms,
    "exact-tuple": exact_tuple,
}


def encode_complex(value):
    """``json.dumps`` default: a complex number as {"re": ..., "im": ...}."""
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def decode_complex(obj: dict):
    """``json.loads`` object hook that undoes ``encode_complex``."""
    return complex(obj["re"], obj["im"]) if obj.keys() == {"re", "im"} else obj

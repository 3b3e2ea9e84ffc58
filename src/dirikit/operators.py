"""Finite-section experiments on the shift operator.

The tuple norm ||f||^2 = ||f||_H2^2 + sum_j D_j(f) (order-j integral
against the j-th measure) makes multiplication by z an (m+1)-isometry for
an m-tuple; everything here probes that structure through monomial Gram
sections and forward differences of ||z^k f||^2.  All inner products come
from exact coefficient combinatorics; no quadrature enters this module.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .dirichlet import (
    _binomial_row,
    dirichlet_atomic_order_zero,
    dirichlet_sigma,
    dirichlet_weighted,
)
from .functions import AnalyticFunction, multiply
from .measures import CircleMeasure, MeasureTuple

logger = logging.getLogger(__name__)

#: Below this, a defect or an order-zero integral counts as vanishing.
VANISHING_TOLERANCE = 1e-9


@dataclass(frozen=True)
class GramSection:
    """Hermitian matrix of monomial inner products in the tuple norm."""

    measures: MeasureTuple
    degree: int
    matrix: np.ndarray

    def to_csv_rows(self) -> list[list[str]]:
        header = [str(k) for k in range(self.degree + 1)]
        rows = [header]
        for row in self.matrix:
            rows.append(
                [f"{v.real:.17g}{v.imag:+.17g}j" for v in row]
            )
        return rows


@dataclass(frozen=True)
class DefectReport:
    """Norms beta_k = ||z^k f||^2 and their forward differences."""

    beta: list[float]
    differences: dict[int, list[float]]

    def to_json(self) -> dict:
        return {
            "beta": self.beta,
            "differences": {
                str(p): seq for p, seq in sorted(self.differences.items())
            },
        }


@dataclass(frozen=True)
class DefectKernelCheck:
    """Second defect difference next to the order-zero atomic integral."""

    defect2: float
    order_zero: float
    consistent: bool


def tuple_norm_sq(f: AnalyticFunction, measures: MeasureTuple) -> float:
    """Squared tuple norm: Hardy part plus the order-j weighted integrals."""
    if not f.exact:
        raise ValueError("tuple norms are defined for exact polynomials only")
    total = dirichlet_sigma(f, 0).value
    for j, measure in enumerate(measures.entries, start=1):
        if measure.total_mass == 0:
            continue
        total += dirichlet_weighted(f, measure, j).value
    return total


def _atom_pair_matrix(angle: float, order: int, degree: int) -> np.ndarray:
    """Polarized atom inner products of monomials via the quotient path.

    The monomial z^k splits at the atom as lam^k + (z - lam) g_k with
    g_k = sum_{t<k} lam^(k-1-t) z^t, and the pairing of z^j with z^k is
    the order-(n-1) arc-length pairing of g_j with g_k.
    """
    lam = complex(np.exp(1j * angle))
    powers = lam ** np.arange(degree)
    exponents = np.arange(degree + 1)[:, None] - 1 - np.arange(degree)
    basis = np.where(exponents >= 0, powers[np.maximum(exponents, 0)], 0)
    weights = _binomial_row(order - 1, degree)
    return (basis * weights) @ basis.conj().T


def gram_section(measures: MeasureTuple, degree: int) -> GramSection:
    """Exact-path Gram matrix of 1, z, ..., z^degree in the tuple norm.

    Entry [j, k] is <z^j, z^k>, linear in the first slot, so
    ||sum a_k z^k||^2 = sum_{j,k} a_j G[j, k] conj(a_k), that is
    a^T G conj(a) and not a^H G a.
    """
    if degree < 1:
        raise ValueError("section degree must be positive")
    size = degree + 1
    matrix = np.eye(size, dtype=complex)
    for j, measure in enumerate(measures.entries, start=1):
        if measure.lebesgue > 0:
            matrix += measure.lebesgue * np.diag(_binomial_row(j, size))
        for atom in measure.atoms:
            matrix += atom.mass * _atom_pair_matrix(atom.angle, j, degree)
    return GramSection(measures, degree, matrix)


def _shift(f: AnalyticFunction, k: int) -> AnalyticFunction:
    if k == 0:
        return f
    return multiply(
        f,
        AnalyticFunction.monomial(k),
        max_degree=f.degree + k,
    )


def forward_differences(beta: list[float], order: int) -> list[float]:
    """Order-th forward difference sequence of beta."""
    signs = [(-1) ** (order - q) * math.comb(order, q) for q in range(order + 1)]
    return [
        float(sum(s * beta[k + q] for q, s in enumerate(signs)))
        for k in range(len(beta) - order)
    ]


def defect_sequence(
    f: AnalyticFunction, measures: MeasureTuple, max_order: int
) -> DefectReport:
    """Norms of z^k f for k = 0..max_order and all forward differences.

    For a length-m tuple of atomic or arc-length measures, beta_k is a
    polynomial of degree at most m in k, so the (m+1)-th differences
    vanish; the gap from zero measures how exactly the shift realizes the
    (m+1)-isometry identity.
    """
    if max_order < 1:
        raise ValueError("max_order must be positive")
    beta = [tuple_norm_sq(_shift(f, k), measures) for k in range(max_order + 1)]
    differences = {
        p: forward_differences(beta, p) for p in range(1, max_order + 1)
    }
    return DefectReport(beta, differences)


def defect_kernel_check(
    f: AnalyticFunction,
    base_measure: CircleMeasure,
    atomic_measure: CircleMeasure,
) -> DefectKernelCheck:
    """Compare the second shift defect with the order-zero atomic integral.

    For the tuple (base, atomic) the second difference of ||z^k f||^2 at
    k = 0 vanishes exactly when every boundary value of f at the atoms
    does, i.e. when the order-zero integral against the atomic part is
    zero.  The check asserts only that iff-zero equivalence.
    """
    if not atomic_measure.is_atomic:
        raise ValueError("second tuple entry must be purely atomic")
    report = defect_sequence(f, MeasureTuple((base_measure, atomic_measure)), 2)
    defect2 = report.differences[2][0]
    order_zero = dirichlet_atomic_order_zero(f, atomic_measure).value
    consistent = (defect2 <= VANISHING_TOLERANCE) == (
        order_zero <= VANISHING_TOLERANCE
    )
    if consistent and abs(defect2 - order_zero) <= VANISHING_TOLERANCE:
        # numeric equality of the two quantities is an observation, not an
        # identity this package asserts
        logger.debug(
            "defect2 and order-zero integral agree numerically: %.3e", defect2
        )
    return DefectKernelCheck(defect2, order_zero, consistent)

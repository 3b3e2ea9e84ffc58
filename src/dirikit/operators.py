"""Finite-section experiments on the shift operator.

The tuple norm ||f||^2 = ||f||_H2^2 + sum_j D_j(f) (order-j integral
against the j-th measure) makes multiplication by z an (m+1)-isometry for
an m-tuple; everything here probes that structure through monomial Gram
sections and forward differences of ||z^k f||^2.  All inner products come
from exact coefficient combinatorics; no quadrature enters this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dirichlet import _binomial_row, _exact_values
from .functions import AnalyticFunction, multiply
from .measures import Arc, CircleMeasure, MeasureTuple

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
    (total,) = _tuple_norms([(f, measures)])
    return total


def _tuple_norms(pairs) -> list[float]:
    """Squared tuple norms of (exact polynomial, measure tuple) pairs.

    One :func:`_exact_values` call gives every Hardy part, the order-0
    integral against arc length, and every order-j integral against the
    j-th entry of the pair's own tuple; that route bounds its own blocks.
    Each norm adds them in entry order, as :func:`tuple_norm_sq` of that
    pair alone does.
    """
    if not all(f.exact for f, _ in pairs):
        raise ValueError("tuple norms are defined for exact polynomials only")
    arc = CircleMeasure.arc_length()
    values = iter(_exact_values([
        (f, measure, j) for f, measures in pairs
        for j, measure in enumerate((arc, *measures.entries))
    ]))
    totals = []
    for _, measures in pairs:
        total = next(values)[0]
        for _ in measures.entries:
            total += next(values)[0]
        totals.append(total)
    return totals


def _atom_pair_matrix(lam: complex, order: int, degree: int) -> np.ndarray:
    """Polarized atom inner products of monomials via the quotient path.

    ``lam`` is the atom's :attr:`Atom.point`.  The monomial z^k splits
    at the atom as lam^k + (z - lam) g_k with g_k = sum_{t<k}
    lam^(k-1-t) z^t, and the pairing of z^j with z^k is the order-(n-1)
    arc-length pairing of g_j with g_k.
    """
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
        for part in measure.parts:
            if isinstance(part, Arc):
                matrix += part.mass * np.diag(_binomial_row(j, size))
            else:
                matrix += part.mass * _atom_pair_matrix(part.point, j, degree)
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
    (m+1)-isometry identity.  This is the one-item case of
    :func:`_defect_sequences`.
    """
    (report,) = _defect_sequences([(f, measures, max_order)])
    return report


def _defect_sequences(items) -> list[DefectReport]:
    """:func:`defect_sequence` of each (f, measures, max_order) item.

    The norms of every shift z^k f of every item come from one
    :func:`_tuple_norms` call, so the items may hold different tuples.
    """
    if any(max_order < 1 for _, _, max_order in items):
        raise ValueError("max_order must be positive")
    norms = iter(_tuple_norms([
        (_shift(f, k), measures)
        for f, measures, max_order in items for k in range(max_order + 1)
    ]))
    reports = []
    for _, _, max_order in items:
        beta = [next(norms) for _ in range(max_order + 1)]
        differences = {
            p: forward_differences(beta, p) for p in range(1, max_order + 1)
        }
        reports.append(DefectReport(beta, differences))
    return reports


def defect_kernel_check(
    f: AnalyticFunction,
    base_measure: CircleMeasure,
    atomic_measure: CircleMeasure,
) -> DefectKernelCheck:
    """Compare the second shift defect with the order-zero atomic integral.

    For the tuple (base, atomic) the second difference of ||z^k f||^2 at
    k = 0 vanishes exactly when every boundary value of f at the atoms
    does, i.e. when the order-zero integral against the atomic part is
    zero.  The check asserts only that iff-zero equivalence.  This is the
    one-item case of :func:`_defect_kernel_checks`.
    """
    (check,) = _defect_kernel_checks([(f, base_measure, atomic_measure)])
    return check


def _defect_kernel_checks(items) -> list[DefectKernelCheck]:
    """:func:`defect_kernel_check` of each (f, base, atomic) item, with
    the defects of all items from one :func:`_defect_sequences` call and
    their order-zero integrals from one :func:`_exact_values` call."""
    if not all(atomic.is_atomic for _, _, atomic in items):
        raise ValueError("second tuple entry must be purely atomic")
    reports = _defect_sequences([
        (f, MeasureTuple((base, atomic)), 2) for f, base, atomic in items
    ])
    zeros = _exact_values([(f, atomic, 0) for f, _, atomic in items])
    checks = []
    for report, (order_zero, _) in zip(reports, zeros):
        defect2 = report.differences[2][0]
        consistent = (defect2 <= VANISHING_TOLERANCE) == (
            order_zero <= VANISHING_TOLERANCE
        )
        checks.append(DefectKernelCheck(defect2, order_zero, consistent))
    return checks

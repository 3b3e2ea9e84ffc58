"""Finite-section experiments on the shift operator.

The tuple norm ||f||^2 = ||f||_H2^2 + sum_j D_j(f) (order-j integral
against the j-th measure) makes multiplication by z an (m+1)-isometry for
an m-tuple; everything here probes that structure through monomial Gram
sections and forward differences of ||z^k f||^2.  All inner products come
from exact coefficient combinatorics; no quadrature enters this module.

The Gram section G[j, k] = <z^j, z^k> is linear in j.  Its Hardy part is
the identity.  Against arc length the order-n integral pairs z^j with
z^k by binom(k, n) on the diagonal alone.  At an atom lam the local
Douglas formula pairs z^j with z^k through the quotients
g_j = (z^j - lam^j) / (z - lam) = sum_{t<j} lam^(j-1-t) z^t, one order
down against arc length:

    sum_{t < min(j, k)} lam^(j-1-t) conj(lam)^(k-1-t) binom(t, n-1)
        = lam^(j-k) binom(min(j, k), n),

since |lam| = 1 and, by the hockey-stick identity,
sum_{t < s} binom(t, n-1) = binom(s, n).  Arc length is the same form
with the moments of the point 0.  So tuple entry n adds B_n * T(h)
entry by entry: B_n[j, k] = binom(min(j, k), n), and T(h) is the
Hermitian Toeplitz matrix of the entry's moments h_d = sum over its
parts of mass * point^d (d >= 0), h_(j-k) on and below the diagonal and
conj(h_(k-j)) above it.  That is one moment vector and one product of
(degree+1)^2 entries per tuple entry, whatever the number of atoms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dirichlet import _binomial_row, _exact_values
from .functions import AnalyticFunction
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
    """Squared tuple norm: Hardy part plus the order-j weighted integrals.

    One :func:`_exact_values` call gives the Hardy part, the order-0
    integral against arc length, and the order-j integral against the
    j-th entry; the norm adds them in entry order.
    """
    if not f.exact:
        raise ValueError("tuple norms are defined for exact polynomials only")
    entries = (CircleMeasure.arc_length(), *measures.entries)
    return sum(value for value, _ in _exact_values(
        [(f, measure, j) for j, measure in enumerate(entries)]
    ))


def _moments(measure: CircleMeasure, size: int) -> np.ndarray:
    """Moments h_d = sum of mass * point^d over the parts, d < ``size``.

    Row p of one table is part p's mass times the powers of its
    :attr:`Atom.point`, by one running product along the row.  An entry
    [j, k] reads one power, d = |j - k|, so its rounding error grows with
    |j - k| and not with j + k, as a product of two powers lam^j
    conj(lam)^k would.  Arc length is the point 0, whose powers are e_0.
    The rows are added in part order.
    """
    heads = np.array([(part.mass, 0.0 if isinstance(part, Arc) else part.point)
                      for part in measure.parts], dtype=complex).reshape(-1, 2)
    table = np.empty((len(heads), size), dtype=complex)
    table[:, :1] = heads[:, :1]
    table[:, 1:] = heads[:, 1:]
    np.multiply.accumulate(table, axis=1, out=table)
    return table.sum(axis=0)


def gram_section(measures: MeasureTuple, degree: int) -> GramSection:
    """Exact-path Gram matrix of 1, z, ..., z^degree in the tuple norm.

    Entry [j, k] is <z^j, z^k>, linear in the first slot, so
    ||sum a_k z^k||^2 = sum_{j,k} a_j G[j, k] conj(a_k), that is
    a^T G conj(a) and not a^H G a.  The Hardy part is the identity, and
    tuple entry n adds B_n * T(h), entry by entry: B_n[j, k] =
    binom(min(j, k), n) and T(h) the Hermitian Toeplitz matrix of the
    entry's moments (:func:`_moments`), h_(j-k) on and below the
    diagonal and conj(h_(k-j)) above it; the module docstring derives it.
    """
    if degree < 1:
        raise ValueError("section degree must be positive")
    size = degree + 1
    matrix = np.eye(size, dtype=complex)
    for n, measure in enumerate(measures.entries, start=1):
        moments = _moments(measure, size)
        # line[degree + d] = h_d for |d| <= degree, with h_(-d) = conj(h_d)
        line = np.concatenate((moments[:0:-1].conj(), moments))
        # a view of line with entry [j, k] at line[degree + j - k]
        step = line.itemsize
        toeplitz = np.ndarray((size, size), complex, line, degree * step, (step, -step))
        # B_n vanishes where min(j, k) < n, and those entries are left
        # alone: an infinite moment times 0 would make them NaN.  From n
        # on, binom(t, n) is increasing in t, so the smaller of two rows'
        # binomials is the one at min(j, k).
        row = _binomial_row(n, size)[n:]
        matrix[n:, n:] += np.minimum.outer(row, row) * toeplitz[n:, n:]
    return GramSection(measures, degree, matrix)


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
    (m+1)-isometry identity.  Every beta_k is a quadratic form on one
    Gram section of degree deg f + max_order: with c the coefficients of
    f and L = deg f + 1, beta_k = c^T G[k:k+L, k:k+L] conj(c), the real
    part of the form on the diagonal block at k.  A beta_k beyond the
    float range raises ``OverflowError`` naming k.
    """
    if max_order < 1:
        raise ValueError("max_order must be positive")
    if not f.exact:
        raise ValueError("defect sequences are defined for exact polynomials only")
    size = f.degree + 1
    # one errstate for the section and its forms, whose overflows raise by name
    with np.errstate(over="ignore", invalid="ignore"):
        matrix = gram_section(measures, f.degree + max_order).matrix
        beta = [
            float((matrix[k:k + size, k:k + size] @ f.coeffs.conj() @ f.coeffs).real)
            for k in range(max_order + 1)
        ]
    for k, value in enumerate(beta):
        if not math.isfinite(value):
            raise OverflowError(
                f"overflow: beta_{k} = ||z^{k} f||^2 exceeds the float range"
            )
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
    zero.  The check asserts only that iff-zero equivalence.  This is the
    one-item case of :func:`_defect_kernel_checks`.
    """
    (check,) = _defect_kernel_checks([(f, base_measure, atomic_measure)])
    return check


def _defect_kernel_checks(items) -> list[DefectKernelCheck]:
    """:func:`defect_kernel_check` of each (f, base, atomic) item, with
    one :func:`defect_sequence` per item and the order-zero integrals of
    all items from one :func:`_exact_values` call."""
    if not all(atomic.is_atomic for _, _, atomic in items):
        raise ValueError("second tuple entry must be purely atomic")
    zeros = _exact_values([(f, atomic, 0) for f, _, atomic in items])
    checks = []
    for (f, base, atomic), (order_zero, _) in zip(items, zeros):
        report = defect_sequence(f, MeasureTuple((base, atomic)), 2)
        defect2 = report.differences[2][0]
        consistent = (defect2 <= VANISHING_TOLERANCE) == (
            order_zero <= VANISHING_TOLERANCE
        )
        checks.append(DefectKernelCheck(defect2, order_zero, consistent))
    return checks

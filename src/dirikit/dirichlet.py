"""Weighted Dirichlet-type integrals of analytic functions on the disc.

The order-n integral of f against a circle measure weights |f^(n)|^2 by
the measure's Poisson integral times (1 - |z|^2)^(n-1), normalized by
1/(n! (n-1)!).  Two independent routes compute it:

* series / decomposition: against arc length the integral is the
  coefficient sum of binom(k, n) |a_k|^2; against an atom it equals the
  order-(n-1) arc-length integral of the quotient (f - f*(lam))/(z - lam),
  so exact polynomials reduce to pure coefficient combinatorics;
* quadrature: sample f^(n) on a disc grid and integrate against the
  weight numerically.

Keeping both routes honest and comparing them is the package's whole
point; nothing here ever feeds one route's result into the other.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .functions import (
    AnalyticFunction,
    BoundaryStatus,
    _divide_by_roots,
    boundary_value,
    derivative,
    divide_by_root,
    evaluate,
    times_linear,
)
from .measures import CircleMeasure
from .measures import szego_potential as _szego_potential
from .quadrature import QuadratureSpec, poisson_weighted_energy


class BoundaryDivergenceError(ArithmeticError):
    """A required boundary value does not exist for this function."""


@dataclass(frozen=True)
class DirichletResult:
    """Value of a weighted Dirichlet-type integral with provenance.

    ``spec`` is the grid of the quadrature route, ``None`` when no part
    was integrated numerically.
    """

    value: float
    method: str  # "series" | "decomposition" | "quadrature"
    error_estimate: float
    order: int
    spec: QuadratureSpec | None = None

    def to_json(self) -> dict:
        payload = {
            "value": self.value,
            "method": self.method,
            "error": self.error_estimate,
            "order": self.order,
        }
        if self.spec is not None:
            payload["quad"] = self.spec.to_json()
        return payload


@dataclass(frozen=True)
class DouglasCertificate:
    """Decomposition f = alpha + (z - lam) g with both integral routes.

    ``lhs`` is the quadrature value of the local integral of f, ``rhs``
    the coefficient-series value for the quotient g one order down; the
    residual is their gap, and ``spec`` is the grid of the quadrature.
    """

    alpha: complex
    quotient: AnalyticFunction
    lhs: float
    rhs: float
    residual: float
    order: int
    lhs_error: float
    spec: QuadratureSpec

    def to_json(self) -> dict:
        return {
            "value": self.rhs,
            "method": "decomposition",
            "error": self.lhs_error,
            "order": self.order,
            "alpha": [self.alpha.real, self.alpha.imag],
            "g": self.quotient.to_json(),
            "lhs": self.lhs,
            "rhs": self.rhs,
            "residual": self.residual,
            "quad": self.spec.to_json(),
        }


@dataclass(frozen=True)
class AtomicDecomposition:
    """f = interpolant + quotient * prod(z - atom_j) with its residual."""

    interpolant: AnalyticFunction
    quotient: AnalyticFunction
    residual: float


@lru_cache(maxsize=256)
def _binomial_row(order: int, length: int) -> np.ndarray:
    """Read-only floats binom(k, order) for k < length, zero below order.

    Each entry is the integer rounded once, as ``int * float`` rounds it.
    """
    row = np.array([float(math.comb(k, order)) for k in range(length)])
    row.setflags(write=False)
    return row


def _sigma_sums(coeffs: np.ndarray, order: int) -> list[float]:
    """Coefficient series sum_k binom(k, order) |c_k|^2, one per column.

    Row k of ``coeffs`` holds c_k, a number or one per column.  The
    floats are those of a Python loop over ``abs(c) ** 2``: ``hypot``,
    then one ``pow`` (numpy's ``abs`` and ``square`` round differently),
    and the terms are added in index order (``add.accumulate``; ``sum``
    would add pairwise).  A square beyond the float range raises
    ``OverflowError``.
    """
    tail = coeffs[order:]
    if len(tail) == 0:
        return [0.0] * np.size(coeffs[0])
    weights = _binomial_row(order, len(coeffs))[order:]
    if tail.ndim > 1:
        weights = weights[:, None]
    with np.errstate(over="ignore"):
        squares = np.float_power(np.hypot(tail.real, tail.imag), 2.0)
        sums = np.add.accumulate(weights * squares)[-1:].ravel().tolist()
    # the weights are at least 1, so an infinite square makes its sum inf
    if math.inf in sums:
        rows = np.nonzero(np.isinf(squares))[0]
        if rows.size:
            raise OverflowError(
                f"overflow in the order-{order} coefficient series: "
                f"|c_{order + rows.min()}|^2 exceeds the float range"
            )
    return sums


def dirichlet_sigma(f: AnalyticFunction, order: int) -> DirichletResult:
    """Arc-length Dirichlet-type integral via the coefficient series.

    Order 0 is the squared Hardy norm; order n sums binom(k, n) |a_k|^2.
    Exact for the stored coefficients, so the error estimate is zero.
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    (total,) = _sigma_sums(f.coeffs, order)
    return DirichletResult(total, "series", 0.0, order)


def dirichlet_sigma_inner(
    f: AnalyticFunction, g: AnalyticFunction, order: int
) -> complex:
    """Polarized arc-length seminorm pairing sum binom(k, n) a_k conj(b_k)."""
    a, b = f.coeffs.tolist(), g.coeffs.tolist()
    total = 0.0 + 0.0j
    for k in range(order, min(len(a), len(b))):
        total += math.comb(k, order) * a[k] * b[k].conjugate()
    return total


def dirichlet_weighted(
    f: AnalyticFunction,
    measure: CircleMeasure,
    order: int,
    spec: QuadratureSpec | None = None,
    force_quadrature: bool = False,
) -> DirichletResult:
    """Weighted Dirichlet-type integral of positive order.

    The measure splits into its arc-length multiple and its atoms and the
    parts add up, arc length first.  Exact polynomials take the
    decomposition route, one division and one coefficient series for all
    atoms of the measure, and the coefficient series for the arc-length
    part.  Truncations integrate their atoms numerically, and
    ``force_quadrature`` integrates every part numerically; the numerical
    parts come from one ``poisson_weighted_energy`` call, on the grid
    :meth:`QuadratureSpec.choose` picks from ``spec``, the degree of f
    and the order.
    """
    if order < 1:
        raise ValueError(
            "order must be positive; use dirichlet_atomic_order_zero for order 0"
        )
    total = 0.0
    error = 0.0
    method = "series"
    if measure.lebesgue > 0 and not force_quadrature:
        total += measure.lebesgue * dirichlet_sigma(f, order).value
    if force_quadrature or not f.exact:
        # the parts left to quadrature share one sampling of f^(n)
        sampled = measure if force_quadrature else CircleMeasure(measure.atoms)
        if sampled.total_mass > 0:
            spec = QuadratureSpec.choose(spec, f.degree, order, f.exact)
            df = derivative(f, order)
            for value, est in poisson_weighted_energy(
                lambda z: evaluate(df, z), order, spec, sampled
            ):
                total += value
                error += est
            return DirichletResult(total, "quadrature", error, order, spec)
    elif measure.atoms:
        # the local Douglas formula at every atom at once: column j is the
        # quotient (f - f(lam_j)) / (z - lam_j), integrated one order down
        points = np.array([atom.point for atom in measure.atoms])
        # a lone atom steps on numpy scalars, about ten times faster than
        # on one-element arrays
        roots = points[0] if len(points) == 1 else points
        quotients, _ = _divide_by_roots(f, roots, evaluate(f, roots))
        values = _sigma_sums(quotients, order - 1)
        for atom, value in zip(measure.atoms, values):
            total += atom.mass * value
        method = "decomposition"
    return DirichletResult(total, method, error, order)


def dirichlet_atomic_order_zero(
    f: AnalyticFunction, measure: CircleMeasure
) -> DirichletResult:
    """Order-zero integral for a purely atomic measure.

    Equals the mass-weighted sum of squared boundary values over the
    atoms; a divergent boundary value at any atom makes it undefined.
    """
    if not measure.is_atomic:
        raise ValueError("order-zero path requires a purely atomic measure")
    total = 0.0
    for atom in measure.atoms:
        value, status = boundary_value(f, atom.point)
        if status is BoundaryStatus.DIVERGENT:
            raise BoundaryDivergenceError(
                "order-zero integral undefined: divergent boundary value "
                f"at angle {atom.angle:.6f}"
            )
        total += atom.mass * abs(value) ** 2
    return DirichletResult(total, "decomposition", 0.0, 0)


def douglas_decompose(
    f: AnalyticFunction,
    boundary_point: complex,
    order: int,
    spec: QuadratureSpec | None = None,
) -> DouglasCertificate:
    """Local decomposition f = alpha + (z - lam) g with a two-route check.

    alpha is the boundary value at lam, g the synthetic quotient; the
    certificate carries the quadrature value of the local integral of f
    (lhs, from :func:`dirichlet_weighted` with ``force_quadrature``) next
    to the coefficient series of g one order down (rhs).
    """
    if order < 1:
        raise ValueError("order must be a positive integer")
    lam = complex(boundary_point)
    alpha, status = boundary_value(f, lam)
    if status is BoundaryStatus.DIVERGENT:
        raise BoundaryDivergenceError(
            "no decomposition: divergent boundary value at this point"
        )
    quotient = divide_by_root(f, lam, alpha)
    lhs = dirichlet_weighted(
        f, CircleMeasure.point_mass(cmath.phase(lam)), order, spec,
        force_quadrature=True,
    )
    rhs = dirichlet_sigma(quotient, order - 1).value
    return DouglasCertificate(
        alpha=alpha,
        quotient=quotient,
        lhs=lhs.value,
        rhs=rhs,
        residual=abs(lhs.value - rhs),
        order=order,
        lhs_error=lhs.error_estimate,
        spec=lhs.spec,
    )


def bergman_lift(
    f: AnalyticFunction, boundary_point: complex, order: int
) -> AnalyticFunction:
    """Order-th derivative of (z - lam) f.

    This is the unitary carrying the order-(n-1) arc-length seminorm onto
    the weighted Bergman space of the local weight at lam.
    """
    return derivative(times_linear(f, complex(boundary_point)), order)


def dirichlet_kernel_value(
    z: complex, w: complex, order: int, terms: int
) -> tuple[complex, float]:
    """Partial sum of the order-j arc-length reproducing kernel.

    Sums binom(k, j)^-1 (z conj(w))^k for k = j .. j + terms - 1 and
    reports a geometric tail bound (the binomial weights are >= 1).
    """
    if terms < 1:
        raise ValueError("need at least one term")
    z, w = complex(z), complex(w)
    if abs(z) >= 1 or abs(w) >= 1:
        raise ValueError("kernel arguments must lie in the open disc")
    x = z * w.conjugate()
    total = 0.0 + 0.0j
    power = x**order
    for k in range(order, order + terms):
        total += power / math.comb(k, order)
        power *= x
    tail = abs(x) ** (order + terms) / (1.0 - abs(x))
    return total, tail


def dirichlet_kernel_section(
    w: complex, order: int, degree: int
) -> AnalyticFunction:
    """Coefficient vector of the kernel section K(., w) up to ``degree``."""
    w = complex(w)
    coeffs = [0.0 + 0.0j] * (degree + 1)
    for k in range(order, degree + 1):
        coeffs[k] = w.conjugate() ** k / math.comb(k, order)
    return AnalyticFunction(coeffs, False)


def local_bergman_kernel(
    z: complex, w: complex, boundary_point: complex, order: int
) -> complex:
    """Closed-form reproducing kernel of the local Bergman space.

    (n+1)! (n-1)! (z - lam)(conj(w) - conj(lam)) / (1 - z conj(w))^(n+2).
    """
    z, w, lam = complex(z), complex(w), complex(boundary_point)
    numerator = (z - lam) * (w.conjugate() - lam.conjugate())
    scale = math.factorial(order + 1) * math.factorial(order - 1)
    return scale * numerator / (1.0 - z * w.conjugate()) ** (order + 2)


def _exact_power_series(coeffs: list[int], x: complex) -> complex:
    # Horner's rule on x = (p + iq) / d, scaled by d^(K-1) into integers
    (p, a), (q, b) = x.real.as_integer_ratio(), x.imag.as_integer_ratio()
    d = max(a, b)  # both are powers of two
    p, q = p * (d // a), q * (d // b)
    re = im = 0
    scale = 1
    for c in reversed(coeffs):
        re, im = re * p - im * q + c * scale, re * q + im * p
        scale *= d
    scale //= d
    # int / int is correctly rounded
    return complex(re / scale, im / scale)


def local_bergman_kernel_series(
    z: complex, w: complex, boundary_point: complex, order: int, terms: int
) -> complex:
    """Basis expansion of the same kernel, truncated after ``terms``.

    n! (n-1)! (n+1) (z - lam)(conj(w) - conj(lam))
    sum_k binom(n+k+1, k) (z conj(w))^k.

    For complex x = z conj(w) the terms reach (1 - |x|)^-(n+2) in size
    while their sum is |1 - x|^-(n+2), so a floating-point sum can lose
    every digit: at n = 90 and x = 0.294 e^(-2.51i) the terms reach 4e12
    and the sum is 1.2e-9.  The sum is therefore taken exactly, in
    Gaussian integers over the dyadic denominator of x, and rounded once.
    """
    z, w, lam = complex(z), complex(w), complex(boundary_point)
    coeffs = [math.comb(order + k + 1, k) for k in range(terms)]
    series = _exact_power_series(coeffs, z * w.conjugate())
    scale = math.factorial(order) * math.factorial(order - 1) * (order + 1)
    return scale * (z - lam) * (w.conjugate() - lam.conjugate()) * series


def szego_kernel_truncation(w: complex, degree: int) -> AnalyticFunction:
    """Degree-``degree`` truncation of 1 / (1 - z conj(w))."""
    w = complex(w)
    return AnalyticFunction(
        [w.conjugate() ** k for k in range(degree + 1)], False
    )


def szego_kernel_energy(
    w: complex, measure: CircleMeasure, order: int
) -> float:
    """Closed-form weighted integral of the Szego kernel at w.

    |w|^(2n) / (1 - |w|^2)^n times the Szego potential of the measure.
    """
    if order < 1:
        raise ValueError("order must be a positive integer")
    w = complex(w)
    factor = abs(w) ** (2 * order) / (1.0 - abs(w) ** 2) ** order
    return factor * _szego_potential(measure, w)


def dilation_factor(r: float, order: int) -> float:
    """Contraction factor 4^(n-1) (2 - r) r^(2n) / (1 + r)^(2n-2)."""
    if not 0.0 <= r < 1.0:
        raise ValueError("dilation radius must lie in [0, 1)")
    if order < 1:
        raise ValueError("order must be a positive integer")
    return (
        4.0 ** (order - 1) * (2.0 - r) * r ** (2 * order)
        / (1.0 + r) ** (2 * order - 2)
    )


def _lagrange_interpolant(
    points: list[complex], values: list[complex]
) -> AnalyticFunction:
    k = len(points)
    coeffs = np.zeros(max(k, 1), dtype=complex)
    if k == 0:
        return AnalyticFunction((0.0,))
    for j, (pj, vj) in enumerate(zip(points, values)):
        basis = np.array([1.0 + 0.0j])
        denom = 1.0 + 0.0j
        for i, pi in enumerate(points):
            if i == j:
                continue
            basis = np.convolve(basis, np.array([-pi, 1.0 + 0.0j]))
            denom *= pj - pi
        coeffs[: len(basis)] += vj * basis / denom
    return AnalyticFunction(coeffs)


def atomic_decompose(
    f: AnalyticFunction, atom_angles: list[float], order: int
) -> AtomicDecomposition:
    """Split f into an interpolant plus a multiple of prod(z - atom_j).

    The interpolant matches the boundary values of f at the atoms, so the
    difference divides by every root factor; the quotient comes out of
    iterated synthetic division.  The residual is the largest
    coefficientwise gap of the rebuilt function against f.
    """
    if len(atom_angles) == 0:
        raise ValueError("need at least one atom")
    points = [cmath.exp(1j * a) for a in atom_angles]
    if len(set(atom_angles)) != len(atom_angles):
        raise ValueError("atom angles must be distinct")
    values = []
    for point, angle in zip(points, atom_angles):
        value, status = boundary_value(f, point)
        if status is BoundaryStatus.DIVERGENT:
            raise BoundaryDivergenceError(
                "no decomposition: divergent boundary value at angle "
                f"{angle:.6f}"
            )
        values.append(value)
    interpolant = _lagrange_interpolant(points, values)
    remainder = f + (-1.0) * interpolant
    quotient = remainder
    for point in points:
        # the remaining value at the root is interpolation roundoff; fold
        # it into the division rather than tripping the exactness check
        quotient = divide_by_root(
            quotient, point, evaluate(quotient, point)
        )
    rebuilt = quotient
    for point in points:
        rebuilt = times_linear(rebuilt, point)
    gap = f + (-1.0) * (rebuilt + interpolant)
    residual = float(np.max(np.abs(gap.coeffs)))
    return AtomicDecomposition(interpolant, quotient, residual)


def _monomial_weights(order: int, top: int, full_norm: bool) -> list[int]:
    """Squared norms w_k of z^k in the order-j arc-length space, k = 0 .. top.

    The seminorm has w_k = binom(k, j), zero below j; the full norm, the
    sum of the seminorms of orders 0 .. j, has w_k = sum_{i<=j} binom(k, i),
    built by Pascal's rule w_{k+1} = 2 w_k - binom(k, j).
    """
    seminorm = [math.comb(k, order) for k in range(top + 1)]
    if not full_norm:
        return seminorm
    weights = [1]
    for k in range(top):
        weights.append(2 * weights[k] - seminorm[k])
    return weights


def _multiplication_section(
    phi: AnalyticFunction, order: int, section_degree: int, full_norm: bool
) -> tuple[np.ndarray, list[int]]:
    """Matrix of multiplication by phi from the monomial section.

    Columns are the orthonormal monomials w_k^-1/2 z^k for k = j .. N (or
    k = 0 .. N for the full norm), rows the same basis up to N + deg(phi);
    entries are phi_{l-k} sqrt(w_l / w_k).  The weight row, which runs up
    to N + 1 + deg(phi), is returned alongside for the tail bound.
    """
    if not phi.exact:
        raise ValueError("multiplier estimates need an exact polynomial")
    d = phi.degree
    if section_degree < d + order:
        raise ValueError("section degree must reach deg(phi) + order")
    weights = _monomial_weights(order, section_degree + 1 + d, full_norm)
    first = 0 if full_norm else order
    ks = range(first, section_degree + 1)
    # one row per diagonal p; the integer ratios are rounded once
    ratios = np.sqrt(
        [[weights[k + p] / weights[k] for k in ks] for p in range(d + 1)]
    )
    columns = np.arange(len(ks))
    matrix = np.zeros((len(ks) + d, len(ks)), dtype=complex)
    matrix[columns + np.arange(d + 1)[:, None], columns] = (
        phi.coeffs[:, None] * ratios
    )
    return matrix, weights


def _multiplier_upper(
    phi: AnalyticFunction, order: int, section_degree: int, full_norm: bool
) -> float:
    matrix, weights = _multiplication_section(phi, order, section_degree, full_norm)
    section = float(np.linalg.norm(matrix, ord=2))
    start = section_degree + 1
    tail = sum(
        abs(c) * math.sqrt(weights[start + p] / weights[start])
        for p, c in enumerate(phi.coeffs.tolist())
    )
    return math.sqrt(section**2 + tail**2)


def multiplier_seminorm_estimate(
    phi: AnalyticFunction, order: int, section_degree: int
) -> float:
    """Finite-section lower bound for the multiplier seminorm of phi.

    Largest singular value of the multiplication matrix restricted to the
    monomial section; nondecreasing in the section degree and always a
    lower bound of the seminorm on the full order-j space.
    """
    matrix, _ = _multiplication_section(phi, order, section_degree, False)
    return float(np.linalg.norm(matrix, ord=2))


def multiplier_seminorm_upper(
    phi: AnalyticFunction, order: int, section_degree: int
) -> float:
    """Certified upper bound for the multiplier seminorm of phi.

    Split any vector into its section part and the tail above the section
    degree.  The section part is controlled by the section singular value;
    on the tail each diagonal of the banded multiplication matrix is a
    weighted shift whose weight ratios binom(k+p, j)/binom(k, j) decrease
    in k, so the triangle inequality over diagonals bounds the tail block
    at the first excluded column.  Cauchy-Schwarz combines the two blocks.
    """
    return _multiplier_upper(phi, order, section_degree, False)


def multiplier_norm_upper(
    phi: AnalyticFunction, order: int, section_degree: int
) -> float:
    """Certified upper bound for the multiplier norm of phi.

    The norm is the full order-j norm sum_{i<=j} D_{sigma,i}, whose monomial
    weights w_k = sum_{i<=j} binom(k, i) are positive for every k, so unlike
    the seminorm it sees the degrees below j.  The bound is built as in
    ``multiplier_seminorm_upper``; the tail step needs w_{k+p}/w_k to
    decrease in k, and it does: w_{k+1} = w_k + sum_{i<j} binom(k, i), so

        w_{k+1}/w_k = 1 + sum_{i<j} binom(k, i) / sum_{i<=j} binom(k, i)
                    = 2 - 1 / (1 + sum_{i<j} binom(k, i)/binom(k, j)),

    and each binom(k, i)/binom(k, j) with i < j is nonincreasing in k >= j.
    A product of p such nonincreasing ratios is w_{k+p}/w_k.  At order 0
    the norm is the seminorm and both bounds agree.
    """
    return _multiplier_upper(phi, order, section_degree, True)

"""Weighted Dirichlet-type integrals of analytic functions on the disc.

The order-n integral of f against a circle measure weights |f^(n)|^2 by
the measure's Poisson integral times (1 - |z|^2)^(n-1), normalized by
1/(n! (n-1)!).  Two independent routes compute it:

* series / decomposition: against arc length the integral is the
  coefficient sum of binom(k, n) |a_k|^2; against an atom it equals the
  order-(n-1) arc-length integral of the quotient (f - f*(lam))/(z - lam).
  For an exact polynomial and |lam| = 1 the quotient's coefficients are
  g_k = -lam^-(k+1) R_(k+1), with R_k = sum_{i >= k} a_i lam^i the tails
  of f's series at lam, so the local integral is the tail sum
  sum_k binom(k, n-1) |R_(k+1)|^2 and f(lam) = R_0: pure coefficient
  combinatorics;
* quadrature: sample f^(n) on a disc grid and integrate against the
  weight numerically.

Keeping both routes honest and comparing them is the package's whole
point; nothing here ever feeds one route's result into the other.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from . import quadrature
from .functions import (
    AnalyticFunction,
    _coefficient_block,
    _unimodular,
    boundary_value,
    derivative,
    divide_by_root,
    evaluate,
    times_linear,
)
from .measures import Arc, Atom, CircleMeasure
from .measures import szego_potential as _szego_potential
from .quadrature import QuadratureSpec, _poisson_energies, _ring_samples, _runs


@dataclass(frozen=True)
class DirichletResult:
    """Value of a weighted Dirichlet-type integral with provenance.

    ``spec`` is the grid of the quadrature route, ``None`` when no part
    was integrated numerically.  An integral against ``measure`` lists
    in ``parts`` the local integral of each of :attr:`CircleMeasure.parts`
    at unit mass, in that order; ``value`` is their
    :meth:`CircleMeasure.weigh` sum.  The JSON labels each with its part:
    its kind, its fields and its ``"local"`` value.
    """

    value: float
    method: str  # "series" | "decomposition" | "quadrature"
    error_estimate: float
    order: int
    spec: QuadratureSpec | None = None
    parts: tuple[float, ...] = ()
    measure: CircleMeasure | None = None

    def to_json(self) -> dict:
        payload = {
            "value": self.value,
            "method": self.method,
            "error": self.error_estimate,
            "order": self.order,
        }
        if self.spec is not None:
            payload["quad"] = self.spec.to_json()
        if self.measure is not None:
            payload["parts"] = [
                {"part": type(part).__name__.lower(), **asdict(part), "local": local}
                for part, local in zip(self.measure.parts, self.parts, strict=True)
            ]
        return payload


@dataclass(frozen=True)
class DouglasCertificate:
    """Decomposition f = alpha + (z - lam) g with both integral routes.

    ``lhs`` is the quadrature value of the local integral of f, ``rhs``
    the coefficient-series value for the quotient g one order down
    (:func:`douglas_decompose` says how it is summed); the residual is
    their gap, and ``spec`` is the grid of the quadrature.
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

    Row k of the block ``coeffs`` holds c_k of each column.  The
    floats are those of a Python loop over ``abs(c) ** 2``: ``hypot``,
    then one ``pow`` (numpy's ``abs`` and ``square`` round differently),
    and the terms are added in index order (``add.accumulate``; ``sum``
    would add pairwise).  A square beyond the float range raises
    ``OverflowError``, under the caller's ``np.errstate(over="ignore")``.
    """
    tail = coeffs[order:]
    if len(tail) == 0:
        return [0.0] * coeffs.shape[1]
    weights = _binomial_row(order, len(coeffs))[order:, None]
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
    (total,) = _series_sums([f], order)
    return DirichletResult(total, "series", 0.0, order)


def _series_sums(functions, order: int) -> list[float]:
    """The order-``order`` coefficient series of each function, from one
    :func:`_sigma_sums` per block of :func:`_blocks`."""
    with np.errstate(over="ignore"):
        return [s for _, coeffs in _blocks(functions)
                for s in _sigma_sums(coeffs, order)]


def _blocks(functions):
    """(run, :func:`_coefficient_block`) of each ``_runs`` of functions."""
    lengths = [len(f.coeffs) for f in functions]
    rows = max(lengths, default=1)
    # one run holds every column: no split, no slices
    if functions and len(functions) * rows <= quadrature._CELL_BUDGET:
        yield slice(0, len(functions)), _coefficient_block(functions, lengths)
        return
    for run in _runs(len(functions), rows):
        yield run, _coefficient_block(functions[run], lengths[run])


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

    The result lists the local integral of each of
    :attr:`CircleMeasure.parts` at unit mass and weighs them with
    :meth:`CircleMeasure.weigh`.  Exact polynomials take the
    decomposition route, the one-triple case of :func:`_exact_values`:
    one tail sum for all atoms of the measure
    (:func:`_local_integrals`), and the coefficient series for the
    arc-length part.
    Truncations integrate their atoms numerically, and
    ``force_quadrature`` integrates every part numerically; the
    numerical parts are the one-triple case of
    :func:`_quadrature_values`, on the grid :meth:`QuadratureSpec.choose`
    picks from ``spec``, the degree of f and the order.
    """
    if order < 1:
        raise ValueError(
            "order must be positive; use dirichlet_atomic_order_zero for order 0"
        )
    if not (force_quadrature and measure.total_mass > 0
            or measure.atoms and not f.exact):
        ((value, parts),) = _exact_values([(f, measure, order)])
        method = "decomposition" if measure.atoms else "series"
        return DirichletResult(value, method, 0.0, order, parts=parts,
                               measure=measure)
    # a truncation sums its arc-length part as a series, first
    series = measure.lebesgue > 0 and not force_quadrature
    head = (dirichlet_sigma(f, order).value,) if series else ()
    sampled = measure if force_quadrature else CircleMeasure(measure.atoms)
    ((_, tail, estimates, spec),) = _quadrature_values([(f, sampled, order)], spec)
    parts = head + tail
    return DirichletResult(
        measure.weigh(parts), "quadrature",
        measure.weigh((0.0,) * len(head) + estimates), order, spec, parts, measure,
    )


def _quadrature_values(triples, spec: QuadratureSpec | None = None) -> list[
    tuple[float, tuple[float, ...], tuple[float, ...], QuadratureSpec]
]:
    """Quadrature-route integrals of (f, measure, order) triples.

    The mirror of :func:`_exact_values`: each triple gets its value, the
    unit-mass values of its measure's :attr:`CircleMeasure.parts`, their
    error estimates and its grid, which :meth:`QuadratureSpec.choose`
    picks from ``spec``, the degree of f and the order.  The triples of
    one order and grid share one sampling of the coefficient block of
    their ``f^(n)`` per grid, one inverse FFT per ring and column
    (``quadrature._ring_samples``, in ``quadrature._runs`` of nodes times
    columns), and one contraction of the stacked ``|f^(n)|^2`` against
    all their parts.  Every triple gets the floats of its own
    ``poisson_weighted_energy`` call, and a batch with a failing triple
    raises what a failing triple raises alone.
    """
    groups = {}
    for t, (f, _, order) in enumerate(triples):
        if order < 1:
            raise ValueError("weight order must be a positive integer")
        grid = QuadratureSpec.choose(spec, f.degree, order, f.exact)
        groups.setdefault((order, grid), []).append(t)
    results = [None] * len(triples)
    for (order, grid), members in groups.items():
        derivatives = [derivative(triples[t][0], order) for t in members]
        lengths = [len(d.coeffs) for d in derivatives]
        measures = [triples[t][1] for t in members]

        def sample(z, run):
            coeffs = _coefficient_block(derivatives[run], lengths[run])
            # a non-finite sample raises by name once the samples are checked
            with np.errstate(over="ignore", invalid="ignore"):
                return _ring_samples(coeffs, *z.shape).reshape(-1, *z.shape)

        pairs = _poisson_energies(sample, order, grid, measures)
        for t, measure, part_pairs in zip(members, measures, pairs):
            parts = tuple(value for value, _ in part_pairs)
            estimates = tuple(estimate for _, estimate in part_pairs)
            results[t] = (measure.weigh(parts), parts, estimates, grid)
    return results


def _exact_values(triples) -> list[tuple[float, tuple[float, ...]]]:
    """Exact-route integrals of (f, measure, order) triples.

    Each triple gets its value and the unit-mass values of its
    :attr:`CircleMeasure.parts`, as :func:`dirichlet_weighted` lists them.
    The triples of one order have a column per (f, part): one coefficient
    series takes those of arc-length parts and one batch of local
    integrals those of atoms, and each triple reads its parts back in
    order and weighs them with :meth:`CircleMeasure.weigh`.  A triple
    with atoms needs an exact f.  At order 0 the arc-length part is the
    squared Hardy norm and an atom's part is |f(lam)|^2.
    """
    results = [None] * len(triples)
    for order in dict.fromkeys(n for _, _, n in triples):
        group = [(t, f, measure) for t, (f, measure, n) in enumerate(triples)
                 if n == order]
        arc = iter(_series_sums(
            [f for _, f, measure in group for part in measure.parts
             if isinstance(part, Arc)], order
        ))
        local = iter(_local_integrals(
            [f for _, f, measure in group for part in measure.parts
             if isinstance(part, Atom)],
            [part.point for _, _, measure in group for part in measure.parts
             if isinstance(part, Atom)],
            order,
        ))
        for t, _, measure in group:
            parts = tuple(next(arc) if isinstance(part, Arc) else next(local)
                          for part in measure.parts)
            results[t] = (measure.weigh(parts), parts)
    return results


def _local_integrals(functions, points, order: int) -> list[float]:
    """Unit-mass local integrals of exact polynomials at unimodular points.

    The local Douglas formula for every (f, lam) column at once, f from
    ``functions`` and lam from ``points``: column j is the quotient
    (f_j - f_j(lam_j)) / (z - lam_j), integrated one order down; at order
    0 it is |f_j(lam_j)|^2.  Degrees may differ and points repeat.  The
    quotient's coefficients are g_k = -sum_{i>k} a_i lam^(i-k-1) =
    -lam^-(k+1) R_(k+1), with R_k = sum_{i>=k} a_i lam^i the tails of f's
    series at lam, so on the unit circle |g_k| = |R_(k+1)| and the
    order-n integral is sum_k binom(k, n-1) |R_(k+1)|^2, with f(lam) =
    R_0.  Each of :func:`_blocks` is one running-power table lam^k, one
    product with the coefficients, one reversed cumulative sum and one
    :func:`_sigma_sums` over ``tails[1:]``.  The zero padding adds exact
    zeros, so each column gets the floats of its own call.  The first
    failing block raises ``OverflowError`` naming its first point whose
    value (or square) exceeds the float range.
    """
    points = np.array(points, dtype=complex)
    integrals = []
    for run, coeffs in _blocks(functions):
        roots = points[run]
        # row k is lam^k, one running product per column, as in _moments
        tails = np.empty_like(coeffs)
        tails[:1] = 1.0
        tails[1:] = roots
        # one errstate for the route, whose overflows raise by name
        with np.errstate(over="ignore", invalid="ignore"):
            np.multiply.accumulate(tails, axis=0, out=tails)
            tails *= coeffs
            # row k becomes R_k, summed from the top row down
            np.add.accumulate(tails[::-1], axis=0, out=tails[::-1])
            # a non-finite term or tail carries through every addition
            # below it, so a finite R_0 makes every R_k finite
            finite = np.isfinite(tails[0])
            if not finite.all():
                lam = roots[~finite][0]
                raise OverflowError(
                    f"the value of f at lam={lam:.6f} exceeds the float range"
                )
            if order > 0:
                integrals += _sigma_sums(tails[1:], order - 1)
                continue
            # hypot, then one pow, as abs(v) ** 2 and _sigma_sums square
            squares = np.float_power(np.hypot(tails[0].real, tails[0].imag), 2.0)
        if not np.isfinite(squares).all():
            lam = roots[~np.isfinite(squares)][0]
            raise OverflowError(f"|f(lam)|^2 at lam={lam:.6f} exceeds the float range")
        integrals += squares.tolist()
    return integrals


def dirichlet_atomic_order_zero(
    f: AnalyticFunction, measure: CircleMeasure
) -> DirichletResult:
    """Order-zero integral for a purely atomic measure.

    Equals the mass-weighted sum of squared boundary values over the
    atoms; a divergent boundary value at any atom makes it undefined.  An
    exact f is the one-triple case of :func:`_exact_values`.
    """
    if not measure.is_atomic:
        raise ValueError("order-zero path requires a purely atomic measure")
    if f.exact:
        ((total, _),) = _exact_values([(f, measure, 0)])
    else:
        squares = [abs(boundary_value(f, atom.point)) ** 2 for atom in measure.atoms]
        total = measure.weigh(squares)
    return DirichletResult(total, "decomposition", 0.0, 0)


def douglas_decompose(
    f: AnalyticFunction,
    boundary_point: complex,
    order: int,
    spec: QuadratureSpec | None = None,
) -> DouglasCertificate:
    """Local decomposition f = alpha + (z - lam) g with a two-route check.

    lam is the point of the unit atom at the phase of ``boundary_point``,
    which must lie on the unit circle; alpha is the boundary value at lam,
    g the synthetic quotient.  The certificate carries the quadrature value
    of the local integral of f against that atom (lhs, from
    :func:`dirichlet_weighted` with ``force_quadrature``) next to the
    coefficient series of g one order down (rhs).  For an exact f the rhs
    is the exact-route value of :func:`_exact_values`, which ``eval``
    reports, summed from f's tails at lam; for a truncation it is the
    series of the synthetic quotient.
    """
    if order < 1:
        raise ValueError("order must be a positive integer")
    phase = cmath.phase(_unimodular(boundary_point, "boundary"))
    measure = CircleMeasure.point_mass(phase)
    lam = measure.atoms[0].point
    alpha = boundary_value(f, lam)
    quotient = divide_by_root(f, lam, alpha)
    lhs = dirichlet_weighted(f, measure, order, spec, force_quadrature=True)
    if f.exact:
        ((rhs, _),) = _exact_values([(f, measure, order)])
    else:
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


def _gaussian_power(re: int, im: int, k: int) -> tuple[int, int]:
    """(re + i im)^k for a Gaussian integer and k >= 0, by repeated squaring."""
    pr, pi = 1, 0
    while True:
        if k & 1:
            pr, pi = pr * re - pi * im, pr * im + pi * re
        k >>= 1
        if not k:
            return pr, pi
        re, im = (re + im) * (re - im), 2 * re * im


def _negative_binomial_sum(m: int, terms: int, x: complex) -> complex:
    """sum_{k<K} binom(m-1+k, k) x^k for K = ``terms`` >= 1, rounded once.

    This partial sum S_K of (1 - x)^-m satisfies the polynomial identity
    (1 - x)^m S_K = 1 - x^K sum_{j<m} binom(K-1+j, j) (1 - x)^j.  With
    x = u / d, u a Gaussian integer, d = 2^e and v = d - u, it makes
    S_K = N / (d^(K-1) v^m), where the Gaussian integer
    N = d^(K+m-1) - u^K sum_j binom(K-1+j, j) v^j d^(m-1-j).  Times
    conj(v^m) over |v^m|^2 the denominator is a positive integer, and
    int / int rounds each part of the exact rational once.  At x = 1,
    where v = 0, the sum is binom(m-1+K, K-1).
    """
    (p, a), (q, b) = x.real.as_integer_ratio(), x.imag.as_integer_ratio()
    d = max(a, b)  # both are powers of two
    e = d.bit_length() - 1
    p, q = p * (d // a), q * (d // b)
    if (p, q) == (d, 0):
        return complex(math.comb(m - 1 + terms, terms - 1))
    vr, vi = d - p, -q
    tr = ti = 0  # sum_j binom(K-1+j, j) v^j d^(m-1-j), by Horner's rule
    for j in reversed(range(m)):
        c = math.comb(terms - 1 + j, j) << e * (m - 1 - j)
        tr, ti = tr * vr - ti * vi + c, tr * vi + ti * vr
    ur, ui = _gaussian_power(p, q, terms)
    nr = (1 << e * (terms + m - 1)) - (ur * tr - ui * ti)
    ni = -(ur * ti + ui * tr)
    er, ei = _gaussian_power(vr, vi, m)
    den = (er * er + ei * ei) << e * (terms - 1)
    return complex((nr * er + ni * ei) / den, (ni * er - nr * ei) / den)


def local_bergman_kernel_series(
    z: complex, w: complex, boundary_point: complex, order: int, terms: int
) -> complex:
    """Basis expansion of the same kernel, truncated after ``terms``.

    n! (n-1)! (n+1) (z - lam)(conj(w) - conj(lam))
    sum_k binom(n+k+1, k) (z conj(w))^k.

    For complex x = z conj(w) the terms reach (1 - |x|)^-(n+2) in size
    while their sum is |1 - x|^-(n+2), so a floating-point sum can lose
    every digit: at n = 90 and x = 0.294 e^(-2.51i) the terms reach 4e12
    and the sum is 1.2e-9.  The sum is therefore taken exactly, from its
    closed form with n + 2 terms in Gaussian integers over the dyadic
    denominator of x (``_negative_binomial_sum``), and rounded once.
    ``terms`` must be at least 1.
    """
    if terms < 1:
        raise ValueError(f"the kernel series needs at least one term, got {terms}")
    z, w, lam = complex(z), complex(w), complex(boundary_point)
    # before the sum, so an order below 1 raises instead of reaching a
    # negative power there
    scale = math.factorial(order) * math.factorial(order - 1) * (order + 1)
    series = _negative_binomial_sum(order + 2, terms, z * w.conjugate())
    return scale * (z - lam) * (w.conjugate() - lam.conjugate()) * series


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
    coeffs = np.zeros(len(points), dtype=complex)
    for j, (pj, vj) in enumerate(zip(points, values)):
        basis = np.array([1.0 + 0.0j])
        denom = 1.0 + 0.0j
        for pi in points[:j] + points[j + 1:]:
            basis = np.convolve(basis, np.array([-pi, 1.0 + 0.0j]))
            denom *= pj - pi
        coeffs[: len(basis)] += vj * basis / denom
    return AnalyticFunction(coeffs)


def atomic_decompose(
    f: AnalyticFunction, atom_angles: list[float]
) -> AtomicDecomposition:
    """Split f into an interpolant plus a multiple of prod(z - atom_j).

    The interpolant matches the boundary values of f at the atoms, so the
    difference divides by every root factor; the quotient comes out of
    iterated synthetic division.  The residual is the largest
    coefficientwise gap of the rebuilt function against f.  The angles
    must name distinct points by :class:`CircleMeasure`'s rule; f is
    interpolated at them as given, in the given order.
    """
    if len(atom_angles) == 0:
        raise ValueError("need at least one atom")
    atoms = tuple(Atom(a, 1.0) for a in atom_angles)
    CircleMeasure(atoms)
    points = [atom.point for atom in atoms]
    values = [boundary_value(f, point) for point in points]
    interpolant = _lagrange_interpolant(points, values)
    quotient = f + (-1.0) * interpolant
    for point in points:
        # the remaining value at the root is interpolation roundoff; fold
        # it into the division rather than tripping the exactness check
        quotient = divide_by_root(quotient, point, evaluate(quotient, point))
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


@lru_cache(maxsize=256)
def _multiplier_ratios(
    order: int, section_degree: int, degree: int, full_norm: bool
) -> tuple[np.ndarray, tuple[float, ...]]:
    """Weight ratios of the multiplication section and of its tail bound.

    The read-only table sqrt(w_{k+p} / w_k), one row per diagonal
    p = 0 .. ``degree`` and one column per section column k, and the
    tail ratios sqrt(w_{N+1+p} / w_{N+1}) as floats, N the section
    degree.  Each integer ratio is rounded once.
    """
    weights = _monomial_weights(order, section_degree + 1 + degree, full_norm)
    ks = range(0 if full_norm else order, section_degree + 1)
    ratios = np.sqrt(
        [[weights[k + p] / weights[k] for k in ks] for p in range(degree + 1)]
    )
    ratios.setflags(write=False)
    start = section_degree + 1
    tail = tuple(math.sqrt(weights[start + p] / weights[start])
                 for p in range(degree + 1))
    return ratios, tail


def _multiplication_section(
    phi: AnalyticFunction, order: int, section_degree: int, full_norm: bool
) -> np.ndarray:
    """Matrix of multiplication by phi from the monomial section.

    Columns are the orthonormal monomials w_k^-1/2 z^k for k = j .. N (or
    k = 0 .. N for the full norm), rows the same basis up to N + deg(phi);
    entries are phi_{l-k} sqrt(w_l / w_k), from :func:`_multiplier_ratios`.
    """
    if not phi.exact:
        raise ValueError("multiplier estimates need an exact polynomial")
    d = phi.degree
    if section_degree < d + order:
        raise ValueError("section degree must reach deg(phi) + order")
    ratios, _ = _multiplier_ratios(order, section_degree, d, full_norm)
    width = ratios.shape[1]
    columns = np.arange(width)
    matrix = np.zeros((width + d, width), dtype=complex)
    matrix[columns + np.arange(d + 1)[:, None], columns] = (
        phi.coeffs[:, None] * ratios
    )
    return matrix


def _multiplier_upper(
    phi: AnalyticFunction, order: int, section_degree: int, full_norm: bool
) -> float:
    matrix = _multiplication_section(phi, order, section_degree, full_norm)
    section = float(np.linalg.norm(matrix, ord=2))
    _, ratios = _multiplier_ratios(order, section_degree, phi.degree, full_norm)
    tail = sum(abs(c) * ratio for c, ratio in zip(phi.coeffs.tolist(), ratios))
    return math.sqrt(section**2 + tail**2)


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

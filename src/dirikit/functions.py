"""Truncated Taylor series on the unit disc.

An analytic function is carried around as a finite coefficient vector
a_0..a_N.  Exact polynomials are flagged ``exact=True``; everything else is
understood to be the truncation of a longer series and keeps ``exact=False``
through arithmetic.  All operations are pure and return new objects, so
instances can be shared freely between workers.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .measures import _json_number, _json_object
from .quadrature import _extrapolation_weights

#: Degree at which products are truncated unless the caller says otherwise.
DEFAULT_TRUNCATION_DEGREE = 64

#: Radii 1 - 2^-k used for radial extrapolation of boundary values.
_BOUNDARY_RADII_EXPONENTS = range(3, 13)

#: |f(r*lam)| beyond this is treated as radial divergence.
_DIVERGENCE_THRESHOLD = 1e8


class InexactDivisionError(ArithmeticError):
    """Raised when dividing an exact polynomial by a non-root factor."""


class BoundaryDivergenceError(ArithmeticError):
    """A required boundary value does not exist for this function."""


@dataclass(frozen=True, eq=False)
class AnalyticFunction:
    """Finite Taylor expansion sum_k a_k z^k with an exactness flag.

    ``coeffs`` is a read-only 1-D complex ndarray of length ``degree + 1``,
    copied from whatever array-like the caller passes.  ``exact`` means the
    function *is* this polynomial; otherwise the vector is the truncation
    of something longer and downstream consumers must not assume the tail
    vanishes.  Two functions are equal when their flags and coefficients
    are.
    """

    coeffs: np.ndarray
    exact: bool = True

    def __post_init__(self):
        coeffs = np.array(self.coeffs, dtype=complex)
        if coeffs.ndim != 1:
            raise ValueError("coefficients must form a flat sequence")
        if coeffs.size == 0:
            raise ValueError("need at least the constant coefficient")
        if not np.isfinite(coeffs).all():
            raise ValueError("coefficients must be finite")
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)

    def __eq__(self, other):
        if not isinstance(other, AnalyticFunction):
            return NotImplemented
        return self.exact == other.exact and np.array_equal(
            self.coeffs, other.coeffs
        )

    def __hash__(self):
        # hashing the values, not the bytes, makes -0.0 and 0.0 agree
        return hash((self.exact, *self.coeffs.tolist()))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def monomial(cls, k: int, scale: complex = 1.0) -> AnalyticFunction:
        if k < 0:
            raise ValueError("monomial degree must be non-negative")
        return cls((0.0,) * k + (complex(scale),), True)

    def __add__(self, other: AnalyticFunction) -> AnalyticFunction:
        return add(self, other)

    def __mul__(self, other) -> AnalyticFunction:
        if isinstance(other, AnalyticFunction):
            return multiply(self, other)
        return scale(self, other)

    __rmul__ = __mul__

    def to_json(self) -> dict:
        return {
            "coeffs": [[c.real, c.imag] for c in self.coeffs.tolist()],
            "exact": self.exact,
        }

    @classmethod
    def from_json(cls, payload: dict) -> AnalyticFunction:
        payload = _json_object(payload, ("coeffs", "exact"), "a function")
        coeffs = [complex(_json_number(re, "coeffs"), _json_number(im, "coeffs"))
                  for re, im in payload["coeffs"]]
        exact = payload.get("exact", True)
        if not isinstance(exact, bool):
            raise TypeError("'exact' must be true or false")
        return cls(coeffs, exact)


def evaluate(f: AnalyticFunction, z):
    """Evaluate f at a point (or ndarray of points) of the closed disc.

    Horner recurrence; ``z`` may be a complex scalar or any numpy array of
    points with ``|z| <= 1``.
    """
    zs = np.asarray(z, dtype=complex)
    # written so that a NaN point fails it too
    if not np.all(np.abs(zs) <= 1.0 + 1e-12):
        raise ValueError("evaluation point outside the closed unit disc")
    # Python complex operands: numpy adds them faster than the numpy
    # scalars that iterating the array yields
    acc = _horner(f.coeffs.tolist(), zs)
    if np.isscalar(z) or zs.ndim == 0:
        return complex(acc)
    return acc


def _horner(rows, zs):
    """The sum of ``rows[k] * zs**k`` by Horner's rule.

    Row k is a number, or an array with one entry per point.
    """
    acc = np.zeros_like(zs)
    for c in reversed(rows):
        acc = acc * zs + c
    return acc


def _coefficient_block(functions, lengths):
    """The coefficients of many functions side by side, with their degrees.

    Column j holds the ``lengths[j]`` coefficients of ``functions[j]``,
    zero-padded up to the highest degree, and ``degrees[j]`` its own
    degree; the caller takes the lengths once.  A lone function gives its
    own coefficient vector and degree instead: :func:`_values_on_circle`
    and :func:`_divide_by_roots` step with its coefficients as Python
    numbers, and at a lone point with numpy scalars, about ten times
    faster than on a one-column block.
    """
    if len(functions) == 1:
        return functions[0].coeffs, lengths[0] - 1
    block = np.zeros((max(lengths), len(functions)), dtype=complex)
    for j, f in enumerate(functions):
        block[: lengths[j], j] = f.coeffs
    return block, np.array(lengths) - 1


def _values_on_circle(coeffs, lams):
    """Values of polynomials at unimodular points.

    ``coeffs`` is one coefficient vector, evaluated at ``lams``, one
    point or an array of them, or ``coeffs`` is a block
    (:func:`_coefficient_block`) and column j is evaluated at ``lams[j]``.  It runs under the caller's
    ``np.errstate(over="ignore", invalid="ignore")``; a value beyond the
    float range raises ``OverflowError`` naming its point.
    """
    values = _horner(coeffs.tolist() if coeffs.ndim == 1 else coeffs,
                     np.asarray(lams, dtype=complex))
    if values.ndim == 0:
        # cmath checks the scalar of a lone point faster than np.isfinite
        values = complex(values)
    if not (cmath.isfinite(values) if isinstance(values, complex)
            else np.isfinite(values).all()):
        lam = np.ravel(lams)[~np.isfinite(np.ravel(values))][0]
        raise OverflowError(f"the value of f at lam={lam:.6f} exceeds the float range")
    return values


def derivative(f: AnalyticFunction, order: int = 1) -> AnalyticFunction:
    """Formal ``order``-th derivative; degrees below ``order`` drop out.

    A coefficient beyond the float range raises ``OverflowError`` naming
    the order, with no numpy warning.
    """
    if order < 0:
        raise ValueError("derivative order must be non-negative")
    coeffs = f.coeffs
    # an overflowing product is inf, and inf * 0 in a later step NaN
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(order):
            if len(coeffs) == 1:
                coeffs = np.zeros(1, dtype=complex)
                break
            coeffs = coeffs[1:] * np.arange(1, len(coeffs))
    if not np.isfinite(coeffs).all():
        raise OverflowError(
            f"overflow: the coefficients of the order-{order} derivative exceed "
            "the float range"
        )
    return AnalyticFunction(coeffs, f.exact)


def dilate(f: AnalyticFunction, r: float) -> AnalyticFunction:
    """Radial dilation z -> r z, i.e. a_k -> r^k a_k, for 0 <= r < 1."""
    if not 0.0 <= r < 1.0:
        raise ValueError("dilation radius must lie in [0, 1)")
    powers = r ** np.arange(len(f.coeffs))
    return AnalyticFunction(f.coeffs * powers, f.exact)


def add(f: AnalyticFunction, g: AnalyticFunction) -> AnalyticFunction:
    n = max(len(f.coeffs), len(g.coeffs))
    acc = np.zeros(n, dtype=complex)
    acc[: len(f.coeffs)] += f.coeffs
    acc[: len(g.coeffs)] += g.coeffs
    return AnalyticFunction(acc, f.exact and g.exact)


def scale(f: AnalyticFunction, c: complex) -> AnalyticFunction:
    return AnalyticFunction(f.coeffs * complex(c), f.exact)


def multiply(
    f: AnalyticFunction,
    g: AnalyticFunction,
    max_degree: int | None = None,
) -> AnalyticFunction:
    """Cauchy product, truncated at ``max_degree`` (default global cap).

    A product whose true degree exceeds the cap is truncated and loses the
    ``exact`` flag.
    """
    cap = DEFAULT_TRUNCATION_DEGREE if max_degree is None else max_degree
    full = np.convolve(f.coeffs, g.coeffs)
    if len(full) - 1 > cap:
        return AnalyticFunction(full[: cap + 1], False)
    return AnalyticFunction(full, f.exact and g.exact)


def times_linear(f: AnalyticFunction, root: complex) -> AnalyticFunction:
    """The product (z - root) * f, one degree up and never truncated."""
    return multiply(f, AnalyticFunction((-root, 1.0)), max_degree=f.degree + 1)


def divide_by_root(
    f: AnalyticFunction, lam: complex, alpha: complex
) -> AnalyticFunction:
    """Solve (z - lam) * g = f - alpha for the truncated series g.

    The coefficients are produced from the constant term upward, so each
    g_k depends only on a_0..a_k and alpha; any mismatch is pushed into the
    unsatisfied top equation.  For a unimodular lam that residue equals
    |f(lam) - alpha| exactly, and it vanishes when alpha is the value of an
    exact polynomial at lam.  Exact inputs with a non-zero residue raise
    :class:`InexactDivisionError`; truncations keep the division.
    """
    lam = _unimodular(lam, "division")
    out, _ = _divide_by_roots(f.coeffs, f.degree, np.complex128(lam), alpha, f.exact)
    return AnalyticFunction(out, f.exact)


def _divide_by_roots(coeffs, degrees, lams, alphas, exact: bool):
    """Synthetic division of f - alpha by z - lam, for one f or many.

    ``coeffs`` is the coefficient vector of one f, with a numpy complex
    scalar root ``lams``, or a block (:func:`_coefficient_block`) with
    one unimodular root per column;
    ``degrees`` holds the degree of f, or of each column, and ``alphas``
    the matching values.  Row k of the returned quotient holds g_k, one
    per root; rows past a column's own degree are zero, and a constant f
    has the single row g_0 = 0.  The residues |g_(d-1) - a_d| of :func:`divide_by_root`,
    read at each column's own degree d, come back alongside.

    Every column runs the float operations of a one-root division,
    numpy's complex division from the constant term upward, so columns
    match one-root calls bit for bit.  A non-finite quotient raises
    ``ValueError``, as building it would.  When ``exact``, a column
    whose residue exceeds ``1e-9 * max(1, max |a_k|)``, over its own
    coefficients, raises :class:`InexactDivisionError` naming its root;
    of several, the one with the largest residue.
    """
    # numpy arithmetic throughout, even for a Python complex alpha
    prev = np.asarray(alphas, dtype=complex)[()]
    rows = [prev]
    for c in coeffs[:-1].tolist() if coeffs.ndim == 1 else coeffs[:-1]:
        prev = (prev - c) / lams
        rows.append(prev)
    # row k is g_(k-1), with g_(-1) = alpha: a constant leaves |alpha - a_0|
    g = np.array(rows)
    out = g[1:] if len(g) > 1 else np.zeros((1, *np.shape(lams)), dtype=complex)
    if coeffs.ndim == 1:
        gap = prev - coeffs[-1]
    else:
        columns = np.arange(len(degrees))
        gap = g[degrees, columns] - coeffs[degrees, columns]
        # the rows past a column's own degree divide its zero padding
        out[np.arange(len(out))[:, None] >= degrees] = 0
    residues = np.hypot(gap.real, gap.imag)
    if not np.isfinite(out).all():
        raise ValueError("coefficients must be finite")
    # the tolerance is at least 1e-9, so most divisions skip building it
    if exact and np.any(residues > 1e-9):
        scales = np.maximum(1.0, np.max(np.abs(coeffs), axis=0))
        excess = np.ravel(np.where(residues > 1e-9 * scales, residues, 0.0))
        if excess.any():
            worst = int(np.argmax(excess))
            raise InexactDivisionError(
                f"inexact division: remainder {excess[worst]:.3e} "
                f"at lam={complex(np.ravel(lams)[worst])}"
            )
    return out, residues


def _unimodular(lam: complex, role: str) -> complex:
    """``lam`` as a Python complex; ``ValueError`` naming its role unless
    it lies within 1e-9 of the unit circle."""
    lam = complex(lam)
    # written so that a NaN point fails it too
    if not abs(abs(lam) - 1.0) <= 1e-9:
        raise ValueError(f"{role} point must lie on the unit circle")
    return lam


def boundary_value(f: AnalyticFunction, lam: complex) -> complex:
    """Radial boundary value f*(lam) of f at a unimodular point.

    Exact polynomials are just evaluated.  Truncations are sampled along
    r_k = 1 - 2^-k and extrapolated to r = 1 with the exact polynomial
    extrapolation weights of :func:`quadrature._extrapolation_weights`
    (the gaps h = 1 - r are 2^-3 times 2^-l, and that scale cancels).  A
    sample beyond the divergence threshold means the limit does not
    exist, and :class:`BoundaryDivergenceError` is raised.
    """
    lam = _unimodular(lam, "boundary")
    with np.errstate(over="ignore", invalid="ignore"):
        if f.exact:
            return _values_on_circle(f.coeffs, lam)
        samples = np.array(
            [evaluate(f, (1.0 - 2.0**-k) * lam) for k in _BOUNDARY_RADII_EXPONENTS]
        )
    # an overflowing sample is not finite, and diverges too
    if not np.all(np.abs(samples) <= _DIVERGENCE_THRESHOLD):
        raise BoundaryDivergenceError(
            f"no boundary value at lam={lam:.6f}: f diverges along the radius"
        )
    weights, _ = _extrapolation_weights(len(samples) - 1)
    return complex(np.dot(np.array(weights, dtype=float), samples))

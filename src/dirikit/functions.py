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
    """The sum of ``rows[k] * zs**k`` by Horner's rule, for a list of
    numbers ``rows``."""
    acc = np.zeros_like(zs)
    for c in reversed(rows):
        acc = acc * zs + c
    return acc


def _coefficient_block(functions, lengths):
    """The coefficients of many functions side by side.

    Column j holds the ``lengths[j]`` coefficients of ``functions[j]``,
    zero-padded up to the highest degree; the caller takes the lengths
    once.  A lone function gives a one-column view of its own
    coefficients, with no copy.
    """
    if len(functions) == 1:
        return functions[0].coeffs[:, None]
    block = np.zeros((max(lengths), len(functions)), dtype=complex)
    for j, f in enumerate(functions):
        block[: lengths[j], j] = f.coeffs
    return block


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
    coeffs = f.coeffs
    # numpy arithmetic throughout, even for a Python complex alpha
    prev, root = np.complex128(alpha), np.complex128(lam)
    rows = []
    for c in coeffs[:-1].tolist():
        prev = (prev - c) / root
        rows.append(prev)
    # the gap left in the top equation g_(d-1) = a_d, or alpha = a_0
    residue = abs(prev - coeffs[-1])
    # the tolerance is at least 1e-9, so most divisions skip building it
    if f.exact and residue > 1e-9 and residue > 1e-9 * max(1.0, np.abs(coeffs).max()):
        raise InexactDivisionError(
            f"inexact division: remainder {residue:.3e} at lam={lam}"
        )
    # a constant f has the single coefficient g_0 = 0
    return AnalyticFunction(rows or (0.0,), f.exact)


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
            value = complex(_horner(f.coeffs.tolist(), np.asarray(lam)))
            if not cmath.isfinite(value):
                raise OverflowError(
                    f"the value of f at lam={lam:.6f} exceeds the float range"
                )
            return value
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

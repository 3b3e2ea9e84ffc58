"""Truncated Taylor series on the unit disc.

An analytic function is carried around as a finite coefficient vector
a_0..a_N.  Exact polynomials are flagged ``exact=True``; everything else is
understood to be the truncation of a longer series and keeps ``exact=False``
through arithmetic.  All operations are pure and return new objects, so
instances can be shared freely between workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .quadrature import _extrapolation_weights

#: Degree at which products are truncated unless the caller says otherwise.
DEFAULT_TRUNCATION_DEGREE = 64

#: Radii 1 - 2^-k used for radial extrapolation of boundary values.
_BOUNDARY_RADII_EXPONENTS = range(3, 13)

#: |f(r*lam)| beyond this is treated as radial divergence.
_DIVERGENCE_THRESHOLD = 1e8


class BoundaryStatus(str, Enum):
    """How a boundary value was obtained."""

    EXACT = "exact"
    EXTRAPOLATED = "extrapolated"
    DIVERGENT = "divergent"


class InexactDivisionError(ArithmeticError):
    """Raised when dividing an exact polynomial by a non-root factor."""


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
        coeffs = [complex(re, im) for re, im in payload["coeffs"]]
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
    if np.any(np.abs(zs) > 1.0 + 1e-12):
        raise ValueError("evaluation point outside the closed unit disc")
    acc = np.zeros_like(zs)
    # Python complex operands: numpy adds them faster than the numpy
    # scalars that iterating the array yields
    for c in reversed(f.coeffs.tolist()):
        acc = acc * zs + c
    if np.isscalar(z) or zs.ndim == 0:
        return complex(acc)
    return acc


def derivative(f: AnalyticFunction, order: int = 1) -> AnalyticFunction:
    """Formal ``order``-th derivative; degrees below ``order`` drop out."""
    if order < 0:
        raise ValueError("derivative order must be non-negative")
    coeffs = f.coeffs
    for _ in range(order):
        if len(coeffs) == 1:
            coeffs = np.zeros(1, dtype=complex)
            break
        coeffs = coeffs[1:] * np.arange(1, len(coeffs))
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
    f: AnalyticFunction,
    lam: complex,
    alpha: complex,
    return_residue: bool = False,
):
    """Solve (z - lam) * g = f - alpha for the truncated series g.

    The coefficients are produced from the constant term upward, so each
    g_k depends only on a_0..a_k and alpha; any mismatch is pushed into the
    unsatisfied top equation.  For a unimodular lam that residue equals
    |f(lam) - alpha| exactly, and it vanishes when alpha is the value of an
    exact polynomial at lam.  Exact inputs with a non-zero residue raise
    :class:`InexactDivisionError`; truncations keep the division and report
    the residue when asked.
    """
    lam = complex(lam)
    if abs(abs(lam) - 1.0) > 1e-9:
        raise ValueError("division point must lie on the unit circle")
    out, residue = _divide_by_roots(f, np.complex128(lam), alpha)
    g = AnalyticFunction(out, f.exact)
    if return_residue:
        return g, residue
    return g


def _divide_by_roots(f: AnalyticFunction, lams, alphas):
    """Synthetic division of f - alpha by z - lam for one root or many.

    ``lams`` is a numpy complex scalar or a 1-D array of unimodular
    roots, and ``alphas`` holds the matching values.  Row k of the
    returned quotient holds g_k, with one column per root (none for a
    scalar root); a constant f has the single row g_0 = 0.  The residues
    |g_(N-1) - a_N| of :func:`divide_by_root` come back alongside.

    Every column runs the float operations of a one-root division,
    numpy's complex division from the constant term upward, so columns
    match one-root calls bit for bit.  A non-finite quotient raises
    ``ValueError``, as building it would; an exact f with a residue
    above the tolerance raises :class:`InexactDivisionError` naming the
    root with the largest one.
    """
    a = f.coeffs
    # numpy arithmetic throughout, even for a Python complex alpha
    prev = np.asarray(alphas, dtype=complex)[()]
    rows = []
    for c in a[:-1].tolist():
        prev = (prev - c) / lams
        rows.append(prev)
    # g_(-1) = alpha: a constant f leaves the residue |alpha - a_0|
    gap = prev - a[-1]
    residues = np.hypot(gap.real, gap.imag)
    out = np.array(rows) if rows else np.zeros((1, *np.shape(lams)), dtype=complex)
    if not np.isfinite(out).all():
        raise ValueError("coefficients must be finite")
    if f.exact:
        worst = int(np.argmax(residues))
        residue = np.ravel(residues)[worst]
        # the tolerance is at least 1e-9, so most divisions skip building it
        if residue > 1e-9 and residue > 1e-9 * max(1.0, float(np.max(np.abs(a)))):
            raise InexactDivisionError(
                f"inexact division: remainder {residue:.3e} "
                f"at lam={complex(np.ravel(lams)[worst])}"
            )
    return out, residues


def boundary_value(
    f: AnalyticFunction, lam: complex
) -> tuple[complex, BoundaryStatus]:
    """Radial boundary value of f at a unimodular point.

    Exact polynomials are just evaluated.  Truncations are sampled along
    r_k = 1 - 2^-k and extrapolated to r = 1 with the exact polynomial
    extrapolation weights of :func:`quadrature._extrapolation_weights`
    (the gaps h = 1 - r are 2^-3 times 2^-l, and that scale cancels); if
    any sample exceeds the divergence threshold, the status is
    ``DIVERGENT`` and the value is meaningless.
    """
    lam = complex(lam)
    if abs(abs(lam) - 1.0) > 1e-9:
        raise ValueError("boundary point must lie on the unit circle")
    if f.exact:
        return evaluate(f, lam), BoundaryStatus.EXACT
    samples = np.array(
        [evaluate(f, (1.0 - 2.0**-k) * lam) for k in _BOUNDARY_RADII_EXPONENTS]
    )
    if np.any(np.abs(samples) > _DIVERGENCE_THRESHOLD):
        return complex("nan+nanj"), BoundaryStatus.DIVERGENT
    weights, _ = _extrapolation_weights(len(samples) - 1)
    value = np.dot(np.array(weights, dtype=float), samples)
    return complex(value), BoundaryStatus.EXTRAPOLATED

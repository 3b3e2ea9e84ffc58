"""Quadrature over the unit disc against normalized area measure.

Two integration routes live here.

``integrate_disc`` is a generic product rule for black-box integrands:
Gauss-Legendre radially on [0, 1 - eps], uniform trapezoid in the angle,
then Richardson extrapolation of the clip radius eps -> 0.  It is the
right tool for integrands that are smooth away from the boundary.

``poisson_weighted_energy`` handles the weights this package actually
integrates against: an atomic Poisson kernel (or plain arc length) times
(1 - |z|^2)^(n-1).  The Poisson factor is an angular spike near its atom
that uniform sampling aliases badly, so instead of sampling it we sample
only the smooth |h|^2 factor, take its angular Fourier coefficients, and
convolve with the Poisson kernel's known coefficients r^|d|.  The angular
step is then exact for band-limited integrands and the radial profile is
smooth on the whole of [0, 1]; no clipping is needed.  The samples do not
depend on the atom, so a whole measure costs one sampling per grid and
one contraction per atom.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .measures import CircleMeasure


class SingularIntegrandError(ArithmeticError):
    """Integrand produced a non-finite value at a quadrature node."""

    def __init__(self, node: complex):
        self.node = complex(node)
        super().__init__(f"singular integrand at node {self.node}")


@dataclass(frozen=True)
class QuadratureSpec:
    """Radial and angular node counts of a product rule on the disc."""

    radial: int = 96
    angular: int = 256

    def __post_init__(self):
        if self.radial < 4:
            raise ValueError("need at least 4 radial nodes")
        if self.angular < 8:
            raise ValueError("need at least 8 angular nodes")

    def to_json(self) -> dict:
        return {"radial": self.radial, "angular": self.angular}

    @classmethod
    def from_csv(cls, text: str) -> QuadratureSpec:
        parts = [p.strip() for p in text.split(",")]
        if len(parts) != 2:
            raise ValueError("quadrature spec must be 'radial,angular'")
        return cls(radial=int(parts[0]), angular=int(parts[1]))

    @classmethod
    def default(cls) -> QuadratureSpec:
        """Package default."""
        return cls()

    @classmethod
    def for_polynomial(cls, degree: int, order: int) -> QuadratureSpec:
        """Smallest grid on which the order-``order`` energy of a polynomial
        of degree ``degree`` is exact, and so is its half grid.

        By the bound in :func:`poisson_weighted_energy` the half grid needs
        ``radial // 2 >= degree`` and ``angular // 2 >= 2 (degree - order)
        + 1``, with its floors of 4 and 8; a vanishing ``f^(order)`` needs
        nothing beyond the floors.  Where the exact grid would exceed the
        package default in either dimension, the package default is kept.
        """
        spread = degree - order  # the degree of f^(order)
        radial = 2 * max(degree if spread >= 0 else 0, 4)
        angular = 2 * max(2 * spread + 1, 8)
        default = cls()
        if radial > default.radial or angular > default.angular:
            return default
        return cls(radial, angular)

    @classmethod
    def choose(
        cls, spec: QuadratureSpec | None, degree: int, order: int, exact: bool
    ) -> QuadratureSpec:
        """Grid for the order-``order`` energy of a function of ``degree``.

        A given ``spec`` wins; otherwise an exact polynomial gets
        :meth:`for_polynomial` and a truncation (``exact`` false) the
        package default.
        """
        if spec is not None:
            return spec
        if exact:
            return cls.for_polynomial(degree, order)
        return cls.default()


@lru_cache(maxsize=64)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w

@lru_cache(maxsize=64)
def _angles(m: int) -> np.ndarray:
    return 2.0 * np.pi * np.arange(m) / m


def _radial_rule(n: int, outer: float) -> tuple[np.ndarray, np.ndarray]:
    # map [-1, 1] onto [0, outer]; weights absorb the 2r Jacobian of dA
    x, w = _gauss_legendre(n)
    r = 0.5 * outer * (x + 1.0)
    return r, (0.5 * outer * w) * 2.0 * r


def _sample(integrand, z: np.ndarray) -> np.ndarray:
    values = np.asarray(integrand(z), dtype=complex)
    if values.shape != z.shape:
        raise ValueError(
            f"integrand returned shape {values.shape} for nodes of shape {z.shape}"
        )
    return values


def _check_finite(values: np.ndarray, z: np.ndarray) -> None:
    bad = ~np.isfinite(values)
    if np.any(bad):
        raise SingularIntegrandError(z[bad][0])


def _clipped_product_rule(integrand, spec: QuadratureSpec, gap: float) -> complex:
    r, wr = _radial_rule(spec.radial, 1.0 - gap)
    z = r[:, None] * np.exp(1j * _angles(spec.angular))[None, :]
    values = _sample(integrand, z)
    _check_finite(values, z)
    # angular mean, then deterministic pairwise radial reduction via np.sum
    return complex(np.sum(wr * values.mean(axis=1)))


@lru_cache(maxsize=64)
def _extrapolation_weights(
    levels: int,
) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Exact weights of polynomial extrapolation to zero boundary gap.

    The nodes are the gaps clip * 2^-l for l = 0 .. levels, and the value
    extrapolated to gap 0 is sum_l w_l v_l with the Lagrange weights
    w_l = prod_{m != l} h_m / (h_m - h_l).  The clip scales every node
    alike and cancels, so the weights depend on ``levels`` alone.  Also
    returned are the differences w_l - w'_l to the weights w' built
    without the finest level (w'_levels = 0).  The weights sum to exactly
    1 and the differences to exactly 0.
    """

    def lagrange_at_zero(count: int) -> list[Fraction]:
        nodes = [Fraction(1, 2**l) for l in range(count)]
        weights = []
        for l, h in enumerate(nodes):
            w = Fraction(1)
            for m, g in enumerate(nodes):
                if m != l:
                    w *= g / (g - h)
            weights.append(w)
        return weights

    full = lagrange_at_zero(levels + 1)
    coarse = lagrange_at_zero(levels) + [Fraction(0)]
    return tuple(full), tuple(w - c for w, c in zip(full, coarse))


def integrate_disc(
    integrand, spec: QuadratureSpec, clip: float = 2.0**-6, levels: int = 4
) -> tuple[complex, float]:
    """Integrate a black-box integrand against normalized area measure.

    ``integrand`` receives a complex ndarray of nodes and must return an
    array of the same shape.  ``clip`` is the innermost boundary gap;
    refinement halves it ``levels`` times and the clipped values are
    extrapolated to zero gap.  ``clip = 0`` disables clipping entirely
    (pure full-disc rule), which is the cheap choice for integrands smooth
    up to the boundary.

    Returns the extrapolated value together with an error estimate, the
    difference between the extrapolants built from all levels and from all
    but the finest.  Both are fixed linear combinations of the clipped
    values whose weights are computed exactly, so the estimate is a single
    rounded sum rather than a difference of two separately rounded
    extrapolants.  With ``clip = 0`` or ``levels = 0`` no extrapolation
    happens and the estimate degenerates to zero.
    """
    if not 0.0 <= clip < 0.5:
        raise ValueError("boundary clip must lie in [0, 0.5)")
    if levels < 0:
        raise ValueError("refinement levels must be non-negative")
    if clip == 0.0:
        return _clipped_product_rule(integrand, spec, 0.0), 0.0
    values = np.array(
        [
            _clipped_product_rule(integrand, spec, clip * 2.0**-l)
            for l in range(levels + 1)
        ]
    )
    if len(values) == 1:
        return complex(values[0]), 0.0
    weights, differences = _extrapolation_weights(levels)
    value = complex(np.dot(np.array(weights, dtype=float), values))
    estimate = abs(complex(np.dot(np.array(differences, dtype=float), values)))
    return value, estimate


#: Holds every grid, half grids included, that ``for_polynomial`` picks for
#: degrees 0-20 at orders 1-4 (126 shapes with the default pair), and so
#: every grid of ``verify all``; full, it holds at most about 70 MB.
@lru_cache(maxsize=256)
def _poisson_grid(radial: int, angular: int) -> tuple[np.ndarray, ...]:
    """Read-only radii r, radial weights, nodes z, FFT frequencies d and
    Poisson kernel coefficients r^|d| (one row per radius) of one grid."""
    r, wr = _radial_rule(radial, 1.0)
    z = r[:, None] * np.exp(1j * _angles(angular))[None, :]
    freqs = np.rint(np.fft.fftfreq(angular, 1.0 / angular)).astype(int)
    kernel = r[:, None] ** np.abs(freqs)[None, :]
    for array in (r, wr, z, freqs, kernel):
        array.setflags(write=False)
    return r, wr, z, freqs, kernel


def _poisson_energies_on_grid(
    values_fn, order: int, radial: int, angular: int, measure: CircleMeasure
) -> list[float]:
    r, wr, z, freqs, kernel = _poisson_grid(radial, angular)
    samples = _sample(values_fn, z)
    _check_finite(samples, z)
    with np.errstate(over="ignore"):
        squares = np.abs(samples) ** 2
    overflow = np.isinf(squares)
    if overflow.any():
        raise OverflowError(
            f"overflow: |h|^2 exceeds the float range at node {z[overflow][0]}"
        )
    profiles = []
    if measure.lebesgue > 0:
        profiles.append(squares.mean(axis=1))
    if measure.atoms:
        # exact angular integral of squares * Poisson: convolve the sampled
        # Fourier coefficients with the kernel coefficients r^|d| e^(i d a)
        smoothed = np.fft.fft(squares, axis=1) / angular * kernel
        profiles += [
            (smoothed * np.exp(1j * freqs * atom.angle)).sum(axis=1).real
            for atom in measure.atoms
        ]
    weight = (1.0 - r**2) ** (order - 1)
    # the integrand |h|^2 * weight is non-negative; clip roundoff dust.
    # Divide exactly: n! (n-1)! overflows a float from order 99 on.
    norm = math.factorial(order) * math.factorial(order - 1)
    return [
        float(Fraction(max(float(np.sum(wr * profile * weight)), 0.0)) / norm)
        for profile in profiles
    ]


def poisson_weighted_energy(
    values_fn,
    order: int,
    spec: QuadratureSpec,
    measure: CircleMeasure | None = None,
) -> list[tuple[float, float]]:
    """Weighted Bergman energy of a sampled function h against a measure.

    Computes, for each part of the circle measure, the disc integral of
    |h|^2 times the local weight of the given order: the part's Poisson
    integral (the Poisson kernel of an atom, or 1 for arc length) times
    (1 - |z|^2)^(order-1), with the usual 1/(order! (order-1)!)
    normalization.  ``measure`` defaults to unit arc length.
    ``values_fn`` receives a complex ndarray of interior points and must
    return h at those points.

    Returns one (value, error estimate) pair per part, each multiplied by
    the part's mass: the arc-length part first if it has mass, then the
    atoms in measure order.  Their sum is the integral against the whole
    measure.  Each of the two grids is sampled once for all parts; every
    atom then costs one contraction of the smoothed Fourier coefficients.

    The rule is exact for a polynomial h of degree D on a grid with
    ``angular >= 2 D + 1`` and ``radial >= D + order``.  Angularly, |h|^2
    has frequencies |d| <= D, and the trapezoid with ``angular`` nodes
    aliases none of them onto another.  Radially, the frequency-d term
    a_j conj(a_k) r^(j+k) (with j - k = d) meets the kernel's r^|d|, so
    the profile has degree 2 max(j, k) <= 2 D; with the weight
    (1 - r^2)^(order-1) and the Jacobian r the integrand has degree
    2 D + 2 order - 1, and Gauss-Legendre with N nodes is exact up to
    degree 2 N - 1.  For h = f^(n) that is ``radial >= deg f``.  The
    reported error estimate compares against the half grid
    ``(max(radial // 2, 4), max(angular // 2, 8))``.  When both grids
    are exact it is roundoff; when only the fine grid is, it is the half
    grid's error and overstates the fine one's; when neither is, it may
    understate the error.
    """
    if order < 1:
        raise ValueError("weight order must be a positive integer")
    measure = CircleMeasure.arc_length() if measure is None else measure
    masses = [measure.lebesgue] if measure.lebesgue > 0 else []
    masses += [atom.mass for atom in measure.atoms]
    fine = _poisson_energies_on_grid(
        values_fn, order, spec.radial, spec.angular, measure
    )
    coarse = _poisson_energies_on_grid(
        values_fn, order, max(spec.radial // 2, 4), max(spec.angular // 2, 8), measure
    )
    return [
        (mass * value, mass * abs(value - half))
        for mass, value, half in zip(masses, fine, coarse)
    ]

"""Quadrature over the unit disc against normalized area measure.

Two integration routes live here.

``integrate_disc`` is a generic product rule for black-box integrands:
Gauss-Legendre radially on [0, 1 - eps], uniform trapezoid in the angle,
then Richardson extrapolation of the clip radius eps -> 0.  It is the
right tool for integrands that are smooth away from the boundary.

The Poisson-weighted route handles the weights this package actually
integrates against: an atomic Poisson kernel (or plain arc length) times
(1 - |z|^2)^(n-1).  The Poisson factor is an angular spike near its atom
that uniform sampling aliases badly, so instead of sampling it we sample
only the smooth |h|^2 factor, take its angular Fourier coefficients, and
convolve with the Poisson kernel's known coefficients r^|d|.  The angular
step is then exact for band-limited integrands and the radial profile is
smooth on the whole of [0, 1]; no clipping is needed.  The samples do not
depend on the atom, so a whole measure costs one sampling per grid.
``_poisson_energies`` checks stacked samplings of many functions
(``_checked_squares``) and contracts the stack against every part at
once, arc length and atoms alike (``_poisson_contractions``).
``dirichlet._quadrature_values`` samples the stack of polynomials with
one inverse FFT per ring (``_ring_samples``); ``poisson_weighted_energy``
is the front for a black-box h, one sampling per grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .measures import Atom, CircleMeasure


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
    return np.polynomial.legendre.leggauss(n)

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


#: Cells of one batched step: grid nodes times samplings, or coefficient
#: rows times columns.  It bounds the memory of a batch, not its floats.
_CELL_BUDGET = 96 * 256


def _runs(count: int, rows: int) -> list[slice]:
    """Runs over ``count`` columns of ``rows`` cells each, in order, of at
    most ``_CELL_BUDGET`` cells, or one column where it alone exceeds it."""
    width = max(1, _CELL_BUDGET // rows)
    return [slice(start, start + width) for start in range(0, count, width)]


#: Holds every grid, half grids included, that ``for_polynomial`` picks for
#: degrees 0-20 at orders 1-4 (126 shapes with the default pair), and so
#: every grid of ``verify all``; full of the largest shapes ``for_polynomial``
#: can pick, it holds about 58 MB.
@lru_cache(maxsize=256)
def _poisson_grid(radial: int, angular: int) -> tuple[np.ndarray, ...]:
    """Read-only radii r, radial weights, nodes z and Poisson kernel
    coefficients r^d for d = 0 .. angular // 2 (one row per radius) of one
    grid."""
    r, wr = _radial_rule(radial, 1.0)
    z = r[:, None] * np.exp(1j * _angles(angular))[None, :]
    kernel = r[:, None] ** np.arange(angular // 2 + 1)
    for array in (r, wr, z, kernel):
        array.setflags(write=False)
    return r, wr, z, kernel


#: One table per grid and order; a default-grid table is 99 KB, so a full
#: cache holds at most about 25 MB.
@lru_cache(maxsize=256)
def _spectral_weights(radial: int, angular: int, order: int) -> np.ndarray:
    """Read-only weights W(r, d) = c_d wr (1 - r^2)^(order-1) r^d / angular
    of the half-spectrum d = 0 .. angular // 2 of one grid, one row per
    radius.  c_d counts the DFT frequencies that column d stands for, d and
    -d: 2, but 1 for d = 0 and, for an even angular, for the Nyquist
    frequency angular / 2, which is the same DFT term as -angular / 2."""
    r, wr, _, kernel = _poisson_grid(radial, angular)
    counts = np.full(angular // 2 + 1, 2.0)
    counts[0] = 1.0
    if angular % 2 == 0:
        counts[-1] = 1.0
    radial_weights = wr * (1.0 - r**2) ** (order - 1) / angular
    table = radial_weights[:, None] * kernel * counts
    table.setflags(write=False)
    return table


def _ring_samples(coeffs: np.ndarray, radial: int, angular: int) -> np.ndarray:
    """Polynomials sampled on the nodes of the ``(radial, angular)`` grid.

    ``coeffs`` is one coefficient vector c_0..c_D, sampled into a
    ``(radial, angular)`` array, or a block with one polynomial per column
    (``functions._coefficient_block``), sampled into one such array per
    column.  At the node r_i e^(2 pi i j / A) of ring i the value
    sum_k c_k r_i^k e^(2 pi i j k / A) is the unscaled inverse DFT of the
    ring's spectrum c_k r_i^k, with k folded modulo A where D >= A: one
    inverse FFT per ring, O(A log A) in place of Horner's O(A D).  The
    powers r^0..r^(A // 2) are the columns of the grid's Poisson kernel;
    only a higher degree computes more.  A term c_k r^k = (a + ib) r is a
    product with the power cast to complex, a r - b 0 + i (a 0 + b r), so
    each part is rounded once.  The folds add in order of k, so a column
    of a block gets the floats of its own call: a zero-padded term adds
    +0.0, which can move only the sign of a zero.

    With u the unit roundoff, S = sum_k |c_k| r_i^k on ring i and F the
    number of folds, the spectrum is off by at most (3 + F) u S in all:
    2u for a power from ``**``, u for its product and u for each fold sum.
    A level of the FFT, y = a + w b, adds at most (2 sqrt(2) + 2) u (|a| +
    |b|), a complex product and a sum, and the moduli feeding one sample
    add up to S on every level, so over its log2 A levels a sample is off
    by at most about (5 log2 A + 3 + F) u S.
    """
    block = coeffs.reshape(len(coeffs), -1).T
    count = block.shape[1]
    r, _, _, kernel = _poisson_grid(radial, angular)
    known = min(count, angular // 2 + 1)
    powers = kernel[:, :known]
    if count > known:
        powers = np.hstack([powers, r[:, None] ** np.arange(known, count)])
    spectra = np.zeros((len(block), radial, angular), dtype=complex)
    for start in range(0, count, angular):
        terms = block[:, None, start:start + angular]
        ring_powers = powers[:, start:start + angular]
        spectra[..., :ring_powers.shape[1]] += terms * ring_powers
    np.fft.ifft(spectra, norm="forward", out=spectra)
    return spectra.reshape(coeffs.shape[1:] + (radial, angular))


def _checked_squares(samples: np.ndarray, z: np.ndarray) -> np.ndarray:
    """|h|^2 of stacked samplings of h on the nodes ``z``, one per row.

    Sampling by sampling in row order, a non-finite sample raises
    :class:`SingularIntegrandError` and a square beyond the float range
    ``OverflowError``, each naming the first such node of its sampling,
    as if each sampling were checked alone.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        squares = np.abs(samples)
        np.square(squares, out=squares)  # the floats of ** 2, in place
    # a square is finite exactly when its sample is and it does not
    # overflow; the max of the squares is NaN or inf exactly when one is not
    if not squares.max() < np.inf:
        for values, square in zip(samples, squares):
            _check_finite(values, z)
            overflow = np.isinf(square)
            if overflow.any():
                raise OverflowError(
                    "overflow: |h|^2 exceeds the float range at node "
                    f"{z[overflow][0]}"
                )
    return squares


def _factorial_norm(order: int) -> float | int:
    """n! (n-1)! as a float where the float is exact (orders up to 14),
    else as an int, which leaves the float range from order 99 on."""
    norm = math.factorial(order) * math.factorial(order - 1)
    return float(norm) if norm.bit_length() < 1024 and float(norm) == norm else norm


def _poisson_contractions(
    squares: np.ndarray, order: int, measures
) -> list[list[float]]:
    """Unit-mass energies of stacked |h|^2 samplings on one grid.

    ``squares[j]`` is sampled on the nodes of the ``(radial, angular)``
    grid of its shape and integrated against each of
    ``measures[j].parts``, in that order.  A part's Poisson integral is
    sum_d p_d r^|d| e^(i d theta): p_d = e^(i d a) for an atom at angle a,
    and for arc length, whose Poisson integral is 1, p_0 = 1 alone.  With
    S(r, .) the DFT of ring r, the part's sum is the exact angular
    integral sum_d r^|d| p_d S(r, d) / A over the A frequencies, against
    the radial weights wr (1 - r^2)^(order-1).  |h|^2 is real, so the
    terms at d and -d are conjugates, and the sum runs over the
    half-spectrum d = 0 .. A // 2 of ``np.fft.rfft`` with the weights
    W(r, d) of :func:`_spectral_weights`.  Both sums are finite, so the
    radial sum goes first: T_d = sum_r W(r, d) S(r, d), one row per
    sampling, and a part's sum is Re sum_d T_d p_d, one phase table,
    product and last-axis sum for every part; arc length's is Re T_0.
    Every sampling gets the floats it would get alone.  A part whose sum
    leaves the float range raises ``OverflowError``.
    """
    radial, angular = squares.shape[-2:]
    # sums[i] integrates squares[owners[i]] against the part columns[i]
    owners = np.repeat(np.arange(len(measures)), [len(m.parts) for m in measures])
    columns = [part for measure in measures for part in measure.parts]
    atoms = [i for i, part in enumerate(columns) if isinstance(part, Atom)]
    angles = np.array([columns[i].angle for i in atoms])
    # arc length's Poisson integral is 1, whose one coefficient is d = 0
    phases = np.zeros((len(columns), angular // 2 + 1), dtype=complex)
    phases[:, 0] = 1.0
    phases[atoms] = np.exp(1j * np.arange(angular // 2 + 1) * angles[:, None])
    # finite squares may still overflow a sum, which the check below names
    with np.errstate(over="ignore", invalid="ignore"):
        spectra = np.fft.rfft(squares, axis=-1)
        spectra *= _spectral_weights(radial, angular, order)
        rows = spectra.sum(axis=-2)
        sums = (rows[owners] * phases).sum(axis=-1).real
    if not np.isfinite(sums).all():
        raise OverflowError(
            f"overflow: the order-{order} energy on the {radial}x{angular} "
            "grid exceeds the float range"
        )
    # the integrand |h|^2 * weight is non-negative; clip roundoff dust and
    # -0.0 to +0.0, then divide with one rounding
    sums = np.where(sums > 0.0, sums, 0.0)
    norm = _factorial_norm(order)
    if isinstance(norm, float):
        values = (sums / norm).tolist()
    else:
        values = [float(Fraction(x) / norm) for x in sums.tolist()]
    values = iter(values)
    return [[next(values) for _ in measure.parts] for measure in measures]


def _poisson_energies(
    sample, order: int, spec: QuadratureSpec, measures
) -> list[list[tuple[float, float]]]:
    """(value, error estimate) pairs of the parts of each measure.

    ``sample(z, run)`` returns the stacked samplings of h for
    ``measures[run]`` on the nodes ``z``.  Each grid of ``spec`` and its
    half grid is sampled in :func:`_runs` of at most ``_CELL_BUDGET``
    nodes times samplings, and the values of both grids are paired as in
    :func:`poisson_weighted_energy`.
    """
    grids = ((spec.radial, spec.angular),
             (max(spec.radial // 2, 4), max(spec.angular // 2, 8)))
    energies = []
    for radial, angular in grids:
        z = _poisson_grid(radial, angular)[2]
        energies.append([])
        for run in _runs(len(measures), z.size):
            squares = _checked_squares(sample(z, run), z)
            energies[-1] += _poisson_contractions(squares, order, measures[run])
    fine, coarse = energies
    return [
        [(value, abs(value - half)) for value, half in zip(values, halves)]
        for values, halves in zip(fine, coarse)
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

    Returns one (value, error estimate) pair per part, each at unit mass,
    in the order of :attr:`CircleMeasure.parts`.  :meth:`CircleMeasure.weigh`
    adds them up to the integral against the whole measure.  Each of the
    two grids is sampled once and contracted against all parts at once,
    each a row of one phase table.  This is the black-box front of the
    contraction that ``dirichlet._quadrature_values`` runs on stacked
    samplings.  A part whose sum leaves the float range raises
    ``OverflowError`` naming the order and the grid.

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
    (pairs,) = _poisson_energies(
        lambda z, run: _sample(values_fn, z)[None], order, spec, [measure]
    )
    return pairs

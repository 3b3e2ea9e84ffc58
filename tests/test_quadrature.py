"""Disc-quadrature engine tests."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from dirikit import (
    AnalyticFunction,
    Atom,
    CircleMeasure,
    QuadratureSpec,
    SingularIntegrandError,
    dirichlet_weighted,
    integrate_disc,
    poisson_weighted_energy,
)
from dirikit.functions import _coefficient_block, evaluate
from dirikit.quadrature import (
    _extrapolation_weights,
    _poisson_contractions,
    _poisson_grid,
    _ring_samples,
    _spectral_weights,
)


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(radial=2)
    with pytest.raises(ValueError):
        QuadratureSpec(angular=4)
    # the clip and the levels are integrate_disc's own arguments
    ones = lambda z: np.ones_like(z)
    with pytest.raises(ValueError, match="boundary clip"):
        integrate_disc(ones, QuadratureSpec(), clip=0.7)
    with pytest.raises(ValueError, match="refinement levels"):
        integrate_disc(ones, QuadratureSpec(), levels=-1)


def test_spec_json_round_trip():
    spec = QuadratureSpec(radial=32, angular=64)
    assert spec.to_json() == {"radial": 32, "angular": 64}
    assert QuadratureSpec(**spec.to_json()) == spec


def test_spec_csv():
    spec = QuadratureSpec.from_csv("48, 128")
    assert spec == QuadratureSpec(48, 128)
    for text in ("48,128,0.03125,3", "48"):
        with pytest.raises(ValueError, match="'radial,angular'"):
            QuadratureSpec.from_csv(text)


def test_normalization():
    value, _ = integrate_disc(lambda z: np.ones_like(z), QuadratureSpec())
    assert value == pytest.approx(1.0, abs=1e-13)


def test_radial_moment():
    # oracle: the polar Beta integral gives 1/(k+1) for |z|^(2k)
    value, estimate = integrate_disc(lambda z: np.abs(z) ** 2, QuadratureSpec())
    assert value == pytest.approx(0.5, abs=1e-9)
    assert estimate < 1e-8


def test_weighted_bergman_normalization():
    value, _ = integrate_disc(
        lambda z: 3.0 * (1.0 - np.abs(z) ** 2) ** 2, QuadratureSpec()
    )
    assert value == pytest.approx(1.0, abs=1e-10)


def test_monomial_integrals_with_clipping():
    # deep refinement makes the clip extrapolation exact for these degrees
    spec = QuadratureSpec(radial=96, angular=64)
    for a in range(0, 13, 3):
        for b in range(0, 13, 3):
            value, _ = integrate_disc(
                lambda z: z**a * np.conj(z) ** b, spec, clip=2.0**-6, levels=10
            )
            expected = 1.0 / (a + 1) if a == b else 0.0
            assert abs(value - expected) <= 1e-12


def test_monomial_integrals_full_disc():
    # clip = 0 integrates the full disc; rule is exact for band-limited input
    spec = QuadratureSpec(radial=32, angular=64)
    for a in range(0, 13, 4):
        value, estimate = integrate_disc(
            lambda z: z**a * np.conj(z) ** a, spec, clip=0.0, levels=0
        )
        assert abs(value - 1.0 / (a + 1)) <= 1e-14
        assert estimate == 0.0


def test_monotone_error_estimates_on_smooth_battery():
    # integrate_disc's default clip 2^-6 and 4 levels
    base = QuadratureSpec(48, 64)
    doubled = QuadratureSpec(96, 128)
    battery = [
        lambda z: np.ones_like(z),
        lambda z: np.abs(z) ** 2,
        lambda z: z**2 * np.conj(z) ** 2,
        lambda z: (1.0 - np.abs(z) ** 2) ** 2,
        lambda z: np.real(z) ** 3 + 1.0,
    ]
    for integrand in battery:
        _, est_base = integrate_disc(integrand, base)
        _, est_doubled = integrate_disc(integrand, doubled)
        # 1e-15 slack: estimates this small are roundoff noise
        assert est_doubled <= est_base + 1e-15


def test_extrapolation_weights_exact():
    # Lagrange weights to gap 0 on the nodes 2^-l: they reproduce every
    # polynomial of degree <= levels at 0, so they sum to 1 and kill h^k;
    # the differences to the coarser rule reproduce 0 on constants
    for levels in range(1, 11):
        weights, differences = _extrapolation_weights(levels)
        assert all(isinstance(w, Fraction) for w in weights + differences)
        assert sum(weights) == 1
        assert sum(differences) == 0
        assert differences[-1] == weights[-1]
        for k in range(1, levels + 1):
            assert sum(w * Fraction(1, 2**l) ** k for l, w in enumerate(weights)) == 0


def test_singular_integrand_identifies_node():
    def bad(z):
        values = np.ones_like(z)
        values[np.abs(z) < 0.5] = np.inf
        return values

    with pytest.raises(SingularIntegrandError) as info:
        integrate_disc(bad, QuadratureSpec())
    assert abs(info.value.node) < 0.5


def test_integrand_must_return_the_shape_of_its_nodes():
    spec = QuadratureSpec(16, 32)
    value, _ = integrate_disc(lambda z: abs(z) ** 2, spec, clip=0.0, levels=0)
    assert value == pytest.approx(0.5, abs=1e-13)
    # an integrand is called once on the whole node array, never per point
    for integrand in (lambda z: 1.0, lambda z: np.abs(z).ravel()):
        with pytest.raises(ValueError, match="integrand returned shape"):
            integrate_disc(integrand, spec)
        with pytest.raises(ValueError, match="integrand returned shape"):
            poisson_weighted_energy(integrand, 1, spec)


def test_poisson_weighted_energy_against_series():
    # atom route for h = f^(n) must reproduce binom(k, n) on monomials;
    # oracle here is the hockey-stick value, not the decomposition code
    spec = QuadratureSpec()
    for k, n in [(2, 1), (5, 2), (9, 3)]:
        scale = math.factorial(k) / math.factorial(k - n)

        def h(z, scale=scale, k=k, n=n):
            return scale * z ** (k - n)

        for angle in [0.0, 2.0, 4.4]:
            [(value, estimate)] = poisson_weighted_energy(
                h, n, spec, measure=CircleMeasure.point_mass(angle)
            )
            assert value == pytest.approx(math.comb(k, n), rel=1e-12)
            assert estimate <= 1e-10


def test_poisson_weighted_energy_sigma_route():
    # h = (z^3)'' = 6z against the order-2 arc-length weight; oracle is
    # the coefficient series value binom(3, 2) = 3
    [(value, _)] = poisson_weighted_energy(lambda z: 6.0 * z, 2, QuadratureSpec())
    assert value == pytest.approx(3.0, rel=1e-12)


def test_poisson_weighted_energy_rejects_order_zero():
    with pytest.raises(ValueError):
        poisson_weighted_energy(lambda z: z, 0, QuadratureSpec())


def test_quadrature_determinism():
    spec = QuadratureSpec()
    first = integrate_disc(lambda z: np.abs(z) ** 4 + np.real(z), spec)
    second = integrate_disc(lambda z: np.abs(z) ** 4 + np.real(z), spec)
    assert first == second
    atom = CircleMeasure.point_mass(1.0)
    a = poisson_weighted_energy(lambda z: z**2, 2, spec, measure=atom)
    b = poisson_weighted_energy(lambda z: z**2, 2, spec, measure=atom)
    assert a == b


def test_poisson_weighted_energy_parts_in_measure_order():
    # one unit-mass pair per part, whatever its mass: arc length, then the
    # atoms sorted by angle; the zero measure has no parts
    spec = QuadratureSpec(32, 64)

    def h(z):
        return 3.0 * z**2 + 1.0

    measure = CircleMeasure(
        (Atom(2.0, 0.5), Atom(-1.0, 3.0), Atom(0.25, 1.5)), 0.75
    )
    parts = poisson_weighted_energy(h, 2, spec, measure)
    singles = [poisson_weighted_energy(h, 2, spec)[0]] + [
        poisson_weighted_energy(h, 2, spec, CircleMeasure.point_mass(a.angle))[0]
        for a in measure.atoms
    ]
    assert [a.mass for a in measure.atoms] == [1.5, 0.5, 3.0]
    assert parts == singles
    assert poisson_weighted_energy(h, 2, spec, CircleMeasure.zero()) == []


def test_poisson_grid_constants_are_cached_and_read_only():
    grid = _poisson_grid(48, 128)
    assert _poisson_grid(48, 128) is grid
    r, wr, z, kernel = grid
    assert z.shape == (48, 128) and kernel.shape == (48, 65)
    assert r.shape == wr.shape == (48,)
    for array in grid:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0


def test_ring_samples_fold_within_the_derived_bound():
    # degree 40 on QuadratureSpec(8, 16) and its 4x8 half grid folds the
    # spectrum F = 3 and 6 times.  With u the unit roundoff, S = sum |c_k| r^k
    # and T = sum k |c_k| r^(k-1) on a ring, each sample is within the
    # docstring's (5 log2 A + 3 + F) u S of the exact value at its ring node
    # r e^(2 pi i j / A) (mpmath, 200 bits).  Against evaluate on the float
    # node z it may also be off by Horner's error, at most (2 sqrt(2) + 1)
    # D u S (one complex product and sum per step), and by the move of the
    # node, at most |z - r e^(2 pi i j / A)| T.
    u = 2.0**-53
    rng = np.random.default_rng(40)
    functions = [
        AnalyticFunction(rng.standard_normal(41) + 1j * rng.standard_normal(41))
        for _ in range(3)
    ]
    with mpmath.workprec(200):
        for f in functions:
            coeffs = f.coeffs.tolist()
            for radial, angular in ((8, 16), (4, 8)):
                r, _, z, _ = _poisson_grid(radial, angular)
                samples = _ring_samples(f.coeffs, radial, angular)
                horner = evaluate(f, z)
                folds = -(-len(coeffs) // angular)
                ring_bound = (5 * math.log2(angular) + 3 + folds) * u
                for i, radius in enumerate(r.tolist()):
                    s = sum(abs(c) * radius**k for k, c in enumerate(coeffs))
                    t = sum(k * abs(c) * radius ** (k - 1) for k, c in enumerate(coeffs))
                    for j in range(angular):
                        node = radius * mpmath.expjpi(mpmath.mpf(2 * j) / angular)
                        exact = mpmath.polyval(coeffs[::-1], node)
                        assert abs(mpmath.mpc(samples[i, j]) - exact) <= ring_bound * s
                        shift = float(abs(mpmath.mpc(z[i, j]) - node))
                        assert abs(samples[i, j] - horner[i, j]) <= (
                            ring_bound * s + (2 * math.sqrt(2) + 1) * 40 * u * s
                            + shift * t
                        )
    # a block with degrees below, at and above the fold gives each column
    # the floats of its own call
    functions += [AnalyticFunction(rng.standard_normal(d + 1)) for d in (0, 7, 15, 16)]
    block = _coefficient_block(functions, [len(f.coeffs) for f in functions])
    for radial, angular in ((8, 16), (4, 8)):
        batch = _ring_samples(block, radial, angular)
        assert batch.shape == (len(functions), radial, angular)
        for f, samples in zip(functions, batch):
            assert np.array_equal(samples, _ring_samples(f.coeffs, radial, angular))


def _prime_factors(n):
    factors, p = [], 2
    while n > 1:
        while n % p == 0:
            factors.append(p)
            n //= p
        p += 1
    return factors


def _full_spectrum_sums(squares, order, angles):
    # the contraction over the whole DFT: the complex FFT of each ring, the
    # kernel r^|d| and the phase e^(i d a) for every frequency d of fftfreq
    radial, angular = squares.shape
    r, wr, _, _ = _poisson_grid(radial, angular)
    freqs = np.rint(np.fft.fftfreq(angular, 1.0 / angular)).astype(int)
    smoothed = np.fft.fft(squares, axis=-1) / angular * r[:, None] ** np.abs(freqs)
    weight = (1.0 - r**2) ** (order - 1)
    return [
        float((wr * (smoothed * np.exp(1j * freqs * a)).sum(axis=-1).real * weight).sum())
        for a in angles
    ]


def test_half_spectrum_contraction_matches_the_full_spectrum_within_the_derived_bound():
    # The exact atom sum is a sum of terms t = wr w r^|d| s_j e^(i d (a -
    # theta_j)) / A over rings, nodes j and all A frequencies d, and each
    # route rounds every term at most L times, so the two differ by at most
    # (L_full + L_half) u sum |t|.  Both take w = (1 - r^2)^(n-1), r^|d|
    # and the phase from the same float expressions, so only these count:
    # an FFT level of radix p, p - 1 sums and a twiddle product (p + 3);
    # the full route's 1 / A, kernel, phase and wr and w products (7), its
    # pairwise frequency and radial sums; the half route's table of 3
    # products and its product with the spectrum (4), its phase product (3),
    # its radial sum in order (R - 1) and pairwise frequency sum; and the
    # division by n! (n-1)! (1 each).  Random squares that are not
    # band-limited fill every frequency, the Nyquist term included.
    # An arc-length sum is Re T_0, whose terms t = wr w s_j / A are all
    # non-negative, so sum |t| is the sum itself.  Against the angular
    # mean it is checked with: the mean's pairwise sum and 1 / A, its wr
    # and w products and pairwise radial sum (ceil log2 A + 3 + ceil log2
    # R); the FFT's DC sum, which the atom bound's FFT levels cover, the
    # table and its product with the spectrum (4), the radial sum in order
    # (R - 1), and the phase product and frequency sum, which meet only
    # the exact 1 and 0 of the arc's row but are counted as for an atom;
    # and the division by n! (n-1)! (1 each).
    u = 2.0**-53
    rng = np.random.default_rng(25)
    for radial, angular in ((8, 16), (8, 17), (12, 33), (96, 256)):
        r, wr, _, _ = _poisson_grid(radial, angular)
        fft_depth = sum(p + 3 for p in _prime_factors(angular))
        log_a = math.ceil(math.log2(angular))
        log_r = math.ceil(math.log2(radial))
        depth = (fft_depth + 7 + log_a + log_r + 1) + (
            fft_depth + 4 + 3 + radial - 1 + log_a + 1
        )
        arc_depth = (log_a + 3 + log_r + 1) + (
            fft_depth + 4 + radial - 1 + 3 + log_a + 1
        )
        freqs = np.fft.fftfreq(angular, 1.0 / angular)
        kernel_sums = (r[:, None] ** np.abs(freqs)).sum(axis=-1)
        squares = rng.random((4, radial, angular))
        for order in (1, 3):
            norm = math.factorial(order) * math.factorial(order - 1)
            weight = (1.0 - r**2) ** (order - 1)
            measures = [
                CircleMeasure(
                    tuple(Atom(a, 1.0) for a in rng.uniform(0, 2 * math.pi, k)), arc
                )
                for k, arc in ((1, 0.0), (4, 1.5), (2, 0.0), (0, 1.0))
            ]
            batch = _poisson_contractions(squares, order, measures)
            for square, measure, values in zip(squares, measures, batch):
                # a batch of samplings gives each the floats of its lone call
                assert values == _poisson_contractions(square[None], order, [measure])[0]
                if measure.lebesgue > 0:
                    arc, *values = values
                    mean = (wr * weight * square.mean(axis=-1)).sum() / norm
                    arc_terms = (wr * weight * square.sum(axis=-1)).sum() / angular
                    assert abs(arc - mean) <= arc_depth * u * arc_terms / norm
                angles = [atom.angle for atom in measure.atoms]
                terms = (wr * weight * square.sum(axis=-1) * kernel_sums).sum() / angular
                for got, full in zip(values, _full_spectrum_sums(square, order, angles)):
                    assert abs(got - max(full, 0.0) / norm) <= depth * u * terms / norm
    # mixed parts and a measure with none, each sampling as if alone
    squares = rng.random((4, 12, 33))
    measures = [
        CircleMeasure((Atom(0.3, 2.0), Atom(4.0, 0.5)), 0.75),
        CircleMeasure.arc_length(),
        CircleMeasure.zero(),
        CircleMeasure.point_mass(5.5),
    ]
    batch = _poisson_contractions(squares, 2, measures)
    assert [len(values) for values in batch] == [3, 1, 0, 1]
    for square, measure, values in zip(squares, measures, batch):
        assert values == _poisson_contractions(square[None], 2, [measure])[0]
    table = _spectral_weights(12, 33, 2)
    assert _spectral_weights(12, 33, 2) is table and table.shape == (12, 17)
    assert not table.flags.writeable


def _half_grid(spec):
    return max(spec.radial // 2, 4), max(spec.angular // 2, 8)


def test_polynomial_grid_and_its_half_grid_are_exact():
    # the bound of poisson_weighted_energy: radial >= deg f and angular >=
    # 2 deg f^(n) + 1; the full grid doubles the half grid, so both hold
    for degree in range(21):
        for order in range(1, 5):
            spec = QuadratureSpec.for_polynomial(degree, order)
            radial, angular = _half_grid(spec)
            assert radial >= degree
            assert angular >= 2 * (degree - order) + 1
            assert spec.radial <= 96 and spec.angular <= 256


def test_polynomial_grid_is_the_smallest_with_an_exact_half_grid():
    assert QuadratureSpec.for_polynomial(16, 1) == QuadratureSpec(32, 62)
    assert QuadratureSpec.for_polynomial(16, 4) == QuadratureSpec(32, 50)
    assert QuadratureSpec.for_polynomial(12, 4) == QuadratureSpec(24, 34)
    # f^(n) = 0 needs nothing beyond the half grid's floors
    assert QuadratureSpec.for_polynomial(2, 200) == QuadratureSpec(8, 16)
    assert QuadratureSpec.for_polynomial(0, 1) == QuadratureSpec(8, 16)


def test_polynomial_grid_never_exceeds_the_default():
    # from degree 49 on the radial rule would need more than 96 nodes
    assert QuadratureSpec.for_polynomial(48, 1) == QuadratureSpec(96, 190)
    assert QuadratureSpec.for_polynomial(49, 48) == QuadratureSpec()
    assert QuadratureSpec.for_polynomial(60, 1) == QuadratureSpec()


def test_choose_honors_a_given_spec_then_the_degree():
    given = QuadratureSpec(16, 16)
    assert QuadratureSpec.choose(given, 3, 1, True) is given
    assert QuadratureSpec.choose(None, 3, 1, True) == QuadratureSpec.for_polynomial(3, 1)
    # a truncation keeps the package default
    assert QuadratureSpec.choose(None, 3, 1, False) == QuadratureSpec()
    assert QuadratureSpec.for_polynomial(3, 1) == QuadratureSpec(8, 16)


def test_poisson_grid_cache_holds_every_chosen_shape():
    shapes = {(96, 256), (48, 128)}
    for degree in range(21):
        for order in range(1, 5):
            spec = QuadratureSpec.for_polynomial(degree, order)
            shapes |= {(spec.radial, spec.angular), _half_grid(spec)}
    assert len(shapes) <= _poisson_grid.cache_info().maxsize


def _energy_of_derivative(coeffs, order, spec, measure):
    # h = f^(n) of f = sum_k c_k z^k, sampled directly
    def h(z):
        return sum(
            c * math.perm(k, order) * z ** (k - order)
            for k, c in enumerate(coeffs)
            if k >= order
        )

    [(value, estimate)] = poisson_weighted_energy(h, order, spec, measure)
    return value, estimate


def test_radial_nodes_must_reach_the_degree_of_f():
    # deg f = 12 at order 4: Gauss-Legendre needs 12 radial nodes, not
    # deg f^(4) = 8; the exact value is the decomposition series
    rng = np.random.default_rng(11)
    coeffs = rng.uniform(-1, 1, 13) + 1j * rng.uniform(-1, 1, 13)
    atom = CircleMeasure.point_mass(1.3)
    exact = dirichlet_weighted(AnalyticFunction(tuple(coeffs)), atom, 4).value
    short, _ = _energy_of_derivative(coeffs, 4, QuadratureSpec(10, 64), atom)
    enough, _ = _energy_of_derivative(coeffs, 4, QuadratureSpec(12, 64), atom)
    assert abs(short - exact) > 1e-10 * exact
    assert abs(enough - exact) <= 1e-10 * exact


def test_error_estimate_covers_real_grid_error():
    # degree 12 at order 1 on 32 x 32: the grid is exact, its 16 x 16 half
    # grid is not (angular 16 < 2 * 11 + 1), so the estimate measures a real
    # quadrature error, and it must not understate the value's error
    rng = np.random.default_rng(12)
    coeffs = rng.uniform(-1, 1, 13) + 1j * rng.uniform(-1, 1, 13)
    atom = CircleMeasure.point_mass(0.4)
    exact = dirichlet_weighted(AnalyticFunction(tuple(coeffs)), atom, 1).value
    value, estimate = _energy_of_derivative(
        coeffs, 1, QuadratureSpec.from_csv("32,32"), atom
    )
    assert estimate >= abs(value - exact)
    assert estimate > 1e-6 * exact

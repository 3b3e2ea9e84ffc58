"""Dirichlet-core unit tests: every operation against an independent oracle."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from dirikit import (
    AnalyticFunction,
    Atom,
    BoundaryDivergenceError,
    CircleMeasure,
    QuadratureSpec,
    atomic_decompose,
    bergman_lift,
    dilation_factor,
    dirichlet_atomic_order_zero,
    dirichlet_kernel_section,
    dirichlet_kernel_value,
    dirichlet_sigma,
    dirichlet_sigma_inner,
    derivative,
    dirichlet_weighted,
    douglas_decompose,
    evaluate,
    integrate_disc,
    local_bergman_kernel,
    local_bergman_kernel_series,
    multiplier_norm_upper,
    multiplier_seminorm_estimate,
    multiplier_seminorm_upper,
    multiply,
    poisson_weighted_energy,
    szego_kernel_energy,
    szego_kernel_truncation,
    szego_potential,
)
from dirikit.dirichlet import _exact_power_series


def mono(k):
    return AnalyticFunction.monomial(k)


def hockey_stick(k, n):
    """Independent oracle: sum of binom(i, n-1) for i = n-1 .. k-1."""
    return sum(math.comb(i, n - 1) for i in range(n - 1, k))


# ---------------------------------------------------------------- series


def test_sigma_series_square():
    assert dirichlet_sigma(mono(2), 1).value == 2.0


def test_sigma_series_constant():
    for n in range(1, 4):
        assert dirichlet_sigma(AnalyticFunction((5.0,)), n).value == 0.0


def test_sigma_series_linear():
    f = AnalyticFunction((1.0, 1.0))
    assert dirichlet_sigma(f, 1).value == 1.0
    assert dirichlet_sigma(f, 0).value == 2.0


def test_sigma_inner_polarizes():
    f = AnalyticFunction((1.0, 2.0, 3.0))
    inner = dirichlet_sigma_inner(f, f, 1)
    assert inner == pytest.approx(dirichlet_sigma(f, 1).value)


# ---------------------------------------------------- weighted integrals


def test_weighted_square_at_atom():
    assert dirichlet_weighted(mono(2), CircleMeasure.point_mass(0.0), 1).value == 2.0


def test_monomial_law_derived_from_decomposition():
    # the decomposition path realizes sum binom(i, n-1) over the quotient's
    # coefficients; the hockey-stick oracle says that equals binom(k, n)
    rng = np.random.default_rng(11)
    for _ in range(20):
        k = int(rng.integers(0, 16))
        n = int(rng.integers(1, 5))
        angle = float(rng.uniform(0, 2 * math.pi))
        value = dirichlet_weighted(mono(k), CircleMeasure.point_mass(angle), n).value
        assert value == pytest.approx(hockey_stick(k, n), abs=1e-11)
        assert hockey_stick(k, n) == math.comb(k, n)


def test_weighted_constant_vanishes():
    measure = CircleMeasure((Atom(1.0, 2.0),), 0.5)
    for n in range(1, 4):
        assert dirichlet_weighted(AnalyticFunction((7.0,)), measure, n).value == 0.0


def test_weighted_rejects_order_zero():
    with pytest.raises(ValueError):
        dirichlet_weighted(mono(1), CircleMeasure.point_mass(0.0), 0)


def test_weighted_splits_parts():
    f = AnalyticFunction((0.3, 1.0, -0.5j))
    atom = CircleMeasure.point_mass(0.7, 1.3)
    arc = CircleMeasure.arc_length(0.4)
    both = CircleMeasure(atom.atoms, 0.4)
    for n in (1, 2):
        expected = (
            dirichlet_weighted(f, atom, n).value
            + dirichlet_weighted(f, arc, n).value
        )
        assert dirichlet_weighted(f, both, n).value == pytest.approx(expected)


def test_weighted_quadrature_matches_exact_path():
    spec = QuadratureSpec()
    f = AnalyticFunction((0.2, -0.4, 0.9j, 0.3))
    measure = CircleMeasure((Atom(2.2, 0.8),), 0.6)
    for n in (1, 2, 3):
        exact = dirichlet_weighted(f, measure, n).value
        quad = dirichlet_weighted(f, measure, n, spec, force_quadrature=True)
        assert quad.method == "quadrature"
        assert quad.value == pytest.approx(exact, rel=1e-10)


def test_truncation_takes_quadrature_route():
    f = AnalyticFunction((1.0, 0.5, 0.25), exact=False)
    result = dirichlet_weighted(f, CircleMeasure.point_mass(0.0), 1)
    assert result.method == "quadrature"


# ------------------------------------------------------------ order zero


def test_order_zero_constant():
    assert dirichlet_atomic_order_zero(
        AnalyticFunction((1.0,)), CircleMeasure.point_mass(0.0)
    ).value == 1.0


def test_order_zero_root_at_atom():
    f = AnalyticFunction((-1.0, 1.0))
    assert dirichlet_atomic_order_zero(f, CircleMeasure.point_mass(0.0)).value == 0.0


def test_order_zero_two_atoms():
    measure = CircleMeasure((Atom(0.0, 0.5), Atom(math.pi, 0.5)))
    assert dirichlet_atomic_order_zero(mono(1), measure).value == pytest.approx(1.0)


def test_order_zero_requires_atomic():
    with pytest.raises(ValueError):
        dirichlet_atomic_order_zero(mono(1), CircleMeasure.arc_length())


def test_order_zero_divergent():
    f = AnalyticFunction(tuple(10.0**k for k in range(25)), exact=False)
    with pytest.raises(BoundaryDivergenceError):
        dirichlet_atomic_order_zero(f, CircleMeasure.point_mass(0.0))


# -------------------------------------------------------- decomposition


def test_douglas_square():
    cert = douglas_decompose(mono(2), 1.0, 2)
    assert cert.alpha == 1.0
    assert cert.quotient.coeffs.tolist() == [1.0, 1.0]
    assert cert.rhs == 1.0
    assert cert.residual < 1e-10


def test_douglas_constant():
    cert = douglas_decompose(AnalyticFunction((2.0,)), 1.0j, 1)
    assert cert.alpha == 2.0
    assert cert.lhs == pytest.approx(0.0, abs=1e-12)
    assert cert.rhs == 0.0


def test_douglas_cube_at_minus_one():
    cert = douglas_decompose(mono(3), -1.0, 1)
    assert cert.alpha == pytest.approx(-1.0)
    assert np.allclose(cert.quotient.coeffs, (1.0, -1.0, 1.0))
    assert cert.rhs == pytest.approx(3.0)
    assert cert.residual < 1e-10


def test_douglas_rejects_divergent():
    f = AnalyticFunction(tuple(10.0**k for k in range(25)), exact=False)
    with pytest.raises(BoundaryDivergenceError):
        douglas_decompose(f, 1.0, 1)


# -------------------------------------------------------------- lift map


def test_bergman_lift_constant():
    assert bergman_lift(AnalyticFunction((1.0,)), 1.0, 1).coeffs.tolist() == [1.0]


def test_bergman_lift_linear():
    lifted = bergman_lift(mono(1), 1.0, 1)
    assert lifted.coeffs.tolist() == [-1.0, 2.0]
    assert bergman_lift(mono(1), 1.0, 2).coeffs.tolist() == [2.0]


# ---------------------------------------------------------------- kernels


def test_kernel_value_starts_at_order():
    value, _ = dirichlet_kernel_value(0.0, 0.0, 1, 50)
    assert value == 0.0


def test_kernel_value_geometric():
    value, tail = dirichlet_kernel_value(0.5, 0.5, 0, 200)
    assert value == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert tail < 1e-100


def test_kernel_value_logarithmic():
    # oracle: sum (z wbar)^k / k = -log(1 - z wbar)
    value, _ = dirichlet_kernel_value(0.5, 0.5, 1, 200)
    assert value == pytest.approx(-math.log(0.75), abs=1e-12)


def test_kernel_section_reproduces():
    w = 0.3 - 0.25j
    f = AnalyticFunction((0.0, 1.0, -2.0, 0.5j))
    section = dirichlet_kernel_section(w, 1, 10)
    paired = dirichlet_sigma_inner(f, section, 1)
    direct = sum(f.coeffs[k] * w**k for k in range(1, 4))
    assert paired == pytest.approx(direct, abs=1e-12)


def test_local_bergman_kernel_vanishes_at_atom():
    lam = cmath.exp(0.3j)
    assert local_bergman_kernel(lam, 0.2, lam, 2) == 0.0


def test_local_bergman_kernel_at_origin():
    assert local_bergman_kernel(0.0, 0.0, 1.0, 1) == pytest.approx(2.0)
    assert local_bergman_kernel(0.0, 0.0, 1.0, 2) == pytest.approx(6.0)


def test_local_bergman_kernel_series_matches():
    lam = cmath.exp(1.1j)
    closed = local_bergman_kernel(0.4j, -0.3, lam, 2)
    series = local_bergman_kernel_series(0.4j, -0.3, lam, 2, 200)
    assert closed == pytest.approx(series, abs=1e-12)


def test_local_bergman_kernel_series_survives_cancellation():
    # at order 90, x = z conj(w) = 0.294 e^(-2.51i): terms up to 4e12 add
    # up to 1.2e-9, which a floating-point sum cannot resolve (it gives
    # 1.6e-3); the exact sum of 451 terms (a tail below 2^-60) matches the
    # closed form
    z = 0.42 * cmath.exp(2j * math.pi * 2.3 / 5)
    w = 0.7 * cmath.exp(2j * math.pi * 4.3 / 5)
    lam = cmath.exp(1j * (0.7 * 2 + 1.9 * 4))
    closed = local_bergman_kernel(z, w, lam, 90)
    series = local_bergman_kernel_series(z, w, lam, 90, 451)
    assert abs(series - closed) <= 1e-12 * abs(closed)


def test_exact_power_series_rounds_once():
    assert _exact_power_series([1, 2, 3], 0.5 + 0.25j) == 2.5625 + 1.25j
    # oracle: the same polynomial in exact rationals, rounded once
    p, q = Fraction(0.1), Fraction(-0.3)
    re = 1 + 2 * p + 3 * (p * p - q * q)
    im = 2 * q + 6 * p * q
    assert _exact_power_series([1, 2, 3], 0.1 - 0.3j) == complex(float(re), float(im))


# ------------------------------------------------------------------ szego


def test_szego_energy_vanishes_at_origin():
    for n in (1, 2, 3):
        assert szego_kernel_energy(0.0, CircleMeasure.point_mass(1.0), n) == 0.0


def test_szego_energy_point_mass():
    value = szego_kernel_energy(0.5, CircleMeasure.point_mass(0.0), 1)
    assert value == pytest.approx(4.0 / 3.0)


def test_szego_energy_arc_length_formula():
    # oracle: coefficient series sum binom(k, n) |w|^(2k)
    measure = CircleMeasure.arc_length(1.0)
    for n in (1, 2, 3):
        for w in (0.3, 0.5j, -0.6):
            closed = szego_kernel_energy(w, measure, n)
            x = abs(w) ** 2
            expected = x**n / (1.0 - x) ** (n + 1)
            assert closed == pytest.approx(expected, rel=1e-12)


def test_szego_truncation_coefficients():
    f = szego_kernel_truncation(0.5j, 4)
    assert not f.exact
    assert f.coeffs.tolist() == [(-0.5j) ** k for k in range(5)]


def test_szego_potential_consistency():
    # the energy is the potential times the prefactor by construction;
    # check against the quadrature route instead for independence
    w = 0.5
    measure = CircleMeasure.point_mass(0.0)
    quad = dirichlet_weighted(
        szego_kernel_truncation(w, 60), measure, 1, QuadratureSpec()
    ).value
    assert quad == pytest.approx(szego_kernel_energy(w, measure, 1), rel=1e-8)
    assert szego_potential(measure, w) == pytest.approx(4.0)


# --------------------------------------------------------------- dilation


def test_dilation_factor_values():
    assert dilation_factor(0.0, 3) == 0.0
    assert dilation_factor(0.5, 1) == pytest.approx(0.375)
    assert dilation_factor(0.5, 2) == pytest.approx(1.0 / 6.0)


def test_dilation_factor_rejects_bad_input():
    with pytest.raises(ValueError):
        dilation_factor(1.0, 1)
    with pytest.raises(ValueError):
        dilation_factor(0.5, 0)


# ------------------------------------------------------- atomic splitting


def test_atomic_decompose_single_atom():
    split = atomic_decompose(mono(2), [0.0], 1)
    assert np.allclose(split.interpolant.coeffs, (1.0,))
    assert np.allclose(split.quotient.coeffs, (1.0, 1.0))
    assert split.residual < 1e-12


def test_atomic_decompose_two_atoms():
    split = atomic_decompose(mono(2), [0.0, math.pi], 1)
    assert np.allclose(split.interpolant.coeffs[0], 1.0)
    assert np.allclose(split.quotient.coeffs, (1.0,))
    assert split.residual < 1e-12


def test_atomic_decompose_low_degree_gives_zero_quotient():
    f = AnalyticFunction((0.5, 1.0j))
    split = atomic_decompose(f, [0.1, 1.7, 3.0], 2)
    assert np.max(np.abs(split.quotient.coeffs)) < 1e-12
    assert split.residual < 1e-12


def test_atomic_decompose_rejects_duplicates():
    with pytest.raises(ValueError):
        atomic_decompose(mono(2), [0.0, 0.0], 1)


# -------------------------------------------------- multiplier seminorms


def test_multiplier_identity():
    one = AnalyticFunction((1.0,))
    for j in (0, 1, 2):
        assert multiplier_seminorm_estimate(one, j, j + 8) == pytest.approx(1.0)


def test_multiplier_shift_hardy():
    z = AnalyticFunction((0.0, 1.0))
    assert multiplier_seminorm_estimate(z, 0, 10) == pytest.approx(1.0)


def test_multiplier_shift_weighted():
    # weighted shift with ratios sqrt((k+1)/k); supremum sqrt(2) at k = 1
    z = AnalyticFunction((0.0, 1.0))
    assert multiplier_seminorm_estimate(z, 1, 6) == pytest.approx(math.sqrt(2.0))


def test_multiplier_estimate_monotone_and_below_upper():
    phi = AnalyticFunction((0.5, -1.0, 0.25j, 0.7))
    previous = 0.0
    for section in (6, 12, 24, 48):
        estimate = multiplier_seminorm_estimate(phi, 2, section)
        assert estimate >= previous - 1e-12
        assert estimate <= multiplier_seminorm_upper(phi, 2, section) + 1e-12
        previous = estimate
    # the certified bound at doubled degree still dominates a much larger
    # section estimate
    assert multiplier_seminorm_estimate(phi, 2, 96) <= multiplier_seminorm_upper(
        phi, 2, 48
    )


def test_multiplier_requires_reachable_section():
    with pytest.raises(ValueError):
        multiplier_seminorm_estimate(AnalyticFunction((1.0, 1.0)), 2, 2)
    with pytest.raises(ValueError):
        multiplier_norm_upper(AnalyticFunction((1.0, 1.0)), 2, 2)


def _norm_section_estimate(phi, order, section_degree):
    """Independent oracle: largest singular value of multiplication by phi
    on z^0 .. z^N in the full order-j norm, weights sum_{i<=j} binom(k, i)."""

    def weight(k):
        return sum(math.comb(k, i) for i in range(order + 1))

    matrix = np.zeros((section_degree + phi.degree + 1, section_degree + 1), complex)
    for k in range(section_degree + 1):
        for p, c in enumerate(phi.coeffs):
            matrix[k + p, k] = c * math.sqrt(weight(k + p) / weight(k))
    return float(np.linalg.norm(matrix, ord=2))


def test_multiplier_norm_upper_order_zero_is_seminorm_bound():
    # at order 0 the full norm is the Hardy norm, i.e. the seminorm
    phi = AnalyticFunction((0.5, -1.0, 0.25j, 0.7))
    for section in (3, 10, 40):
        assert multiplier_norm_upper(phi, 0, section) == multiplier_seminorm_upper(
            phi, 0, section
        )


def test_multiplier_norm_upper_shift():
    # z^k -> z^(k+1) has norm ratio sqrt((k+2)/(k+1)) in the order-1 norm,
    # largest at k = 0, so the multiplier norm of z is sqrt(2)
    z = AnalyticFunction((0.0, 1.0))
    assert _norm_section_estimate(z, 1, 20) == pytest.approx(math.sqrt(2.0))
    for section in (2, 8, 40):
        assert multiplier_norm_upper(z, 1, section) >= math.sqrt(2.0)


def test_multiplier_norm_upper_dominates_larger_sections():
    phi = AnalyticFunction((0.5, -1.0, 0.25j, 0.7))
    for order in (1, 2, 3):
        upper = multiplier_norm_upper(phi, order, 48)
        assert _norm_section_estimate(phi, order, 96) <= upper


def test_multiplier_inequality_counterexample():
    """The seminorm product inequality fails for orders >= 2.

    With n = 2, phi = z, lam = 1 and f = (z - 1)(1 + 0.1 z), the quotient
    g = 1 + 0.1 z carries almost all of its size in the seminorm's kernel
    (degrees below n - 1 = 1), so the weighted energy of phi * f exceeds
    any bound of the form 2 s^2 D(f) + 2 |f*|^2 D(phi) with finite s.  Both
    independent routes agree on the violating value.  The bound that does
    hold, and that the multiplier suite checks, replaces s by the
    multiplier norm and D(f) by D_1(f) + D_2(f), the full order-1 norm of g.
    """
    measure = CircleMeasure.point_mass(0.0)
    phi = AnalyticFunction((0.0, 1.0))
    f = multiply(AnalyticFunction((-1.0, 1.0)), AnalyticFunction((1.0, 0.1)))
    d_f = dirichlet_weighted(f, measure, 2).value
    d_phi = dirichlet_weighted(phi, measure, 2).value
    product = multiply(phi, f)
    d_product = dirichlet_weighted(product, measure, 2).value
    d_product_quad = dirichlet_weighted(
        product, measure, 2, QuadratureSpec(), force_quadrature=True
    ).value
    assert d_product == pytest.approx(1.02, abs=1e-12)
    assert d_product_quad == pytest.approx(d_product, rel=1e-10)
    assert d_f == pytest.approx(0.01, abs=1e-14)
    assert d_phi == 0.0
    assert abs(evaluate(f, 1.0)) < 1e-15
    upper = multiplier_seminorm_upper(phi, 1, 80)
    assert d_product > 2.0 * upper**2 * d_f + 2.0 * 0.0 * d_phi
    # the full-norm form holds: sum_{k<=2} D_k(f) = |g|_0^2 + |g|_1^2 = 1.02
    d_f_full = sum(dirichlet_weighted(f, measure, k).value for k in (1, 2))
    assert d_f_full == pytest.approx(1.02, abs=1e-12)
    norm_upper = multiplier_norm_upper(phi, 1, 80)
    fstar = abs(evaluate(f, 1.0)) ** 2
    assert d_product <= 2.0 * norm_upper**2 * d_f_full + 2.0 * fstar * d_phi
    assert fstar * d_phi <= 2.0 * norm_upper**2 * d_f_full + 2.0 * d_product


# ----------------------------------------- auxiliary integral finiteness


def test_lower_derivative_integrals_finite():
    # order-j derivatives below n stay integrable against the local weight
    spec = QuadratureSpec(radial=48, angular=128)
    rng = np.random.default_rng(5)
    for _ in range(5):
        degree = int(rng.integers(2, 8))
        coeffs = rng.uniform(-1, 1, degree + 1) + 1j * rng.uniform(-1, 1, degree + 1)
        f = AnalyticFunction(tuple(coeffs))
        angle = float(rng.uniform(0, 2 * math.pi))
        lam = cmath.exp(1j * angle)
        for n in (1, 2, 3):
            for j in range(n + 1):
                df = derivative(f, j)

                def integrand(z, df=df, lam=lam, n=n):
                    poisson = (1.0 - np.abs(z) ** 2) / np.abs(z - lam) ** 2
                    return (
                        np.abs(evaluate(df, z)) ** 2
                        * poisson
                        * (1.0 - np.abs(z) ** 2) ** (n - 1)
                    )

                value, _ = integrate_disc(integrand, spec, clip=2.0**-5, levels=2)
                assert math.isfinite(value.real)


def test_bounded_nth_derivative_products_stay_finite():
    # polynomial multipliers keep weighted energies finite on exact paths
    rng = np.random.default_rng(9)
    for _ in range(10):
        degree = int(rng.integers(0, 7))
        phi = AnalyticFunction(
            tuple(rng.uniform(-1, 1, degree + 1) + 1j * rng.uniform(-1, 1, degree + 1))
        )
        f = AnalyticFunction(
            tuple(rng.uniform(-1, 1, 9) + 1j * rng.uniform(-1, 1, 9))
        )
        measure = CircleMeasure((Atom(float(rng.uniform(0, 6)), 1.0),), 0.3)
        n = int(rng.integers(1, 4))
        value = dirichlet_weighted(
            multiply(phi, f, max_degree=phi.degree + 8), measure, n
        ).value
        assert math.isfinite(value)


def test_quadrature_route_at_order_99():
    # n! (n-1)! no longer fits a float from order 99 on; the exact division
    # keeps the quadrature route alive and equal to the exact route
    f = AnalyticFunction((1, 2, 3))
    atom = CircleMeasure.point_mass(0.0)
    forced = dirichlet_weighted(f, atom, 99, force_quadrature=True)
    assert forced.value == 0.0
    assert forced.value == dirichlet_weighted(f, atom, 99).value


def _eight_atoms_plus_arc(rng):
    atoms = tuple(
        Atom(2.0 * math.pi * (i + 0.8 * rng.uniform()) / 8, rng.uniform(0.2, 2.0))
        for i in range(8)
    )
    return CircleMeasure(atoms, 0.7)


def test_quadrature_integral_adds_the_one_part_energies_in_order():
    # the whole measure is sampled once, yet value and estimate are the
    # same floats as the mass-weighted one-part energies added in order
    rng = np.random.default_rng(5)
    f = AnalyticFunction(tuple(rng.uniform(-1, 1, 17) + 1j * rng.uniform(-1, 1, 17)))
    measure = _eight_atoms_plus_arc(rng)
    spec = QuadratureSpec()
    for n in (1, 3):
        df = derivative(f, n)
        total = error = 0.0
        [(value, est)] = poisson_weighted_energy(lambda z: evaluate(df, z), n, spec)
        total += measure.lebesgue * value
        error += measure.lebesgue * est
        for atom in measure.atoms:
            [(value, est)] = poisson_weighted_energy(
                lambda z: evaluate(df, z), n, spec,
                CircleMeasure.point_mass(atom.angle),
            )
            total += atom.mass * value
            error += atom.mass * est
        result = dirichlet_weighted(f, measure, n, spec, force_quadrature=True)
        assert result.method == "quadrature"
        assert result.value.hex() == total.hex()
        assert result.error_estimate.hex() == error.hex()
        # a truncation sums its arc-length part as a series, first
        truncated = AnalyticFunction(f.coeffs, False)
        total = measure.lebesgue * dirichlet_sigma(f, n).value
        for atom in measure.atoms:
            [(value, _)] = poisson_weighted_energy(
                lambda z: evaluate(df, z), n, spec,
                CircleMeasure.point_mass(atom.angle),
            )
            total += atom.mass * value
        result = dirichlet_weighted(truncated, measure, n, spec)
        assert result.value.hex() == total.hex()


def test_quadrature_integral_samples_each_grid_once(monkeypatch):
    import dirikit.dirichlet

    shapes = []

    def counting(f, z):
        shapes.append(np.shape(z))
        return evaluate(f, z)

    monkeypatch.setattr(dirikit.dirichlet, "evaluate", counting)
    f = AnalyticFunction(tuple(range(1, 18)))
    measure = _eight_atoms_plus_arc(np.random.default_rng(6))
    dirichlet_weighted(f, measure, 2, QuadratureSpec(), force_quadrature=True)
    assert shapes == [(96, 256), (48, 128)]
    shapes.clear()
    dirichlet_weighted(AnalyticFunction(f.coeffs, False), measure, 2, QuadratureSpec())
    assert shapes == [(96, 256), (48, 128)]


def test_chosen_grid_matches_the_exact_route_at_roundoff():
    # no spec: every degree 0-20 at orders 1-4 integrates on its smallest
    # exact grid, and value and estimate stay at roundoff
    rng = np.random.default_rng(21)
    measure = CircleMeasure((Atom(0.7, 1.1), Atom(3.9, 0.4)), 0.8)
    for degree in range(21):
        coeffs = rng.uniform(-1, 1, degree + 1) + 1j * rng.uniform(-1, 1, degree + 1)
        f = AnalyticFunction(tuple(coeffs))
        for n in range(1, 5):
            exact = dirichlet_weighted(f, measure, n).value
            quad = dirichlet_weighted(f, measure, n, force_quadrature=True)
            assert quad.spec == QuadratureSpec.for_polynomial(degree, n)
            assert abs(quad.value - exact) <= 1e-12 * exact
            assert quad.error_estimate <= 1e-10 * exact


def test_quadrature_samples_the_chosen_grids(monkeypatch):
    import dirikit.dirichlet

    shapes = []

    def counting(f, z):
        shapes.append(np.shape(z))
        return evaluate(f, z)

    monkeypatch.setattr(dirikit.dirichlet, "evaluate", counting)
    f = AnalyticFunction(tuple(range(1, 18)))
    measure = _eight_atoms_plus_arc(np.random.default_rng(6))
    # degree 16 at order 2: radial 2 * 16, angular 2 * (2 * 14 + 1)
    result = dirichlet_weighted(f, measure, 2, force_quadrature=True)
    assert shapes == [(32, 58), (16, 29)]
    assert result.spec == QuadratureSpec(32, 58)
    shapes.clear()
    certificate = douglas_decompose(f, 1j, 2)
    assert shapes == [(32, 58), (16, 29)]
    assert certificate.spec == QuadratureSpec(32, 58)
    # a truncation keeps the default grid
    shapes.clear()
    truncated = dirichlet_weighted(AnalyticFunction(f.coeffs, False), measure, 2)
    assert shapes == [(96, 256), (48, 128)]
    assert truncated.spec == QuadratureSpec()


def test_exact_route_builds_no_quadrature_spec(monkeypatch):
    # the grid is chosen lazily, on the quadrature branch only
    def refuse(*args, **kwargs):
        raise AssertionError("quadrature spec built on the exact route")

    monkeypatch.setattr(QuadratureSpec, "default", refuse)
    monkeypatch.setattr(QuadratureSpec, "for_polynomial", refuse)
    monkeypatch.setattr(QuadratureSpec, "choose", refuse)
    f = AnalyticFunction((0.5, 1.0, -2.0j, 0.25))
    measure = CircleMeasure((Atom(1.0, 2.0),), 0.5)
    result = dirichlet_weighted(f, measure, 2)
    assert result.method == "decomposition" and result.spec is None
    assert "quad" not in result.to_json()
    truncated = AnalyticFunction(f.coeffs, False)
    assert dirichlet_weighted(truncated, CircleMeasure.arc_length(), 2).spec is None


def _per_atom_decomposition(f, measure, order):
    """The decomposition route one atom at a time: Horner on a 0-d point,
    the division recurrence on numpy scalars, then a Python loop over
    ``abs(c) ** 2``."""

    def series(coeffs, n):
        total = 0.0
        for k, c in enumerate(coeffs):
            if k >= n:
                total += math.comb(k, n) * abs(c) ** 2
        return total

    total = measure.lebesgue * series(f.coeffs.tolist(), order)
    for atom in measure.atoms:
        lam = np.complex128(atom.point)
        # numpy's scalar complex product rounds unlike its array product
        alpha, point = np.zeros((), dtype=complex), np.asarray(lam)
        for c in reversed(f.coeffs.tolist()):
            alpha = alpha * point + c
        quotient, prev = [], alpha
        for c in f.coeffs.tolist()[:-1]:
            prev = (prev - c) / lam
            quotient.append(complex(prev))
        total += atom.mass * series(quotient, order - 1)
    return total


def test_batched_decomposition_matches_a_per_atom_reference_bit_for_bit():
    rng = np.random.default_rng(2026)
    for degree in range(41):
        for _ in range(8):
            f = AnalyticFunction(
                (rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1))
                * 10.0 ** rng.integers(-3, 4)
            )
            atoms = tuple(
                Atom(float(rng.uniform(-math.pi, math.pi)), float(rng.uniform(0.1, 2)))
                for _ in range(rng.integers(1, 9))
            )
            measure = CircleMeasure(atoms, float(rng.choice([0.0, 0.7])))
            order = int(rng.integers(1, 6))
            result = dirichlet_weighted(f, measure, order)
            assert result.method == "decomposition"
            expected = _per_atom_decomposition(f, measure, order)
            assert result.value.hex() == expected.hex(), (degree, len(atoms), order)


def test_an_overflowing_square_names_its_coefficient_and_order():
    f = AnalyticFunction((1.0, 1e200, 1.0))
    with pytest.raises(OverflowError, match=r"order-1 coefficient series: \|c_1\|\^2"):
        dirichlet_sigma(f, 1)
    # below the order nothing is squared; a finite sum of huge terms stays inf
    assert dirichlet_sigma(AnalyticFunction((1e200, 1.0)), 1).value == 1.0
    assert dirichlet_sigma(AnalyticFunction((0.0, 1e154, 1e154)), 1).value == math.inf

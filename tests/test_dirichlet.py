"""Dirichlet-core unit tests: every operation against an independent oracle."""

import cmath
import math
import operator
from fractions import Fraction

import numpy as np
import pytest

from dirikit import (
    AnalyticFunction,
    Atom,
    BoundaryDivergenceError,
    CircleMeasure,
    MeasureTuple,
    QuadratureSpec,
    SingularIntegrandError,
    atomic_decompose,
    boundary_value,
    dilation_factor,
    dirichlet_atomic_order_zero,
    dirichlet_kernel_section,
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
    multiplier_seminorm_upper,
    multiply,
    poisson_weighted_energy,
    szego_kernel_energy,
    szego_potential,
)
from dirikit import dirichlet, quadrature
from dirikit.dirichlet import (
    _exact_values,
    _local_integrals,
    _monomial_weights,
    _multiplication_section,
    _multiplier_ratios,
    _negative_binomial_sum,
    _quadrature_values,
)
from dirikit.functions import divide_by_root, times_linear
from dirikit.quadrature import _ring_samples


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


def test_an_overflowing_order_zero_square_names_its_point():
    # f(1) = 2e154 is finite, its square is not
    with pytest.raises(OverflowError, match=r"lam=1\.000000\+0\.000000j exceeds"):
        dirichlet_atomic_order_zero(
            AnalyticFunction((1e154, 1e154)), CircleMeasure.point_mass(0.0)
        )
    # in a batch, the overflowing column names its own point: g(1) = 0
    # and g(-1) = 2e154
    measure = CircleMeasure((Atom(0.0, 1.0), Atom(math.pi, 1.0)))
    g = AnalyticFunction((1e154, -1e154))
    with pytest.raises(OverflowError, match=r"lam=-1\.000000\+0\.000000j exceeds"):
        _exact_values([(mono(1), measure, 0), (g, measure, 0)])


def test_order_zero_triples_are_the_hardy_norm_plus_the_squared_values():
    # one batch of order-0 triples, each against its own measure: an
    # atomic one gives dirichlet_atomic_order_zero, a mixed one
    # lebesgue * H^2 + sum mass * |f(lam)|^2 added left to right
    rng = np.random.default_rng(17)
    triples = []
    for case in range(60):
        degree = int(rng.integers(0, 30))
        f = AnalyticFunction(rng.standard_normal(degree + 1)
                             + 1j * rng.standard_normal(degree + 1))
        atoms = tuple(
            Atom(2.0 * math.pi * (i + 0.8 * rng.uniform()) / 8, rng.uniform(0.2, 2.0))
            for i in sorted(rng.choice(8, int(rng.integers(0, 9)), replace=False))
        )
        triples.append((f, CircleMeasure(atoms, [0.0, 0.7][case % 2]), 0))
    for (f, measure, _), (value, parts) in zip(triples, _exact_values(triples),
                                               strict=True):
        squares = [abs(_per_atom_tails(f, a.point)[0]) ** 2 for a in measure.atoms]
        expected = 0.0
        if measure.lebesgue > 0:
            hardy = dirichlet_sigma(f, 0).value
            squares.insert(0, hardy)
            expected = measure.lebesgue * hardy
        else:
            alone = dirichlet_atomic_order_zero(f, measure).value
            assert value.hex() == alone.hex()
        for atom in measure.atoms:
            expected += atom.mass * abs(_per_atom_tails(f, atom.point)[0]) ** 2
        assert value.hex() == expected.hex()
        assert [p.hex() for p in parts] == [p.hex() for p in squares]


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


def test_decompose_divides_and_integrates_at_one_atom():
    # the phase of this boundary point names an atom one ulp away from
    # it; alpha, the quotient series (rhs) and the quadrature (lhs) all
    # belong to that atom, which the exact route divides at as well
    point = cmath.exp(4.0j)
    measure = CircleMeasure.point_mass(cmath.phase(point))
    lam = measure.atoms[0].point
    assert lam != point
    rng = np.random.default_rng(5)
    f = AnalyticFunction(rng.standard_normal(8) + 1j * rng.standard_normal(8))
    for n in (1, 2, 3):
        cert = douglas_decompose(f, point, n)
        ((rhs, _),) = _exact_values([(f, measure, n)])
        assert cert.rhs.hex() == rhs.hex()
        assert cert.alpha == boundary_value(f, lam)
        lhs = dirichlet_weighted(f, measure, n, force_quadrature=True)
        assert cert.lhs.hex() == lhs.value.hex()
        assert cert.spec == lhs.spec


def test_douglas_rejects_divergent():
    f = AnalyticFunction(tuple(10.0**k for k in range(25)), exact=False)
    with pytest.raises(BoundaryDivergenceError):
        douglas_decompose(f, 1.0, 1)


# -------------------------------------------------------------- lift map


def bergman_lift(f, boundary_point, order):
    """Reference: the order-th derivative of (z - lam) f, the unitary
    carrying the order-(n-1) arc-length seminorm onto the weighted Bergman
    space of the local weight at lam."""
    return derivative(times_linear(f, complex(boundary_point)), order)


def test_bergman_lift_constant():
    assert bergman_lift(AnalyticFunction((1.0,)), 1.0, 1).coeffs.tolist() == [1.0]


def test_bergman_lift_linear():
    lifted = bergman_lift(mono(1), 1.0, 1)
    assert lifted.coeffs.tolist() == [-1.0, 2.0]
    assert bergman_lift(mono(1), 1.0, 2).coeffs.tolist() == [2.0]


# ---------------------------------------------------------------- kernels


def dirichlet_kernel_value(z, w, order, terms):
    """Reference: partial sum of the order-j arc-length reproducing kernel,
    binom(k, j)^-1 (z conj(w))^k for k = j .. j + terms - 1, with a
    geometric tail bound (the binomial weights are >= 1)."""
    z, w = complex(z), complex(w)
    x = z * w.conjugate()
    total = 0.0 + 0.0j
    power = x**order
    for k in range(order, order + terms):
        total += power / math.comb(k, order)
        power *= x
    tail = abs(x) ** (order + terms) / (1.0 - abs(x))
    return total, tail


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


def _horner_power_series(coeffs, x):
    # reference: Horner's rule on x = (p + iq) / d, scaled by d^(K-1) into
    # Gaussian integers and rounded once
    (p, a), (q, b) = x.real.as_integer_ratio(), x.imag.as_integer_ratio()
    d = max(a, b)
    p, q = p * (d // a), q * (d // b)
    re = im = 0
    scale = 1
    for c in reversed(coeffs):
        re, im = re * p - im * q + c * scale, re * q + im * p
        scale *= d
    scale //= d
    return complex(re / scale, im / scale)


def test_negative_binomial_sum_rounds_once():
    # oracle: 1 + 3x + 6x^2 (order 1, three terms) in exact rationals,
    # rounded once
    for x in (0.5 + 0.25j, 0.1 - 0.3j):
        p, q = Fraction(x.real), Fraction(x.imag)
        re = 1 + 3 * p + 6 * (p * p - q * q)
        im = 3 * q + 12 * p * q
        assert _negative_binomial_sum(3, 3, x) == complex(float(re), float(im))
    # the closed form sums the same exact rational as Horner's rule over
    # every coefficient, signed zeros, |x| = 0.99 and x = 1 included
    xs = [0j, 0.37 + 0j, -0.29j, 0.21 - 0.33j, 0.4 + 1e-20j, 3e-25 - 0.3j,
          0.294 * cmath.exp(-2.51j), complex(-0.0, 0.0), complex(0.0, -0.0),
          complex(-0.0, -0.0), complex(0.5, -0.0), complex(-0.0, 0.7), 0.99 + 0j,
          0.99 * cmath.exp(2.2j), 1 + 0j]
    for terms in (1, 2, 17, 200, 451, 600):
        for order in (1, 3, 90, 120):
            coeffs = [math.comb(order + k + 1, k) for k in range(terms)]
            for x in xs:
                series = _negative_binomial_sum(order + 2, terms, x)
                horner = _horner_power_series(coeffs, x)
                assert (series.real.hex(), series.imag.hex()) == (
                    horner.real.hex(), horner.imag.hex()
                )


@pytest.mark.parametrize("terms", [0, -3])
@pytest.mark.parametrize("z", [0.0, 0.3 - 0.2j])
def test_kernel_series_needs_a_term(terms, z):
    # no terms used to divide by zero, or to give 0 at z = 0
    with pytest.raises(ValueError, match="at least one term"):
        local_bergman_kernel_series(z, 0.4j, cmath.exp(0.5j), 2, terms)


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
    f = dirichlet_kernel_section(0.5j, 0, 4)
    assert not f.exact
    assert f.coeffs.tolist() == [(-0.5j) ** k for k in range(5)]


def test_szego_potential_consistency():
    # the energy is the potential times the prefactor by construction;
    # check against the quadrature route instead for independence
    w = 0.5
    measure = CircleMeasure.point_mass(0.0)
    quad = dirichlet_weighted(
        dirichlet_kernel_section(w, 0, 60), measure, 1, QuadratureSpec()
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
    split = atomic_decompose(mono(2), [0.0])
    assert np.allclose(split.interpolant.coeffs, (1.0,))
    assert np.allclose(split.quotient.coeffs, (1.0, 1.0))
    assert split.residual < 1e-12


def test_atomic_decompose_two_atoms():
    split = atomic_decompose(mono(2), [0.0, math.pi])
    assert np.allclose(split.interpolant.coeffs[0], 1.0)
    assert np.allclose(split.quotient.coeffs, (1.0,))
    assert split.residual < 1e-12


def test_atomic_decompose_low_degree_gives_zero_quotient():
    f = AnalyticFunction((0.5, 1.0j))
    split = atomic_decompose(f, [0.1, 1.7, 3.0])
    assert np.max(np.abs(split.quotient.coeffs)) < 1e-12
    assert split.residual < 1e-12


def test_atomic_decompose_rejects_duplicates():
    # angles that CircleMeasure holds for one point name one point here too
    for angles in [[0.0, 0.0], [1.0, 1.0 + 2.0 * math.pi], [0.0, 1e-13]]:
        with pytest.raises(ValueError, match="pairwise distinct"):
            atomic_decompose(mono(2), angles)


# -------------------------------------------------- multiplier seminorms


def multiplier_seminorm_estimate(phi, order, section_degree):
    """Reference: the finite-section lower bound for the multiplier
    seminorm, the largest singular value of multiplication by phi on the
    monomial section; nondecreasing in the section degree."""
    matrix = _multiplication_section(phi, order, section_degree, False)
    return float(np.linalg.norm(matrix, ord=2))


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


def _uncached_multiplier_upper(phi, order, section_degree, full_norm):
    """The multiplier bound with its weight ratios built afresh on each
    call, in the arithmetic of :func:`_multiplier_ratios`."""
    d = phi.degree
    weights = _monomial_weights(order, section_degree + 1 + d, full_norm)
    ks = range(0 if full_norm else order, section_degree + 1)
    ratios = np.sqrt([[weights[k + p] / weights[k] for k in ks] for p in range(d + 1)])
    matrix = np.zeros((len(ks) + d, len(ks)), dtype=complex)
    for p in range(d + 1):
        for column in range(len(ks)):
            matrix[column + p, column] = phi.coeffs[p] * ratios[p, column]
    section = float(np.linalg.norm(matrix, ord=2))
    start = section_degree + 1
    tail = sum(abs(c) * math.sqrt(weights[start + p] / weights[start])
               for p, c in enumerate(phi.coeffs.tolist()))
    return math.sqrt(section**2 + tail**2)


def test_multiplier_bounds_from_cached_ratios_keep_their_bits():
    # the first call of a key builds its ratios and the second reads them
    # from the cache; both give the bits of a build afresh
    rng = np.random.default_rng(28)
    for _ in range(60):
        d = int(rng.integers(0, 9))
        order = int(rng.integers(0, 5))
        section = d + order + int(rng.integers(0, 40))
        phi = AnalyticFunction(rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1))
        for full_norm, bound in ((True, multiplier_norm_upper),
                                 (False, multiplier_seminorm_upper)):
            fresh = _uncached_multiplier_upper(phi, order, section, full_norm)
            assert bound(phi, order, section).hex() == fresh.hex()
            assert bound(phi, order, section).hex() == fresh.hex()


def test_multiplier_ratios_are_cached_and_read_only():
    ratios, tail = _multiplier_ratios(2, 20, 3, True)
    assert _multiplier_ratios(2, 20, 3, True)[0] is ratios
    assert ratios.shape == (4, 21) and not ratios.flags.writeable
    with pytest.raises(ValueError):
        ratios[0, 0] = 2.0
    assert isinstance(tail, tuple) and len(tail) == 4


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


def _ring_sampler(f):
    """The route's sampler of f as a black box for the grid of its nodes."""
    return lambda z: _ring_samples(f.coeffs, *z.shape)


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
        [(value, est)] = poisson_weighted_energy(_ring_sampler(df), n, spec)
        total += measure.lebesgue * value
        error += measure.lebesgue * est
        for atom in measure.atoms:
            [(value, est)] = poisson_weighted_energy(
                _ring_sampler(df), n, spec,
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
                _ring_sampler(df), n, spec,
                CircleMeasure.point_mass(atom.angle),
            )
            total += atom.mass * value
        result = dirichlet_weighted(truncated, measure, n, spec)
        assert result.value.hex() == total.hex()
    # every part is the float of its own one-part call: 200 atoms on a grid
    # whose runs hold 192, at orders whose norm n! (n-1)! is a float (14),
    # not exactly one (15) and beyond the float range (100), and a zero f^(n)
    small = QuadratureSpec(8, 16)
    many = CircleMeasure(
        tuple(Atom(a, 1.0) for a in rng.uniform(0.0, 2.0 * math.pi, 200)), 0.7
    )
    scale = [1e100 / math.factorial(k) for k in range(101)]
    wide = AnalyticFunction(tuple(
        s * complex(a, b)
        for s, a, b in zip(scale, rng.uniform(-1, 1, 101), rng.uniform(-1, 1, 101))
    ))
    zero_derivative = (AnalyticFunction((2.0, -1.0j)), 2)
    for f, n in ((wide, 14), (wide, 15), (wide, 100), zero_derivative):
        df = derivative(f, n)
        alone = [poisson_weighted_energy(_ring_sampler(df), n, small)]
        alone += [
            poisson_weighted_energy(
                _ring_sampler(df), n, small, CircleMeasure.point_mass(atom.angle)
            )
            for atom in many.atoms
        ]
        result = dirichlet_weighted(f, many, n, small, force_quadrature=True)
        assert [part.hex() for part in result.parts] == [
            value.hex() for [(value, _)] in alone
        ]
        if f.degree < n:
            assert {part.hex() for part in result.parts} == {"0x0.0p+0"}


def _count_ring_samplings(monkeypatch):
    """Record the grid shape of every ring sampling of the quadrature route."""
    shapes = []
    real = dirichlet._ring_samples

    def counting(coeffs, radial, angular):
        shapes.append((radial, angular))
        return real(coeffs, radial, angular)

    monkeypatch.setattr(dirichlet, "_ring_samples", counting)
    return shapes


def test_quadrature_integral_samples_each_grid_once(monkeypatch):
    # one ring sampling per grid for the whole measure
    shapes = _count_ring_samplings(monkeypatch)
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
    # the default grid is exact for deg f <= 96 (radial 96 >= deg f and
    # angular 256 >= 2 deg f^(n) + 1): degrees 32-90 stay at roundoff
    for degree in (32, 60, 90):
        coeffs = rng.uniform(-1, 1, degree + 1) + 1j * rng.uniform(-1, 1, degree + 1)
        f = AnalyticFunction(coeffs)
        for n in range(1, 9):
            exact = dirichlet_weighted(f, measure, n).value
            quad = dirichlet_weighted(f, measure, n, QuadratureSpec(),
                                      force_quadrature=True)
            assert abs(quad.value - exact) <= 1e-12 * exact


def test_quadrature_samples_the_chosen_grids(monkeypatch):
    shapes = _count_ring_samplings(monkeypatch)
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


def _mixed_quadrature_triples(rng):
    """Triples at orders 1-4: exact and truncated f, a repeated f, and
    arc length alone, atoms alone and 8 atoms plus arc length."""

    def poly(degree, exact=True):
        coeffs = rng.uniform(-1, 1, degree + 1) + 1j * rng.uniform(-1, 1, degree + 1)
        return AnalyticFunction(coeffs, exact)

    measures = (
        CircleMeasure.arc_length(0.6),
        CircleMeasure((Atom(0.4, 1.3), Atom(2.9, 0.5))),
        _eight_atoms_plus_arc(rng),
    )
    repeated = poly(9)
    return [
        (f, measure, order)
        for order in range(1, 5)
        for f in (poly(int(rng.integers(0, 17))), poly(14, exact=False), repeated)
        for measure in measures
    ]


def test_quadrature_batch_is_each_triples_own_integral():
    # one call over mixed triples gives each triple the floats of its own
    # dirichlet_weighted(..., force_quadrature=True): value, parts,
    # estimate and grid.  The 200 degree-3 order-1 triples share the 8x16
    # grid, a group wider than the node budget (192 columns of 8x16);
    # under QuadratureSpec(64, 128) every order's group is.
    rng = np.random.default_rng(16)
    triples = _mixed_quadrature_triples(rng)
    measures = [measure for _, measure, _ in triples[:3]]
    wide = [
        (AnalyticFunction(rng.uniform(-1, 1, 4) + 1j * rng.uniform(-1, 1, 4)),
         measures[k % 3], 1)
        for k in range(200)
    ]
    for spec, cases in ((None, triples + wide), (QuadratureSpec(64, 128), triples + wide[:20])):
        batch = _quadrature_values(cases, spec)
        for (f, measure, order), (value, parts, estimates, grid) in zip(cases, batch):
            alone = dirichlet_weighted(f, measure, order, spec, force_quadrature=True)
            assert value.hex() == alone.value.hex()
            assert [p.hex() for p in parts] == [p.hex() for p in alone.parts]
            assert measure.weigh(estimates).hex() == alone.error_estimate.hex()
            assert grid == alone.spec
    assert _quadrature_values([]) == []


def test_quadrature_batch_folds_each_triples_own_floats():
    # on QuadratureSpec(8, 16) an f^(n) of degree 16 or more folds its ring
    # spectra; a batch of such triples, mixed with ones that do not fold,
    # still gives each triple the floats of its own call
    rng = np.random.default_rng(23)
    measure = _eight_atoms_plus_arc(rng)
    spec = QuadratureSpec(8, 16)
    triples = [
        (AnalyticFunction(rng.uniform(-1, 1, d + 1) + 1j * rng.uniform(-1, 1, d + 1)),
         measure, n)
        for d in (40, 3, 40, 17, 60) for n in (1, 2)
    ]
    for (f, measure, order), (value, parts, _, _) in zip(
        triples, _quadrature_values(triples, spec)
    ):
        alone = dirichlet_weighted(f, measure, order, spec, force_quadrature=True)
        assert value.hex() == alone.value.hex()
        assert [p.hex() for p in parts] == [p.hex() for p in alone.parts]


def test_quadrature_batch_parts_are_the_black_box_energies():
    # the black-box front runs the same contraction: its (value, estimate)
    # pairs are the batch's parts and estimates
    triples = _mixed_quadrature_triples(np.random.default_rng(17))
    for (f, measure, order), (_, parts, estimates, grid) in zip(
        triples, _quadrature_values(triples)
    ):
        df = derivative(f, order)
        pairs = poisson_weighted_energy(_ring_sampler(df), order, grid, measure)
        assert [(v.hex(), e.hex()) for v, e in pairs] == [
            (v.hex(), e.hex()) for v, e in zip(parts, estimates)
        ]


def test_quadrature_batch_raises_what_the_failing_triple_raises():
    # the failing triple sits second in a stacked sampling of its grid
    atom = CircleMeasure.point_mass(1.0)
    fine = (AnalyticFunction((0.5, 1.0, -2.0j)), atom, 1)
    failing = [
        # f' = 1e200 + 2z: finite samples whose squares overflow
        (AnalyticFunction((1e200, 1e200, 1.0)), OverflowError),
        # f' = 1.7e308 (1 + z) overflows near z = 1: a non-finite sample
        (AnalyticFunction((0.0, 1.7e308, 0.85e308)), SingularIntegrandError),
        # f' = 1e153 (1 + 2z + 3z^2): finite squares whose angular sums overflow
        (AnalyticFunction((1e153,) * 4), OverflowError),
    ]
    for f, error in failing:
        for spec in (None, QuadratureSpec(32, 64)):
            with pytest.raises(error) as alone:
                dirichlet_weighted(f, atom, 1, spec, force_quadrature=True)
            with pytest.raises(error) as batch:
                _quadrature_values([fine, (f, atom, 1), fine], spec)
            assert str(batch.value) == str(alone.value)
    with pytest.raises(ValueError, match="positive integer"):
        _quadrature_values([fine, (fine[0], atom, 0)])


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


def _per_atom_tails(f, lam):
    """The tails R_k = sum_{i>=k} a_i lam^i of f at one point: the powers
    and the sums by Python loops, the terms by one numpy product, powers
    first (numpy's array product rounds unlike Python's and its own
    scalar one, and not symmetrically in its operands)."""
    powers = [1.0 + 0.0j]
    for _ in range(f.degree):
        powers.append(powers[-1] * lam)
    terms = (np.array(powers) * f.coeffs).tolist()
    tails = [terms[-1]]
    for term in reversed(terms[:-1]):
        tails.append(tails[-1] + term)
    return tails[::-1]


def _per_atom_decomposition(f, measure, order):
    """The decomposition route one atom at a time: the tails of f at the
    atom, then a Python loop over ``abs(c) ** 2`` of R_1, R_2, ..."""

    def series(coeffs, n):
        total = 0.0
        for k, c in enumerate(coeffs):
            if k >= n:
                total += math.comb(k, n) * abs(c) ** 2
        return total

    total = measure.lebesgue * series(f.coeffs.tolist(), order)
    for atom in measure.atoms:
        total += atom.mass * series(_per_atom_tails(f, atom.point)[1:], order - 1)
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


def test_parts_are_the_one_part_integrals_and_weigh_to_the_value():
    # every route: exact polynomials, truncations, forced quadrature
    rng = np.random.default_rng(11)
    exact_cases = []
    for case in range(60):
        degree = int(rng.integers(0, 13))
        coeffs = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
        f = AnalyticFunction(coeffs, case % 3 != 1)
        forced = case % 3 == 2
        atoms = tuple(
            Atom(2.0 * math.pi * (i + 0.8 * rng.uniform()) / 8, rng.uniform(0.2, 2.0))
            for i in sorted(rng.choice(8, int(rng.integers(1, 9)), replace=False))
        )
        measure = CircleMeasure(atoms, float(rng.choice([0.0, 0.7])))
        order = int(rng.integers(1, 5))
        # exact polynomials get their own grid; truncations a small one
        spec = None if f.exact else QuadratureSpec(24, 32)
        result = dirichlet_weighted(f, measure, order, spec, force_quadrature=forced)
        assert len(result.parts) == len(measure.parts)
        total = 0.0
        for mass, part in zip((p.mass for p in measure.parts), result.parts):
            total += mass * part
        assert result.value.hex() == total.hex(), case
        singles = [CircleMeasure.point_mass(a.angle) for a in measure.atoms]
        if measure.lebesgue > 0:
            singles.insert(0, CircleMeasure.arc_length())
        for single, part in zip(singles, result.parts):
            alone = dirichlet_weighted(f, single, order, spec, force_quadrature=forced)
            assert alone.parts == (alone.value,)
            assert part.hex() == alone.value.hex(), case
        if f.exact and not forced:
            exact_cases.append((f, measure, order, result))
            # every atom twice: each column is its point's one-point integral
            atoms = measure.atoms * 2
            columns = _local_integrals([f] * len(atoms), [a.point for a in atoms], order)
            for atom, column in zip(atoms, columns, strict=True):
                alone = dirichlet_weighted(f, CircleMeasure.point_mass(atom.angle), order)
                assert [column.hex()] == [p.hex() for p in alone.parts], case
    # the cases of every order in one batch, each twice, with a Hardy norm:
    # each is its own integral
    cases = exact_cases * 2
    hardy = (cases[0][0], CircleMeasure.arc_length(), 0)
    batch = _exact_values([case[:3] for case in cases] + [hardy])
    for (value, parts), (*_, result) in zip(batch, cases):
        assert [p.hex() for p in parts] == [p.hex() for p in result.parts]
        assert value.hex() == result.value.hex()
    norm = dirichlet_sigma(hardy[0], 0).value
    assert [p.hex() for p in batch[-1][1]] == [norm.hex()]
    assert batch[-1][0].hex() == norm.hex()
    assert sorted({order for _, _, order, _ in cases}) == [1, 2, 3, 4]
    for order in range(1, 5):
        # one function, with arc length, in every triple
        f, measure, _, _ = next(case for case in cases if case[2] == order)
        measure = CircleMeasure(measure.atoms, 0.7)
        result = dirichlet_weighted(f, measure, order)
        alike = _exact_values([(f, measure, order)] * 3)
        assert alike == [(result.value, result.parts)] * 3
    # columns of mixed degree: constants, degrees below the order, degrees
    # up to 16, and repeated points; each is its own one-point integral
    for order in range(1, 5):
        degrees = [0, max(order - 2, 0), order - 1, order, 16]
        degrees += rng.integers(0, 17, 40).tolist()
        fs = [
            AnalyticFunction(rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1))
            for d in degrees
        ]
        angles = rng.uniform(0.0, 2.0 * math.pi, 7).tolist()
        atoms = [Atom(angles[j % 7], 1.0) for j in range(len(fs))]
        columns = _local_integrals(fs, [a.point for a in atoms], order)
        for f, atom, column in zip(fs, atoms, columns, strict=True):
            alone = dirichlet_weighted(f, CircleMeasure.point_mass(atom.angle), order)
            assert [column.hex()] == [p.hex() for p in alone.parts], (order, f.degree)
    assert _local_integrals([], [], 1) == []
    assert _exact_values([]) == []
    # a failing column fails a block whose other columns are fine, by name
    fine = AnalyticFunction((1e4, 1e4, -1e4))
    small = AnalyticFunction((0.5, 1.0, 0.25j))
    points = [cmath.exp(0.5j), cmath.exp(1.5j), cmath.exp(2.5j)]
    huge = AnalyticFunction((1.7e308, 1.7e308))
    with pytest.raises(OverflowError, match=r"lam=0\.070737\+0\.997495j exceeds"):
        _local_integrals([fine, huge, small], points, 2)


def test_exact_route_blocks_stay_within_the_cell_budget(monkeypatch):
    # no coefficient block of the exact route exceeds the cell budget
    # unless one column alone does, and the runs keep every float
    shapes = []
    block = dirichlet._coefficient_block

    def spying(functions, lengths):
        coeffs = block(functions, lengths)
        shapes.append(coeffs.shape)
        return coeffs

    def blocks_within(budget):
        within = all(shape[1] == 1 or math.prod(shape) <= budget for shape in shapes)
        shapes.clear()
        return within

    monkeypatch.setattr(dirichlet, "_coefficient_block", spying)
    rng = np.random.default_rng(41)
    f = AnalyticFunction(rng.standard_normal(2001) + 1j * rng.standard_normal(2001))
    atoms = tuple(
        Atom(2.0 * math.pi * (k + 0.5 * rng.uniform()) / 50, rng.uniform(0.2, 2.0))
        for k in range(50)
    )
    measure = CircleMeasure(atoms, 0.7)
    budget = quadrature._CELL_BUDGET
    split = dirichlet_weighted(f, measure, 2)
    # 50 atom columns of 2001 rows: about 100k cells in one block
    assert 50 * 2001 > budget and len(shapes) > 2 and blocks_within(budget)
    monkeypatch.setattr(quadrature, "_CELL_BUDGET", 50 * 2001)
    whole = dirichlet_weighted(f, measure, 2)
    assert (2001, 50) in shapes
    shapes.clear()
    assert [p.hex() for p in split.parts] == [p.hex() for p in whole.parts]
    assert split.value.hex() == whole.value.hex()
    monkeypatch.undo()
    # one call over the 61 shifts z^k g of a degree-8 g, each against
    # arc length at order 0 and a tuple's j-th entry at order j: columns
    # of 9 to 69 rows
    g = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    entries = (CircleMeasure.arc_length(), measure, CircleMeasure(atoms[:3]),
               CircleMeasure.zero())
    triples = [
        (AnalyticFunction(np.concatenate([np.zeros(k), g])), entry, j)
        for k in range(61) for j, entry in enumerate(entries)
    ]
    default = _exact_values(triples)
    monkeypatch.setattr(dirichlet, "_coefficient_block", spying)
    monkeypatch.setattr(quadrature, "_CELL_BUDGET", 256)
    patched = _exact_values(triples)
    assert len(shapes) > 2 and blocks_within(256)
    assert [v.hex() for v, _ in patched] == [v.hex() for v, _ in default]


def _gamma(m):
    """gamma_m = m u / (1 - m u), u = 2^-53: the bound on m roundings."""
    u = 2.0**-53
    return m * u / (1.0 - m * u)


def test_quotient_full_norm_is_the_sum_of_local_integrals():
    # sum_{j<n} D_j(g) of g = (f - f(lam)) / (z - lam) is
    # D_{lam,1}(f) + ... + D_{lam,n}(f): two exact formulations, the
    # explicit quotient of divide_by_root against the tail sums of the
    # exact route.  Both add binom(k, j) |c|^2 over the same
    # W = sum_{j<n} binom(d, j + 1) pairs k < d, j < n, and every |g_k|
    # and |R_(k+1)| is at most S = sum |a_i| (|lam|^d within gamma_(2d)
    # of 1 aside).  With gamma_m as in _gamma:
    # * tails: a term a_i lam^i takes at most d complex products (3u
    #   each) and a tail at most d additions (u each), so |R^ - R| <=
    #   gamma_(6d) S; a square then moves by at most gamma_(13d) S^2,
    #   hypot and pow add 6u, the weights and the sum in order
    #   gamma_(d + 1), and adding the n values gamma_n: gamma_(14d + 11).
    # * quotient: alpha by Horner is off by at most gamma_(6d) S; each
    #   division step, a subtraction (u) and Smith's division (six
    #   roundings, at most 8u of the quotient when |lam| ~ 1), carries
    #   that error on undiminished and adds 9u S, so |g^ - g| <=
    #   gamma_(15d) S, and the series is off by gamma_(31d + n + 7).
    # * the formulations part by the point's rounding alone: |g_k| =
    #   |R_(k+1)| / |lam|^(k+1), and |lam|^2 is within 4u of 1, so they
    #   differ by at most gamma_(4d + 2) W S^2.
    # gamma_(60 (d + 1)) W S^2 covers the sum, with n <= 4.
    rng = np.random.default_rng(29)
    cases = []
    for _ in range(40):
        degree = int(rng.integers(0, 13))
        f = AnalyticFunction(
            rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
        )
        measure = CircleMeasure.point_mass(float(rng.uniform(0.0, 2.0 * math.pi)))
        lam = measure.atoms[0].point
        n = int(rng.integers(1, 5))
        g = divide_by_root(f, lam, evaluate(f, lam))
        cases.append((f, measure, n, sum(dirichlet_sigma(g, k).value for k in range(n))))
    triples = [[(f, measure, k) for k in range(1, n + 1)] for f, measure, n, _ in cases]
    batch = iter(_exact_values([t for mine in triples for t in mine]))
    for case, (mine, (f, _, n, quotient)) in enumerate(zip(triples, cases)):
        mixed = [next(batch) for _ in mine]
        alone = sum(value for value, _ in _exact_values(mine))
        assert sum(value for value, _ in mixed).hex() == alone.hex(), case
        pairs = sum(math.comb(f.degree, j + 1) for j in range(n))
        bound = _gamma(60 * (f.degree + 1)) * pairs * float(np.abs(f.coeffs).sum()) ** 2
        assert abs(alone - quotient) <= bound, case


def _exact_squares(f, lam):
    """|R_k|^2 and |g_(k-1)|^2 of f at the exact value of the float point
    lam, as integer numerators over two common denominators.

    With lam = L / D and a_i = alpha_i / A for Gaussian integers L and
    alpha_i and powers of two D and A, R_k A D^d is the Gaussian integer
    sum_{i>=k} alpha_i L^i D^(d-i), so |R_k|^2 has the denominator
    (A D^d)^2.  |g_(k-1)|^2 = |R_k|^2 / |lam|^(2k), and with |lam|^2 =
    M / D^2 it is |R_k|^2 D^(2k) M^(d-k) over (A D^d)^2 M^d.
    """
    ratios = [(z.real.as_integer_ratio(), z.imag.as_integer_ratio())
              for z in [lam, *f.coeffs.tolist()]]
    (xn, xd), (yn, yd) = ratios[0]
    D = max(xd, yd)
    A = max(den for c in ratios[1:] for _, den in c)
    lr, li = xn * (D // xd), yn * (D // yd)
    d, e = f.degree, D.bit_length() - 1
    terms, pr, pi = [], 1, 0
    for i, ((rn, rd), (jn, jd)) in enumerate(ratios[1:]):
        ar, ai = rn * (A // rd), jn * (A // jd)
        shift = e * (d - i)
        terms.append(((ar * pr - ai * pi) << shift, (ar * pi + ai * pr) << shift))
        pr, pi = pr * lr - pi * li, pr * li + pi * lr
    tails, sr, si = [], 0, 0
    for tr, ti in reversed(terms):
        sr, si = sr + tr, si + ti
        tails.append(sr * sr + si * si)
    tails.reverse()
    M = lr * lr + li * li
    powers = [1]
    for _ in range(d):
        powers.append(powers[-1] * M)
    quotients = [q * powers[d - k] << 2 * e * k for k, q in enumerate(tails)]
    den = (A << e * d) ** 2
    return (tails, den), (quotients, den * powers[d])


def test_tail_sums_are_no_less_accurate_than_the_division_against_an_exact_oracle():
    # Each form against the exact value of its own formula at the exact
    # value of the float point, so the point's own rounding is left out:
    # the tails sum binom(k, n-1) |R_(k+1)|^2, the division sums
    # binom(k, n-1) |g_k|^2 with |g_k|^2 = |R_(k+1)|^2 / |lam|^(2(k+1)),
    # and at order 0 both square f(lam) = R_0 (tails against Horner).
    # Errors are relative to the same formula applied to |a_k|, where
    # R_k becomes S_k = sum_{i>=k} |a_i|.  The tails' own bound is
    # gamma_(14 (d + 1)) of that (see the quotient test above, one tail
    # at a time); the division has no better one, its alpha cancels
    # against a head sum, and the tails must be no worse.
    rng = np.random.default_rng(2029)
    worst = {}
    for degree in (4, 8, 16, 32, 64, 120):
        for case in range(6):
            real, imag = rng.standard_normal((2, degree + 1))
            coeffs = real + 1j * imag
            angles = rng.uniform(0.0, 2.0 * math.pi, 3).tolist()
            atoms = [Atom(angle, 1.0) for angle in angles]
            f = AnalyticFunction(coeffs)
            if case % 3 == 0:
                # a root at the first atom: f(lam) cancels to about u S
                f = times_linear(AnalyticFunction(coeffs[:-1]), atoms[0].point)
            moduli = np.cumsum(np.abs(f.coeffs)[::-1])[::-1].tolist()
            exact = [_exact_squares(f, atom.point) for atom in atoms]
            for order in range(5):
                tails = _local_integrals([f] * 3, [a.point for a in atoms], order)
                for atom, tail, forms in zip(atoms, tails, exact):
                    alpha = boundary_value(f, atom.point)
                    if order == 0:
                        division = abs(alpha) ** 2
                        scale = moduli[0] ** 2
                        (squares, den), _ = forms
                        oracles = [(squares[0], den)] * 2
                    else:
                        g = divide_by_root(f, atom.point, alpha)
                        division = dirichlet_sigma(g, order - 1).value
                        weights = [math.comb(k, order - 1) for k in range(degree)]
                        scale = sum(w * m**2 for w, m in zip(weights, moduli[1:]))
                        oracles = [(sum(map(operator.mul, weights, squares[1:])), den)
                                   for squares, den in forms]
                    # |p / q - num / den| in integers, rounded once
                    errors = [abs(p * den - num * q) / (q * den) / scale
                              for (p, q), (num, den) in zip(
                                  (tail.as_integer_ratio(), division.as_integer_ratio()),
                                  oracles)]
                    assert errors[0] <= _gamma(14 * (degree + 1)), (degree, order)
                    cell = worst.setdefault((order, degree), [0.0, 0.0])
                    cell[:] = map(max, cell, errors)
    for order in range(1, 5):
        tails, divisions = zip(*(cell for (n, _), cell in worst.items() if n == order))
        assert max(tails) <= max(divisions), order


def test_an_overflowing_square_names_its_coefficient_and_order():
    f = AnalyticFunction((1.0, 1e200, 1.0))
    with pytest.raises(OverflowError, match=r"order-1 coefficient series: \|c_1\|\^2"):
        dirichlet_sigma(f, 1)
    # below the order nothing is squared; a finite sum of huge terms stays inf
    assert dirichlet_sigma(AnalyticFunction((1e200, 1.0)), 1).value == 1.0
    assert dirichlet_sigma(AnalyticFunction((0.0, 1e154, 1e154)), 1).value == math.inf

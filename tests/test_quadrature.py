"""Disc-quadrature engine tests."""

import math
from fractions import Fraction

import numpy as np
import pytest

from dirikit import (
    Atom,
    CircleMeasure,
    QuadratureSpec,
    SingularIntegrandError,
    integrate_disc,
    poisson_weighted_energy,
)
from dirikit.quadrature import _extrapolation_weights, _poisson_grid


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(radial=2)
    with pytest.raises(ValueError):
        QuadratureSpec(angular=4)
    with pytest.raises(ValueError):
        QuadratureSpec(clip=0.7)
    with pytest.raises(ValueError):
        QuadratureSpec(levels=-1)


def test_spec_json_round_trip():
    spec = QuadratureSpec(radial=32, angular=64, clip=0.01, levels=2)
    assert QuadratureSpec.from_json(spec.to_json()) == spec


def test_spec_csv():
    spec = QuadratureSpec.from_csv("48, 128, 0.03125, 3")
    assert spec == QuadratureSpec(48, 128, 0.03125, 3)
    with pytest.raises(ValueError):
        QuadratureSpec.from_csv("48,128")


def test_env_override(monkeypatch):
    monkeypatch.setenv("DIRIKIT_QUAD_DEFAULT", "32,64,0.125,1")
    assert QuadratureSpec.default() == QuadratureSpec(32, 64, 0.125, 1)
    monkeypatch.delenv("DIRIKIT_QUAD_DEFAULT")
    assert QuadratureSpec.default() == QuadratureSpec()


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
    spec = QuadratureSpec(radial=96, angular=64, clip=2.0**-6, levels=10)
    for a in range(0, 13, 3):
        for b in range(0, 13, 3):
            value, _ = integrate_disc(lambda z: z**a * np.conj(z) ** b, spec)
            expected = 1.0 / (a + 1) if a == b else 0.0
            assert abs(value - expected) <= 1e-12


def test_monomial_integrals_full_disc():
    # clip = 0 integrates the full disc; rule is exact for band-limited input
    spec = QuadratureSpec(radial=32, angular=64, clip=0.0, levels=0)
    for a in range(0, 13, 4):
        value, estimate = integrate_disc(lambda z: z**a * np.conj(z) ** a, spec)
        assert abs(value - 1.0 / (a + 1)) <= 1e-14
        assert estimate == 0.0


def test_monotone_error_estimates_on_smooth_battery():
    base = QuadratureSpec(48, 64, 2.0**-6, 4)
    doubled = QuadratureSpec(96, 128, 2.0**-6, 4)
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


def test_scalar_callable_fallback():
    value, _ = integrate_disc(lambda z: abs(z) ** 2, QuadratureSpec(16, 32, 0.0, 0))
    assert value == pytest.approx(0.5, abs=1e-13)


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
    # one pair per part, each times its mass: arc length, then the atoms
    # sorted by angle; the zero measure has no parts
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
    masses = [measure.lebesgue] + [a.mass for a in measure.atoms]
    assert [a.mass for a in measure.atoms] == [1.5, 0.5, 3.0]
    assert parts == [(m * v, m * e) for m, (v, e) in zip(masses, singles)]
    assert poisson_weighted_energy(h, 2, spec, CircleMeasure.zero()) == []


def test_poisson_grid_constants_are_cached_and_read_only():
    grid = _poisson_grid(48, 128)
    assert _poisson_grid(48, 128) is grid
    r, wr, z, freqs, kernel = grid
    assert z.shape == kernel.shape == (48, 128)
    assert r.shape == wr.shape == (48,) and freqs.shape == (128,)
    for array in grid:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0

"""Circle-measure unit tests."""

import math

import numpy as np
import pytest

from dirikit import (
    AnalyticFunction,
    Arc,
    Atom,
    CircleMeasure,
    MeasureTuple,
    dirichlet_weighted,
    szego_potential,
)


def poisson_integral(measure, z):
    """Reference: the harmonic extension of the measure at an interior
    point.  Arc length contributes its mass (mean value property), each
    atom (1 - |z|^2) / |z - point|^2 times its mass."""
    z = complex(z)
    if abs(z) >= 1.0:
        raise ValueError("point must lie in the open unit disc")
    one_minus = 1.0 - abs(z) ** 2
    total = measure.lebesgue
    for atom in measure.atoms:
        total += atom.mass * one_minus / abs(z - atom.point) ** 2
    return total


def test_atom_point():
    atom = Atom(math.pi, 1.0)
    assert atom.point == pytest.approx(-1.0)


def test_rejects_duplicate_atoms():
    with pytest.raises(ValueError):
        CircleMeasure((Atom(0.1, 1.0), Atom(0.1 + 1e-12, 1.0)))


def test_rejects_wraparound_duplicates():
    with pytest.raises(ValueError):
        CircleMeasure((Atom(0.0, 1.0), Atom(2 * math.pi - 1e-12, 1.0)))


def test_angles_normalize_once_into_the_half_open_circle():
    # -1e-17 % (2 pi) rounds to 2 pi itself, the same point as 0
    measure = CircleMeasure.point_mass(-1e-17)
    assert measure.atoms[0].angle == 0.0
    assert CircleMeasure(measure.atoms).atoms == measure.atoms
    assert CircleMeasure.from_json(measure.to_json()) == measure
    result = dirichlet_weighted(AnalyticFunction.monomial(2), measure, 1)
    (part,) = result.to_json()["parts"]
    assert 0.0 <= part["angle"] < 2 * math.pi


def test_rejects_nonpositive_mass():
    with pytest.raises(ValueError):
        CircleMeasure((Atom(0.0, 0.0),))
    with pytest.raises(ValueError):
        CircleMeasure((), -1.0)


def test_total_mass():
    measure = CircleMeasure((Atom(0.0, 1.5), Atom(1.0, 0.5)), 2.0)
    assert measure.total_mass == 4.0


def test_parts_put_arc_length_first_only_when_it_has_mass():
    # -1e-17 is stored at 0.0 and -1.0 at 2 pi - 1, so 0.0 < 3.0 < 2 pi - 1
    atoms = (Atom(3.0, 2.0), Atom(-1.0, 0.25), Atom(-1e-17, 0.5))
    ordered = (Atom(0.0, 0.5), Atom(3.0, 2.0), Atom(-1.0 % (2 * math.pi), 0.25))
    assert CircleMeasure(atoms).parts == ordered
    assert CircleMeasure(atoms).parts[0].angle == 0.0
    assert CircleMeasure(atoms, 0.75).parts == (Arc(0.75),) + ordered
    assert CircleMeasure.arc_length(2.0).parts == (Arc(2.0),)
    assert CircleMeasure.point_mass(1.0).parts == (Atom(1.0, 1.0),)
    assert CircleMeasure.zero().parts == ()


def test_parts_are_hashable_and_equal_across_rebuilt_measures():
    measure = CircleMeasure((Atom(2.0, 1.5), Atom(-1e-17, 0.5)), 0.25)
    rebuilt = [
        CircleMeasure.from_json(measure.to_json()),
        CircleMeasure(measure.atoms[::-1], measure.lebesgue),
        CircleMeasure((Atom(2.0, 1.5), Atom(0.0, 0.5)), 0.25),
    ]
    index = {part: i for i, part in enumerate(measure.parts)}
    for other in rebuilt:
        assert other.parts == measure.parts
        assert hash(other.parts) == hash(measure.parts)
        assert [index[part] for part in other.parts] == [0, 1, 2]


def test_weigh_is_the_mass_times_value_loop_bit_for_bit():
    rng = np.random.default_rng(24)
    for _ in range(200):
        count = int(rng.integers(0, 8))
        angles = 2 * math.pi * (np.arange(count) + rng.uniform(0, 0.9, count)) / 8
        atoms = tuple(Atom(a, m) for a, m in zip(angles, rng.uniform(0.1, 3.0, count)))
        measure = CircleMeasure(atoms, float(rng.choice([0.0, rng.uniform(0.1, 3.0)])))
        values = rng.standard_normal(len(measure.parts)) * 10.0 ** rng.integers(-8, 8)
        total = 0.0
        for part, value in zip(measure.parts, values):
            total += part.mass * value
        assert measure.weigh(values).hex() == total.hex()
    with pytest.raises(ValueError):
        CircleMeasure((), 1.0).weigh([1.0, 2.0])


def test_poisson_arc_length_is_constant():
    measure = CircleMeasure.arc_length(1.0)
    for z in [0.0, 0.3 + 0.4j, -0.9j, 0.99]:
        assert poisson_integral(measure, z) == pytest.approx(1.0)


def test_poisson_point_mass_at_origin():
    assert poisson_integral(CircleMeasure.point_mass(0.0), 0.0) == 1.0


def test_poisson_point_mass_radial():
    # oracle: (1 - r^2)/(1 - r)^2 = (1 + r)/(1 - r)
    measure = CircleMeasure.point_mass(0.0)
    for r in [0.1, 0.5, 0.9]:
        expected = (1.0 + r) / (1.0 - r)
        assert poisson_integral(measure, r) == pytest.approx(expected)


def test_poisson_at_origin_is_total_mass():
    measure = CircleMeasure((Atom(0.3, 0.7), Atom(2.0, 1.1)), 0.4)
    assert poisson_integral(measure, 0.0) == pytest.approx(measure.total_mass)


def test_poisson_rejects_boundary():
    with pytest.raises(ValueError):
        poisson_integral(CircleMeasure.arc_length(), 1.0)


def test_szego_potential_point_mass():
    measure = CircleMeasure.point_mass(0.0)
    assert szego_potential(measure, 0.0) == 1.0
    assert szego_potential(measure, 0.5) == pytest.approx(4.0)


def test_szego_potential_arc_length():
    # oracle: term-by-term integration of the double geometric expansion
    # of |1 - lam wbar|^-2 gives 1/(1 - |w|^2)
    measure = CircleMeasure.arc_length(1.0)
    for w in [0.0, 0.4 + 0.1j, -0.8j]:
        expected = 1.0 / (1.0 - abs(w) ** 2)
        assert szego_potential(measure, w) == pytest.approx(expected)


def test_szego_potential_lower_bound():
    rng = np.random.default_rng(3)
    for _ in range(50):
        atoms = tuple(
            Atom(float(a), float(m))
            for a, m in zip(rng.uniform(0, 6, 2), rng.uniform(0.1, 2, 2))
        )
        measure = CircleMeasure(atoms, float(rng.uniform(0, 1)))
        w = 0.95 * math.sqrt(rng.uniform()) * np.exp(1j * rng.uniform(0, 6.28))
        assert szego_potential(measure, complex(w)) >= measure.total_mass / 4.0


def test_additivity_in_measure():
    a = CircleMeasure.point_mass(0.3, 0.7)
    b = CircleMeasure.arc_length(0.2)
    combined = CircleMeasure(a.atoms, 0.2)
    z = 0.3 - 0.2j
    assert poisson_integral(combined, z) == pytest.approx(
        poisson_integral(a, z) + poisson_integral(b, z)
    )
    assert szego_potential(combined, z) == pytest.approx(
        szego_potential(a, z) + szego_potential(b, z)
    )


def test_measure_json_round_trip():
    measure = CircleMeasure((Atom(0.5, 1.0),), 0.25)
    assert CircleMeasure.from_json(measure.to_json()) == measure


def test_tuple_json_round_trip():
    mt = MeasureTuple((CircleMeasure.arc_length(), CircleMeasure.point_mass(1.0)))
    assert MeasureTuple.from_json(mt.to_json()) == mt


def test_tuple_requires_entry():
    with pytest.raises(ValueError):
        MeasureTuple(())


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_rejects_non_finite_parts(bad):
    with pytest.raises(ValueError):
        Atom(bad, 1.0)
    with pytest.raises(ValueError):
        Atom(0.0, bad)
    with pytest.raises(ValueError):
        CircleMeasure((), bad)
    with pytest.raises(ValueError):
        CircleMeasure.from_json({"atoms": [{"angle": 0.0, "mass": bad}]})

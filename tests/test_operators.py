"""Operator-lab unit tests."""

import math

import numpy as np
import pytest

from dirikit import (
    AnalyticFunction,
    Atom,
    CircleMeasure,
    MeasureTuple,
    defect_kernel_check,
    defect_sequence,
    forward_differences,
    gram_section,
    tuple_norm_sq,
)
from dirikit.operators import _atom_pair_matrix


def mono(k):
    return AnalyticFunction.monomial(k)


def test_tuple_norm_constant_ignores_atom():
    mt = MeasureTuple((CircleMeasure.point_mass(0.0),))
    assert tuple_norm_sq(AnalyticFunction((1.0,)), mt) == 1.0


def test_tuple_norm_linear_arc():
    mt = MeasureTuple((CircleMeasure.arc_length(),))
    assert tuple_norm_sq(mono(1), mt) == 2.0


def test_tuple_norm_two_entries():
    mt = MeasureTuple((CircleMeasure.arc_length(), CircleMeasure.point_mass(0.0)))
    assert tuple_norm_sq(mono(2), mt) == 4.0


def test_tuple_norm_rejects_truncations():
    mt = MeasureTuple((CircleMeasure.arc_length(),))
    with pytest.raises(ValueError):
        tuple_norm_sq(AnalyticFunction((1.0,), exact=False), mt)


def test_gram_arc_length_diagonal():
    section = gram_section(MeasureTuple((CircleMeasure.arc_length(),)), 2)
    assert np.allclose(section.matrix, np.diag([1.0, 2.0, 3.0]))


def test_gram_point_mass_min_pattern():
    section = gram_section(MeasureTuple((CircleMeasure.point_mass(0.0),)), 2)
    mins = np.array([[min(j, k) for k in range(3)] for j in range(3)])
    assert np.allclose(section.matrix, np.eye(3) + mins)


def test_gram_zero_measure_is_identity():
    section = gram_section(MeasureTuple((CircleMeasure.zero(),)), 3)
    assert np.allclose(section.matrix, np.eye(4))


def test_gram_atom_closed_form():
    # oracle: polarized atom pairing is lam^(j-k) binom(min(j, k), order),
    # a hockey-stick sum over the quotient coefficients
    angle = 1.3
    lam = np.exp(1j * angle)
    order = 2
    mt = MeasureTuple((CircleMeasure.zero(), CircleMeasure.point_mass(angle)))
    section = gram_section(mt, 5)
    for j in range(6):
        for k in range(6):
            expected = (0.0 if j != k else 1.0) + lam ** (j - k) * math.comb(
                min(j, k), order
            )
            assert section.matrix[j, k] == pytest.approx(expected)


def test_gram_diagonal_matches_tuple_norm():
    mt = MeasureTuple(
        (
            CircleMeasure((Atom(0.4, 0.7),), 0.3),
            CircleMeasure.point_mass(2.0, 1.2),
        )
    )
    section = gram_section(mt, 6)
    for k in range(7):
        assert section.matrix[k, k].real == pytest.approx(
            tuple_norm_sq(mono(k), mt)
        )
        assert abs(section.matrix[k, k].imag) < 1e-12


def test_gram_hermitian_positive_semidefinite():
    mt = MeasureTuple(
        (
            CircleMeasure((Atom(0.9, 0.5), Atom(4.0, 1.5)), 0.2),
            CircleMeasure.arc_length(0.7),
        )
    )
    section = gram_section(mt, 8)
    assert np.allclose(section.matrix, section.matrix.conj().T)
    eigenvalues = np.linalg.eigvalsh(section.matrix)
    assert eigenvalues.min() > -1e-10


def test_gram_csv_rows():
    section = gram_section(MeasureTuple((CircleMeasure.arc_length(),)), 1)
    rows = section.to_csv_rows()
    assert rows[0] == ["0", "1"]
    assert rows[1][0] == "1+0j"
    assert rows[2][1] == "2+0j"


def test_forward_differences():
    beta = [1.0, 4.0, 9.0, 16.0]
    assert forward_differences(beta, 1) == [3.0, 5.0, 7.0]
    assert forward_differences(beta, 2) == [2.0, 2.0]
    assert forward_differences(beta, 3) == [0.0]


def test_defect_arc_length_two_isometry():
    report = defect_sequence(
        AnalyticFunction((1.0,)), MeasureTuple((CircleMeasure.arc_length(),)), 3
    )
    assert report.beta == [1.0, 2.0, 3.0, 4.0]
    assert report.differences[2] == [0.0, 0.0]


def test_defect_atom_order_two():
    mt = MeasureTuple((CircleMeasure.zero(), CircleMeasure.point_mass(0.0)))
    report = defect_sequence(AnalyticFunction((1.0,)), mt, 3)
    assert report.beta == [1.0 + math.comb(k, 2) for k in range(4)]
    assert report.differences[3] == [0.0]
    assert report.differences[2][0] == 1.0


def test_defect_root_factor_linearizes():
    mt = MeasureTuple((CircleMeasure.zero(), CircleMeasure.point_mass(0.0)))
    report = defect_sequence(AnalyticFunction((-1.0, 1.0)), mt, 3)
    assert report.beta == pytest.approx([2.0 + k for k in range(4)])
    assert report.differences[2] == pytest.approx([0.0, 0.0], abs=1e-12)


def test_defect_report_json_shape():
    mt = MeasureTuple((CircleMeasure.arc_length(),))
    payload = defect_sequence(AnalyticFunction((1.0,)), mt, 2).to_json()
    assert set(payload) == {"beta", "differences"}
    assert set(payload["differences"]) == {"1", "2"}


def test_kernel_check_root_case():
    check = defect_kernel_check(
        AnalyticFunction((-1.0, 1.0)),
        CircleMeasure.zero(),
        CircleMeasure.point_mass(0.0),
    )
    assert check.consistent
    assert check.defect2 == pytest.approx(0.0, abs=1e-12)
    assert check.order_zero == 0.0


def test_kernel_check_constant():
    check = defect_kernel_check(
        AnalyticFunction((1.0,)),
        CircleMeasure.zero(),
        CircleMeasure.point_mass(0.0),
    )
    assert check.consistent
    assert check.defect2 == pytest.approx(1.0)
    assert check.order_zero == pytest.approx(1.0)


def test_kernel_check_double_root():
    atoms = CircleMeasure((Atom(0.0, 1.0), Atom(math.pi, 1.0)))
    f = AnalyticFunction((-1.0, 0.0, 1.0))  # (z - 1)(z + 1)
    check = defect_kernel_check(f, CircleMeasure.zero(), atoms)
    assert check.consistent
    assert check.defect2 == pytest.approx(0.0, abs=1e-12)
    assert check.order_zero == pytest.approx(0.0, abs=1e-24)


def test_kernel_check_requires_atomic_tail():
    with pytest.raises(ValueError):
        defect_kernel_check(
            AnalyticFunction((1.0,)),
            CircleMeasure.zero(),
            CircleMeasure.arc_length(),
        )


def test_second_defect_positive_for_pair_tuples():
    rng = np.random.default_rng(21)
    for _ in range(25):
        degree = int(rng.integers(0, 7))
        coeffs = rng.uniform(-1, 1, degree + 1) + 1j * rng.uniform(
            -1, 1, degree + 1
        )
        f = AnalyticFunction(tuple(coeffs))
        base = CircleMeasure.point_mass(float(rng.uniform(0, 6)), 0.8)
        tail = CircleMeasure.point_mass(float(rng.uniform(0, 6)), 1.1)
        report = defect_sequence(f, MeasureTuple((base, tail)), 2)
        assert report.differences[2][0] >= -1e-9


def test_gram_quadratic_form_is_tuple_norm():
    # G[j, k] = <z^j, z^k> is linear in j: the norm is a^T G conj(a)
    mt = MeasureTuple(
        (
            CircleMeasure((Atom(0.4, 0.7),), 0.3),
            CircleMeasure.point_mass(2.0, 1.2),
            CircleMeasure((Atom(1.0, 0.5), Atom(3.0, 0.8)), 0.4),
        )
    )
    rng = np.random.default_rng(3)
    a = rng.uniform(-1, 1, 9) + 1j * rng.uniform(-1, 1, 9)
    matrix = gram_section(mt, 8).matrix
    form = a @ matrix @ a.conj()
    norm = tuple_norm_sq(AnalyticFunction(tuple(a)), mt)
    assert form.real == pytest.approx(norm, rel=1e-12)
    assert abs(form.imag) < 1e-12 * norm
    assert abs((a.conj() @ matrix @ a).real - norm) > 1.0


def test_atom_pair_matrix_matches_the_row_by_row_basis():
    for degree in (1, 2, 7, 24, 40):
        for order in (1, 2, 4):
            angle = 0.37 * degree - 1.1 * order
            lam = complex(np.exp(1j * angle))
            basis = np.zeros((degree + 1, degree), dtype=complex)
            for k in range(1, degree + 1):
                basis[k, :k] = lam ** np.arange(k - 1, -1, -1)
            weights = np.array(
                [math.comb(t, order - 1) if t >= order - 1 else 0 for t in range(degree)],
                dtype=float,
            )
            expected = (basis * weights) @ basis.conj().T
            assert np.array_equal(_atom_pair_matrix(angle, order, degree), expected)

"""Operator-lab unit tests."""

import math

import mpmath
import numpy as np
import pytest

import dirikit.quadrature
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
from dirikit.operators import _defect_kernel_checks


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
    with pytest.raises(ValueError, match="exact polynomials only"):
        defect_sequence(AnalyticFunction((1.0,), exact=False), mt, 2)


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


def _random_function(rng, max_degree):
    degree = int(rng.integers(0, max_degree + 1))
    return AnalyticFunction(
        rng.uniform(-1, 1, degree + 1) + 1j * rng.uniform(-1, 1, degree + 1)
    )


def _random_entry(rng):
    kind = int(rng.integers(0, 4))
    if kind == 0:
        return CircleMeasure.zero()
    if kind == 1:
        return CircleMeasure.arc_length(float(rng.uniform(0.2, 2.0)))
    atoms = tuple(
        Atom(0.5 + 2.0 * a + float(rng.uniform(0, 1)), float(rng.uniform(0.2, 2)))
        for a in range(int(rng.integers(1, 4)))
    )
    return CircleMeasure(atoms, 0.0 if kind == 2 else float(rng.uniform(0.2, 2)))


def test_batched_defects_are_each_items_own(monkeypatch):
    # one batch of kernel checks, rooted and not, whose order-zero
    # integrals span many runs of a cell budget patched down, gives each
    # item its defect_kernel_check at the default budget, bit for bit
    rng = np.random.default_rng(15)
    checks = []
    for rooted in (True, False, True, False, False):
        atomic = CircleMeasure(_random_entry(rng).atoms or (Atom(1.0, 1.0),))
        f = _random_function(rng, 5)
        for atom in atomic.atoms if rooted else ():
            f = f * AnalyticFunction((-atom.point, 1.0))
        checks.append((f, _random_entry(rng), atomic))
    kernel_checks = [defect_kernel_check(*item) for item in checks]
    budget = 16
    monkeypatch.setattr(dirikit.quadrature, "_CELL_BUDGET", budget)
    rows = max(f.degree for f, _, _ in checks) + 1
    assert sum(len(atomic.atoms) for _, _, atomic in checks) > 4 * (budget // rows)
    for check, alone in zip(_defect_kernel_checks(checks), kernel_checks, strict=True):
        assert check.defect2.hex() == alone.defect2.hex()
        assert check.order_zero.hex() == alone.order_zero.hex()
        assert check.consistent == alone.consistent


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
    # each defect_sequence beta_k, a form on the section's block at k,
    # against the exact route's tuple_norm_sq of the shift z^k f.  In exact
    # arithmetic both are one sum.  On the section of the tuple with every
    # atom moved to z = 1 (its masses merged) each term of that sum is
    # non-negative, so S = |c|^T A |c| on that section's block bounds the
    # sum of the terms' magnitudes on either path: a term is mass times
    # binom(min(j, k), n) lam^(j-k) c_j conj(c_k).  The form chains 3
    # recurrences of at most D + 1 = deg f + k + 1 steps (the running
    # powers of each point, the row sums and the dot), one product by
    # binom(min(j, k), n) and one addition per part (the moment sums and
    # the sum over the entries, Hardy identity included).  The exact route
    # chains 4 (Horner, the division, the binomial sum and the squares) and
    # one addition per part.  A complex step rounds by at most 2u.  So each
    # path is within 2u (4 (D + 1) + parts) S of the sum, and the two
    # within twice that.
    for case in range(39):
        entries = [_random_entry(rng) for _ in range(int(rng.integers(1, 4)))]
        mt = MeasureTuple(tuple(entries))
        at_one = MeasureTuple(tuple(
            CircleMeasure((Atom(0.0, sum(a.mass for a in e.atoms)),) if e.atoms else (),
                          e.lebesgue)
            for e in entries
        ))
        parts = 1 + sum(len(e.parts) for e in entries)
        # degrees 0-12, three times each
        f = AnalyticFunction(rng.uniform(-1, 1, case % 13 + 1)
                             + 1j * rng.uniform(-1, 1, case % 13 + 1))
        c = np.abs(f.coeffs)
        top = len(entries) + 1
        absolute = gram_section(at_one, f.degree + top).matrix.real
        beta = defect_sequence(f, mt, top).beta
        for k in range(top + 1):
            shifted = AnalyticFunction(np.concatenate([np.zeros(k), f.coeffs]))
            block = absolute[k:k + f.degree + 1, k:k + f.degree + 1]
            bound = 4 * 2.0**-53 * (4 * (f.degree + k + 1) + parts) * (c @ block @ c)
            assert abs(beta[k] - tuple_norm_sq(shifted, mt)) <= bound


def test_an_overflowing_moment_leaves_the_vanishing_binomials_alone():
    # the masses add up beyond the float range, so h_0 is infinite; the
    # entries with min(j, k) < n have binom(min(j, k), n) = 0 and keep
    # the values of the Hardy identity rather than inf * 0 = NaN
    huge = CircleMeasure((Atom(0.0, 1e308), Atom(1.0, 1e308)))
    mt = MeasureTuple((CircleMeasure.zero(), CircleMeasure.zero(), huge))
    with np.errstate(over="ignore", invalid="ignore"):
        matrix = gram_section(mt, 5).matrix
    assert np.array_equal(matrix[:3], np.eye(6)[:3])
    assert np.array_equal(matrix[:, :3], np.eye(6)[:, :3])
    assert not np.isfinite(matrix[3, 3])
    assert defect_sequence(AnalyticFunction((1.0,)), mt, 2).beta == [1.0, 1.0, 1.0]


def _quotient_basis_section(lam, order, degree):
    """Order-``order`` section of a unit atom at ``lam``, summed pair by
    pair over the quotient basis g_k = sum_{t<k} lam^(k-1-t) z^t: entry
    [j, k] is sum_t g_j[t] binom(t, order - 1) conj(g_k[t]), the local
    Douglas formula one order down against arc length.  The powers of
    lam come from a running product."""
    powers = [1 + 0j]
    for _ in range(degree - 1):
        powers.append(powers[-1] * lam)
    basis = np.zeros((degree + 1, degree), dtype=complex)
    for k in range(1, degree + 1):
        basis[k, :k] = powers[k - 1::-1]
    weights = np.array([float(math.comb(t, order - 1)) for t in range(degree)])
    return (basis * weights) @ basis.conj().T


def _one_atom_section(angle, order, degree):
    """Unit atom at ``angle`` as tuple entry ``order``, the entries before
    it zero, and its Gram section without the Hardy identity, which adds
    exact integers to exact integers on the diagonal."""
    zeros = (CircleMeasure.zero(),) * (order - 1)
    measures = MeasureTuple(zeros + (CircleMeasure.point_mass(angle),))
    return gram_section(measures, degree).matrix - np.eye(degree + 1)


def test_one_atom_section_matches_the_quotient_basis():
    # u = 2^-53, D the degree, B[j, k] = binom(min(j, k), n).  Both paths
    # form lam^d, d < D, by at most D complex products, each within
    # sqrt(5) u < 2.25u: 2.25 D u.  The section rounds each entry once
    # more, B times lam^(j-k): (2.25 D + 1) u B.  The pair sum carries
    # two powers per term (4.5 D u), the weight product (u) and the
    # complex product (2.25u), and its at most D complex additions add
    # sqrt(2) D u of the sum of the terms' moduli, which is B |lam|^(...).
    # In exact arithmetic the two differ only through |lam|^2 = 1 + e:
    # the pair sum is lam^(j-k) sum_t binom(t, n-1) |lam|^(2(k-1-t)),
    # within D |e| of B lam^(j-k), and |e| <= 4u when cos and sin are
    # within 1 ulp.  In all, (12.2 D + 4.3) u B, so 16 (D + 1) u B holds.
    rng = np.random.default_rng(28)
    for degree in (1, 2, 7, 24, 40, 128):
        for order in (1, 2, 4):
            angle = float(rng.uniform(0.0, 2.0 * math.pi))
            section = _one_atom_section(angle, order, degree)
            (atom,) = CircleMeasure.point_mass(angle).atoms
            pairs = _quotient_basis_section(atom.point, order, degree)
            row = np.array([float(math.comb(t, order)) for t in range(degree + 1)])
            bound = 16 * (degree + 1) * 2.0**-53 * np.minimum.outer(row, row)
            assert (np.abs(section - pairs) <= bound).all()
            # the section is Hermitian bit for bit
            assert np.array_equal(section, section.conj().T)


def test_one_atom_section_matches_the_closed_form_at_200_bits():
    # The closed form is e^(i (j-k) a) binom(min(j, k), n) at the atom's
    # stored angle a, evaluated with 200 bits.  Its point lam = e^(ia)
    # is within 2u of the exact point when cos and sin are within 1 ulp,
    # so lam^d by d - 1 running products is within d 2u + (d - 1) 2.25u
    # of e^(ida), and the entry rounds once more: (4.25 D + 1) u B,
    # within 5 (D + 1) u B.  Entry [k + d, k] is B times the phase of
    # diagonal d, so each diagonal is checked at its first, middle and
    # last column; the section is Hermitian bit for bit (tested above).
    rng = np.random.default_rng(29)
    with mpmath.workprec(200):
        for degree in (8, 64, 128):
            angle = float(rng.uniform(0.0, 2.0 * math.pi))
            (atom,) = CircleMeasure.point_mass(angle).atoms
            phases = [mpmath.expj(d * mpmath.mpf(atom.angle)) for d in range(degree + 1)]
            for order in (1, 2, 3, 4):
                section = _one_atom_section(angle, order, degree)
                unit = 5 * (degree + 1) * 2.0**-53
                for d in range(degree - order + 1):
                    last = degree - d
                    for k in {order, (order + last) // 2, last}:
                        b = math.comb(k, order)
                        exact = b * phases[d]
                        assert abs(mpmath.mpc(section[k + d, k]) - exact) <= unit * b
                assert not section[:order].any() and not section[:, :order].any()

"""Function-model unit and property tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirikit.functions import times_linear

from dirikit import (
    AnalyticFunction,
    BoundaryDivergenceError,
    InexactDivisionError,
    add,
    boundary_value,
    derivative,
    dilate,
    divide_by_root,
    evaluate,
    multiply,
    scale,
)

coeff = st.complex_numbers(
    min_magnitude=0.0, max_magnitude=2.0, allow_nan=False, allow_infinity=False
)
polys = st.lists(coeff, min_size=1, max_size=12).map(
    lambda cs: AnalyticFunction(tuple(cs))
)


def test_evaluate_constant_term():
    assert evaluate(AnalyticFunction((1.0, 1.0)), 0.0) == 1.0


def test_evaluate_square():
    assert evaluate(AnalyticFunction((0.0, 0.0, 1.0)), 0.5) == 0.25


def test_evaluate_partial_geometric_sum():
    # oracle: closed-form geometric sum of ratio 1/2 through degree 20
    f = AnalyticFunction(tuple(0.5**k for k in range(21)), exact=False)
    expected = 2.0 - 2.0**-20
    assert evaluate(f, 1.0) == pytest.approx(expected, abs=1e-15)


def test_evaluate_rejects_outside_disc():
    # written so that a NaN point, alone or in an array, fails too
    for z in (1.5, complex("nan"), np.array([0.5, complex("nan")])):
        with pytest.raises(ValueError, match="outside the closed unit disc"):
            evaluate(AnalyticFunction((1.0, 2.0)), z)


def test_evaluate_accepts_arrays():
    f = AnalyticFunction((1.0, 2.0))
    grid = np.array([0.0, 0.5j])
    assert np.allclose(evaluate(f, grid), [1.0, 1.0 + 1.0j])


def test_derivative_simple():
    assert derivative(AnalyticFunction((0, 0, 1.0))).coeffs.tolist() == [0.0, 2.0]


def test_derivative_factorial():
    assert derivative(AnalyticFunction((0, 0, 0, 1.0)), 3).coeffs.tolist() == [6.0]


def test_derivative_coefficient_rule():
    # oracle: k!/(k-2)! a_k at k = 2 gives 2 * 3 = 6
    f = AnalyticFunction((1.0, 2.0, 3.0))
    assert derivative(f, 2).coeffs.tolist() == [6.0]


def test_derivative_beyond_degree_is_zero():
    assert derivative(AnalyticFunction((1.0, 1.0)), 5).coeffs.tolist() == [0.0]


def test_derivative_beyond_the_float_range_names_its_order():
    # 2 * 0.9e308 overflows at the first step, and a later step multiplies
    # that inf by the zero imaginary part of k, which gives NaN
    f = AnalyticFunction((0.0, 1e308, 0.9e308, 0.5e308))
    for order in (1, 3):
        with pytest.raises(OverflowError, match=f"order-{order} derivative"):
            derivative(f, order)
    assert derivative(f, 0) == f


@given(polys, st.integers(0, 3), st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_derivative_composes(f, i, j):
    left = derivative(derivative(f, i), j)
    right = derivative(f, i + j)
    width = max(len(left.coeffs), len(right.coeffs))
    a = np.zeros(width, complex)
    b = np.zeros(width, complex)
    a[: len(left.coeffs)] = left.coeffs
    b[: len(right.coeffs)] = right.coeffs
    assert np.array_equal(a, b)


def test_dilate_square():
    assert dilate(AnalyticFunction((0, 0, 1.0)), 0.5).coeffs.tolist() == [0.0, 0.0, 0.25]


def test_dilate_zero_radius_keeps_constant():
    f = AnalyticFunction((3.0, 1.0, 2.0))
    assert dilate(f, 0.0).coeffs.tolist() == [3.0, 0.0, 0.0]


def test_dilate_power_rule():
    f = AnalyticFunction((1.0, 1.0, 1.0))
    assert dilate(f, 0.9).coeffs == pytest.approx((1.0, 0.9, 0.81))


def test_dilate_rejects_bad_radius():
    with pytest.raises(ValueError):
        dilate(AnalyticFunction((1.0,)), 1.0)


@given(polys, st.floats(0.0, 0.95), st.floats(0.0, 0.95))
@settings(max_examples=60, deadline=None)
def test_dilate_composes(f, r, s):
    once = dilate(dilate(f, r), s)
    direct = dilate(f, r * s)
    for a, b in zip(once.coeffs, direct.coeffs):
        assert a == pytest.approx(b, rel=1e-14, abs=1e-300)


def test_divide_by_root_synthetic():
    g = divide_by_root(AnalyticFunction((0, 0, 1.0)), 1.0, 1.0)
    assert g.coeffs.tolist() == [1.0, 1.0]


def test_divide_by_root_constant():
    g = divide_by_root(AnalyticFunction((3.0,)), 1.0, 3.0)
    assert g.coeffs.tolist() == [0.0]


def test_divide_by_root_szego_truncation():
    # truncated kernel at w = 1/2, boundary point 1, alpha = 1/(1 - 1/2);
    # oracle: the infinite quotient is wbar/((1 - z wbar)(1 - wbar)), whose
    # coefficients at w = 1/2 are exactly (1/2)^k
    w = 0.5
    f = AnalyticFunction(tuple(w**k for k in range(31)), exact=False)
    g = divide_by_root(f, 1.0, 1.0 / (1.0 - w))
    for k in range(25):
        assert g.coeffs[k] == pytest.approx(w**k, abs=1e-10)
    # the residue is the gap left in the top equation g_29 = a_30
    assert abs(g.coeffs[-1] - f.coeffs[-1]) < 1e-8


def test_divide_by_root_flags_inexact():
    message = r"remainder 5\.000e-01 at lam=\(1\+0j\)"
    with pytest.raises(InexactDivisionError, match=message):
        divide_by_root(AnalyticFunction((0, 0, 1.0)), 1.0, 0.5)
    # a NaN alpha makes a NaN residue, which no tolerance flags
    with pytest.raises(ValueError, match="coefficients must be finite"):
        divide_by_root(AnalyticFunction((0, 0, 1.0)), 1.0, float("nan"))


@given(polys, st.floats(0.0, 2 * math.pi))
@settings(max_examples=60, deadline=None)
def test_divide_reconstructs_polynomial(f, angle):
    lam = complex(np.exp(1j * angle))
    alpha = evaluate(f, lam)
    g = divide_by_root(f, lam, alpha)
    rebuilt = add(
        multiply(g, AnalyticFunction((-lam, 1.0)), max_degree=f.degree + 1),
        AnalyticFunction((alpha,)),
    )
    scale_bound = max(1.0, max(abs(c) for c in f.coeffs))
    width = max(len(f.coeffs), len(rebuilt.coeffs))
    a = np.zeros(width, complex)
    b = np.zeros(width, complex)
    a[: len(f.coeffs)] = f.coeffs
    b[: len(rebuilt.coeffs)] = rebuilt.coeffs
    assert np.max(np.abs(a - b)) <= 1e-12 * scale_bound


def test_multiply_difference_of_squares():
    product = multiply(AnalyticFunction((1.0, 1.0)), AnalyticFunction((1.0, -1.0)))
    assert product.coeffs.tolist() == [1.0, 0.0, -1.0]


def test_add_identity():
    f = AnalyticFunction((1.0, 2.0, 3.0))
    assert np.array_equal(add(f, AnalyticFunction((0.0,))).coeffs, f.coeffs)


def test_multiply_square():
    f = AnalyticFunction((1.0, 1.0))
    assert multiply(f, f).coeffs.tolist() == [1.0, 2.0, 1.0]


def test_scale():
    assert scale(AnalyticFunction((1.0, 2.0)), 2.0).coeffs.tolist() == [2.0, 4.0]


def test_multiply_truncates_at_cap():
    f = AnalyticFunction(tuple([1.0] * 40))
    product = multiply(f, f)  # true degree 78 exceeds the default cap
    assert product.degree == 64
    assert not product.exact


def test_boundary_value_exact_polynomial():
    assert boundary_value(AnalyticFunction((0, 0, 1.0)), 1.0) == 1.0


def test_boundary_value_matches_evaluate_for_exact():
    f = AnalyticFunction((0.3, -0.7j, 1.2))
    lam = np.exp(0.4j)
    assert boundary_value(f, lam) == evaluate(f, lam)


def test_boundary_value_vanishing_factor():
    # f = (z - 1) g with g a degree-50 truncation of sum z^k/(k+1); the
    # root factor forces the radial limit at 1 to vanish
    g = AnalyticFunction(
        tuple(1.0 / (k + 1) for k in range(51)), exact=False
    )
    f = multiply(AnalyticFunction((-1.0, 1.0)), g, max_degree=52)
    assert abs(boundary_value(f, 1.0)) <= 1e-3


def test_boundary_value_szego_truncation():
    # oracle: 1/(1 - wbar) = 2 at w = 1/2
    f = AnalyticFunction(tuple(0.5**k for k in range(31)), exact=False)
    assert boundary_value(f, 1.0) == pytest.approx(2.0, abs=1e-6)


def test_boundary_value_divergence():
    f = AnalyticFunction(tuple(10.0**k for k in range(25)), exact=False)
    with pytest.raises(
        BoundaryDivergenceError, match=r"at lam=1\.000000\+0\.000000j: f diverges"
    ):
        boundary_value(f, 1.0)


def test_json_round_trip():
    f = AnalyticFunction((1.0 + 2.0j, -0.5), exact=False)
    assert AnalyticFunction.from_json(f.to_json()) == f


def test_rejects_empty_coefficients():
    with pytest.raises(ValueError):
        AnalyticFunction(())


def test_rejects_non_finite_coefficients():
    with pytest.raises(ValueError):
        AnalyticFunction((float("inf"),))


def test_times_linear_is_the_linear_product():
    f = AnalyticFunction((0.5 - 1j, 2.0, 0.25j), exact=False)
    root = np.exp(0.7j)
    product = times_linear(f, root)
    assert product == multiply(f, AnalyticFunction((-root, 1.0)), max_degree=3)
    assert product.degree == 3 and not product.exact


def test_rejects_non_flat_coefficients():
    for bad in (1.0, [[1.0, 2.0]], [[1.0], [2.0]]):
        with pytest.raises(ValueError):
            AnalyticFunction(bad)


finite = st.complex_numbers(allow_nan=False, allow_infinity=False)


@given(st.lists(finite, min_size=1, max_size=20), st.booleans())
@settings(max_examples=100, deadline=None)
def test_json_round_trip_of_any_finite_vector(cs, exact):
    f = AnalyticFunction(cs, exact)
    back = AnalyticFunction.from_json(f.to_json())
    assert back == f
    assert back.coeffs.tolist() == cs


@given(st.lists(finite, min_size=1, max_size=20), st.booleans())
@settings(max_examples=100, deadline=None)
def test_equal_functions_hash_equal(cs, exact):
    # adding 0.0 turns every -0.0 into 0.0, an equal value with other bytes
    f = AnalyticFunction(cs, exact)
    g = AnalyticFunction(np.array(cs, dtype=complex) + 0.0, exact)
    assert f == g
    assert hash(f) == hash(g)
    assert f != AnalyticFunction(cs, not exact)


def test_signed_zeros_are_one_function():
    f, g = AnalyticFunction((-0.0 - 0.0j,)), AnalyticFunction((0.0,))
    assert f == g and hash(f) == hash(g)
    assert len({f, g}) == 1


@given(st.lists(finite, min_size=1, max_size=20))
@settings(max_examples=50, deadline=None)
def test_coefficients_are_a_read_only_copy(cs):
    source = np.array(cs, dtype=complex)
    f = AnalyticFunction(source)
    assert f.coeffs.dtype == complex and f.coeffs.ndim == 1
    with pytest.raises(ValueError):
        f.coeffs[0] = 1.0
    source[:] = 7.0
    assert f.coeffs.tolist() == cs

"""Exact-matrix kit: constructors, group laws, symplectic checks."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from algebra_reference import SIGMA, check_symplectic, log_sinh, pair_vec
from dstfid.algebra import squeeze_matrix, state, thermal_matrix

finite_r = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
finite_beta = st.floats(min_value=1e-3, max_value=40.0, allow_nan=False)


def test_state_requires_exactly_one_temperature():
    with pytest.raises(ValueError):
        state(0.0, 0.0)
    with pytest.raises(ValueError):
        state(0.0, 0.0, beta=1.0, nbar=0.5)


def test_state_nbar_beta_round_trip():
    s = state(0.1 + 0.2j, 0.3, nbar=0.5)
    assert math.isclose(s.beta, math.log(3.0), rel_tol=1e-15)
    assert math.isclose(s.nbar, 0.5, rel_tol=1e-12)
    t = state(0.1 + 0.2j, 0.3, beta=s.beta)
    assert t == s


def test_state_rejects_nonpositive_temperatures():
    with pytest.raises(ValueError):
        state(0.0, 0.0, beta=0.0)
    with pytest.raises(ValueError):
        state(0.0, 0.0, beta=-1.0)
    with pytest.raises(ValueError):
        state(0.0, 0.0, nbar=0.0)
    with pytest.raises(ValueError):
        state(0.0, 0.0, nbar=-0.2)
    # pure-state limit is excluded, not silently clamped
    with pytest.raises(ValueError):
        state(0.0, 0.0, beta=1e6)


@pytest.mark.parametrize("beta, words", [
    (-math.inf, "strictly positive"),
    (math.nan, "strictly positive"),
    (math.inf, "pure-state limit"),
    (745.0, "pure-state limit"),
])
def test_state_names_the_bound_a_beta_breaks(beta, words):
    # one test per bound: -inf is below zero, not beyond the pure-state limit
    with pytest.raises(ValueError, match=words):
        state(0.0, 0.0, beta=beta)


@pytest.mark.parametrize("beta", [5e-324, 1e-320, 5.56e-309])
def test_state_rejects_a_beta_whose_nbar_overflows(beta):
    # nbar = 1/expm1(beta) overflows below ~5.6e-309; state(nbar=...) refuses
    # a non-finite nbar, and StateParams refuses the beta that would give one
    with pytest.raises(ValueError, match="nbar = 1/expm1\\(beta\\) leaves double range"):
        state(0.0, 0.0, beta=beta)
    assert math.isfinite(state(0.0, 0.0, beta=5.57e-309).nbar)


@pytest.mark.parametrize("nbar", [5.5e-309, 1e-320, 5e-324])
def test_every_positive_nbar_is_a_state(nbar):
    # 1/nbar overflows below ~5.56e-309, yet beta = log1p(nbar) - log(nbar),
    # which is -log(nbar) to the last bit here, stays below 745
    s = state(0.0, 0.0, nbar=nbar)
    assert math.isfinite(s.beta) and s.beta < 745.0
    assert s.beta == -math.log(nbar)
    assert s.nbar > 0.0


def test_state_rejects_nonfinite():
    with pytest.raises(ValueError):
        state(complex("nan"), 0.0, beta=1.0)
    with pytest.raises(ValueError):
        state(0.0, float("inf"), beta=1.0)


def test_sigma_is_the_antisymmetric_form():
    assert np.array_equal(SIGMA.T, -SIGMA)
    assert np.array_equal(SIGMA @ SIGMA, -np.eye(2))


def test_squeeze_matrix_entries():
    m = squeeze_matrix(0.7)
    ch, sh = math.cosh(0.7), math.sinh(0.7)
    assert np.allclose(m, [[ch, -sh], [-sh, ch]], rtol=0, atol=1e-15)
    assert np.array_equal(squeeze_matrix(0.0), np.eye(2))


def test_thermal_matrix_entries_and_inverse():
    b = thermal_matrix(1.3, 0.5)
    assert b[0, 1] == 0 and b[1, 0] == 0
    assert math.isclose(b[0, 0].real, math.exp(-0.65), rel_tol=1e-15)
    prod = b @ thermal_matrix(1.3, -0.5)
    assert np.allclose(prod, np.eye(2), rtol=0, atol=1e-15)
    with pytest.raises(ValueError):
        thermal_matrix(0.0, 0.5)


@given(finite_r, finite_r)
def test_squeeze_group_law(r1, r2):
    lhs = squeeze_matrix(r1) @ squeeze_matrix(r2)
    rhs = squeeze_matrix(r1 + r2)
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1.0, np.max(np.abs(rhs)))


@given(finite_r)
def test_squeeze_matrix_is_symplectic(r):
    assert check_symplectic(squeeze_matrix(r), tol=1e-10)


@given(finite_beta, st.floats(min_value=-1.0, max_value=1.0))
def test_thermal_matrix_is_symplectic_and_additive(beta, p):
    m = thermal_matrix(beta, p)
    assert check_symplectic(m, tol=1e-8 * max(1.0, float(np.max(np.abs(m)))))
    lhs = thermal_matrix(beta, p) @ thermal_matrix(beta, 0.25)
    rhs = thermal_matrix(beta, p + 0.25)
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1.0, np.max(np.abs(rhs)))


def test_check_symplectic_rejects_scaling():
    assert not check_symplectic(2.0 * np.eye(2))
    with pytest.raises(ValueError):
        check_symplectic(np.eye(2), tol=0.0)


@given(st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False))
def test_pair_vec_invariant(g):
    v = pair_vec(g)
    assert v[0] == g
    assert v[1] == -g.conjugate()


def test_pair_vec_example():
    v = pair_vec(1 + 2j)
    assert v[0] == 1 + 2j and v[1] == -(1 - 2j)


@given(st.floats(min_value=1e-3, max_value=350.0))
def test_log_sinh_matches_direct(x):
    assert math.isclose(log_sinh(x), math.log(math.sinh(x)), rel_tol=1e-12, abs_tol=1e-12)


def test_log_hyperbolics_large_argument():
    # far past the overflow point of sinh itself
    assert math.isclose(log_sinh(600.0), 600.0 - math.log(2.0), rel_tol=1e-15)
    with pytest.raises(ValueError):
        log_sinh(0.0)


@pytest.mark.parametrize("x", [1e-12, 1e-7])
def test_log_sinh_small_argument(x):
    # sinh x = x (1 + x^2/6 + ...); no cancellation may eat the digits
    assert math.isclose(log_sinh(x), math.log(x) + math.log1p(x * x / 6.0), rel_tol=1e-14)

"""Scalar-commutator merging of ladder-linear exponentials.

The merge rule is exact, so everything here is checked either bit-for-bit or
against dense truncated-space matrix exponentials.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dstfid.algebra import pair_vec
from dstfid.bch import LinExpOp, bch_merge, commutator_scalar, displacement_compose
from dstfid.fock import annihilation, matrix_exp

small_c = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)


def _op_matrix(coeff, vec, cutoff):
    """Dense matrix of (a^dag, a) . coeff . vec on the truncated space."""
    a = annihilation(cutoff)
    w = np.asarray(coeff, dtype=complex) @ np.asarray(vec, dtype=complex)
    return w[0] * a.conj().T + w[1] * a


def test_commutator_identity_ops_vanishes():
    assert commutator_scalar(np.eye(2), (1.0, 0.0), np.eye(2), (1.0, 0.0)) == 0.0


def test_commutator_canonical_pair():
    # Omega1 = a^dag, Omega2 = a -> [a^dag, a] = -1
    c = commutator_scalar(np.eye(2), (1.0, 0.0), np.eye(2), (0.0, 1.0))
    assert c == -1.0


def test_commutator_weighted_example():
    n1 = np.array([[1.0, 0.0], [0.0, 2.0]])
    c = commutator_scalar(n1, (1.0, 1.0), np.eye(2), (1.0, -1.0))
    assert c == 3.0


def test_commutator_weighted_example_against_fock():
    n1 = np.array([[1.0, 0.0], [0.0, 2.0]])
    cutoff = 40
    m1 = _op_matrix(n1, (1.0, 1.0), cutoff)
    m2 = _op_matrix(np.eye(2), (1.0, -1.0), cutoff)
    comm = m1 @ m2 - m2 @ m1
    # the matrix commutator is scalar * identity away from the truncation edge
    interior = comm[:30, :30]
    assert np.allclose(interior, 3.0 * np.eye(30), atol=1e-12)


@given(small_c, small_c, small_c, small_c)
def test_commutator_antisymmetric_bitwise(u0, u1, w0, w1):
    n = np.eye(2)
    ab = commutator_scalar(n, (u0, u1), n, (w0, w1))
    ba = commutator_scalar(n, (w0, w1), n, (u0, u1))
    assert ab == -ba  # exact, same products in both orders


@given(small_c, small_c)
def test_merge_scalar_log_swap_sum(z1, z2):
    """Swapping the factors flips only the commutator term, so the two
    scalar_logs average to l1 + l2 exactly."""
    op1 = LinExpOp(0.1 + 0.2j, np.eye(2), pair_vec(z1))
    op2 = LinExpOp(-0.3j, np.eye(2), pair_vec(z2))
    m12 = bch_merge(op1, op2)
    m21 = bch_merge(op2, op1)
    total = op1.log_scalar + op2.log_scalar
    assert m12.scalar_log + m21.scalar_log == pytest.approx(2.0 * total, abs=1e-15)
    assert np.array_equal(m12.combined_vec, m21.combined_vec)


@settings(max_examples=20)
@given(small_c, small_c)
def test_merge_matches_dense_product(z1, z2):
    op1 = LinExpOp(0.0, np.eye(2), pair_vec(z1))
    op2 = LinExpOp(0.0, np.eye(2), pair_vec(z2))
    merged = bch_merge(op1, op2)

    cutoff = 48
    lhs = matrix_exp(_op_matrix(op1.coeff, op1.vec, cutoff)) @ matrix_exp(
        _op_matrix(op2.coeff, op2.vec, cutoff)
    )
    rhs = np.exp(merged.scalar_log) * matrix_exp(
        _op_matrix(np.eye(2), merged.combined_vec, cutoff)
    )
    # compare on the interior block, away from truncation artifacts
    n = 12
    assert np.max(np.abs(lhs[:n, :n] - rhs[:n, :n])) < 1e-8


def test_displacement_compose_example():
    g, c_log = displacement_compose(1.0, 1j)
    assert g == -1 + 1j
    assert c_log == 1j


def test_displacement_compose_difference_is_plain():
    g, c_log = displacement_compose(0.3 + 0.4j, 0.3 + 0.4j)
    assert g == 0.0
    assert c_log == 0.0
    g, _ = displacement_compose(0.25j, 0.5)
    assert g == 0.5 - 0.25j


@given(small_c, small_c)
def test_displacement_compose_phase_is_imaginary(k1, k2):
    g, c_log = displacement_compose(k1, k2)
    assert g == k2 - k1
    assert abs(c_log.real) < 1e-15


@given(small_c, small_c)
def test_displacement_compose_is_the_merged_displacements(k1, k2):
    # the closed form against the BCH merge it replaces, and elementwise on arrays
    eye = np.eye(2)
    merged = bch_merge(LinExpOp(0.0, eye, pair_vec(-k1)), LinExpOp(0.0, eye, pair_vec(k2)))
    g, c_log = displacement_compose(k1, k2)
    assert abs(g - merged.combined_vec[0]) <= 1e-15
    assert abs(c_log - merged.scalar_log) <= 1e-15
    gs, cs = displacement_compose(np.array([k1, 0.3j]), np.array([k2, 1.0]))
    assert abs(gs[0] - g) <= 1e-15 and abs(cs[0] - c_log) <= 1e-15


def test_linexpop_rejects_bad_shapes():
    with pytest.raises(ValueError):
        LinExpOp(0.0, np.eye(3), (1.0, 0.0))
    with pytest.raises(ValueError):
        LinExpOp(0.0, np.eye(2), (1.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        LinExpOp(complex("nan"), np.eye(2), (1.0, 0.0))

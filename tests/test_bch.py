"""Scalar-commutator merging of ladder-linear exponentials (the reference
module bch_reference, which the package does not import).

The merge rule is exact, so everything here is checked either bit-for-bit or
against dense truncated-space matrix exponentials.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algebra_reference import pair_vec
from bch_reference import LinExpOp, bch_merge, commutator_scalar
from dstfid.algebra import state
from dstfid.fock import matrix_exp
from dstfid.reduction import FidelityOptions, closed_form
from fock_reference import annihilation

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


def _merged_displacements(k1, k2):
    """(g, c_log) with D(k1)^dag D(k2) = D(-k1) D(k2) = exp(c_log) D(g), read
    off the reference merge; the merged column must be pair_vec(g)."""
    eye = np.eye(2)
    merged = bch_merge(LinExpOp(0.0, eye, pair_vec(-k1)), LinExpOp(0.0, eye, pair_vec(k2)))
    g = merged.combined_vec[0]
    assert np.array_equal(merged.combined_vec, pair_vec(g))
    return g, merged.scalar_log


def test_displacement_compose_example():
    g, c_log = _merged_displacements(1.0, 1j)
    assert g == -1 + 1j
    assert c_log == 1j


def test_displacement_compose_difference_is_plain():
    g, c_log = _merged_displacements(0.3 + 0.4j, 0.3 + 0.4j)
    assert g == 0.0
    assert c_log == 0.0
    g, _ = _merged_displacements(0.25j, 0.5)
    assert g == 0.5 - 0.25j


@given(small_c, small_c)
def test_displacement_compose_phase_is_imaginary(k1, k2):
    g, c_log = _merged_displacements(k1, k2)
    assert g == k2 - k1
    assert abs(c_log.real) < 1e-15


@given(small_c, small_c)
def test_displacement_compose_is_the_merged_displacements(k1, k2):
    """The merge is the mismatch g = k2 - k1 the package evaluates at, times
    the pure phase exp(i Im(conj(k1) k2)), which cancels out of every
    fidelity; and the batched closed form carries that g on every row."""
    g, c_log = _merged_displacements(k1, k2)
    assert abs(g - (k2 - k1)) <= 1e-15
    assert abs(c_log - 1j * (k1.conjugate() * k2).imag) <= 1e-15
    batch = closed_form(
        [(state(k1, 0.2, beta=1.0), state(k2, -0.1, beta=1.5)),
         (state(0.3j, 0.0, beta=2.0), state(1.0, 0.0, beta=2.0))],
        FidelityOptions(oracle=False),
    )
    assert abs(batch.g[0] - g) <= 1e-15
    assert batch.g[1] == _merged_displacements(0.3j, 1.0)[0]


def test_linexpop_rejects_bad_shapes():
    with pytest.raises(ValueError):
        LinExpOp(0.0, np.eye(3), (1.0, 0.0))
    with pytest.raises(ValueError):
        LinExpOp(0.0, np.eye(2), (1.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        LinExpOp(complex("nan"), np.eye(2), (1.0, 0.0))

"""Truncated Fock-space oracle: operators, states, Uhlmann fidelity."""

import cmath
import itertools
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dstfid.fock as fock
from dstfid.algebra import StateParams, state
from dstfid.fock import (
    ConvergenceError,
    cutoff_ladder,
    dst_state,
    fidelity_oracle,
    matrix_exp,
    thermal_cutoff_requirement,
    thermal_weights,
)
from fock_reference import (
    ContractViolationError,
    annihilation,
    displacement_op,
    full_size_rung,
    squeeze_op,
    thermal_state,
    uhlmann_fidelity,
)
from gaussian_reference import gaussian_reference


def _framed(s1, s2, ceiling=fock.DEFAULT_CUTOFF_CEILING):
    """The pair the oracle's ladder runs on under that ceiling: state 1 in
    its Williamson frame, or at k = 0 in the joint squeeze frame where the
    Williamson start reaches the ceiling (fock._ladder_frame)."""
    return fock._ladder_frame(s1, s2, ceiling)[:2]


def test_annihilation_smallest_case():
    a = annihilation(2)
    assert np.array_equal(a, np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


def test_annihilation_commutator_truncation_structure():
    # [a, a^dag] = I except the last diagonal slot, which pays for truncation
    a = annihilation(3)
    comm = a @ a.conj().T - a.conj().T @ a
    assert np.allclose(np.diag(comm), [1.0, 1.0, -2.0], atol=1e-14)


def test_number_operator_diagonal():
    a = annihilation(10)
    num = a.conj().T @ a
    assert np.allclose(np.diag(num), np.arange(10), atol=1e-13)


def test_matrix_exp_unitary_for_antihermitian():
    a = annihilation(30)
    h = 0.4 * a.conj().T - 0.4 * a  # anti-Hermitian
    u = matrix_exp(h)
    assert np.max(np.abs(u @ u.conj().T - np.eye(30))) < 1e-12


def _oracle_displacement(k: complex, cutoff: int) -> np.ndarray:
    """The oracle's D(k): the parity blocks a rung sandwiches, in level order."""
    blocks = fock._displacement_blocks(k, fock._generator_chains(cutoff)[0])
    return fock._assembled(blocks, (cutoff, cutoff), complex)


def _oracle_squeeze(r: float, cutoff: int) -> np.ndarray:
    """The oracle's S(r): one real factor on the levels of each parity."""
    out = np.zeros((cutoff, cutoff))
    for parity, chain in enumerate(fock._generator_chains(cutoff)[1:]):
        out[parity::2, parity::2] = fock._chain_exp(chain, 0.5 * r)
    return out


@pytest.mark.parametrize("cutoff", [2, 3, 41, 256])
@pytest.mark.parametrize("k", [0.7 + 0.3j, -1.5, -0.4j, 0.0, 3 - 2j])
def test_displacement_equals_exp_of_truncated_generator(k, cutoff):
    assert np.max(np.abs(_oracle_displacement(k, cutoff) - displacement_op(k, cutoff))) <= 1e-12


def test_assembled_displacement_holds_one_complex_operator():
    # Peak traced memory in doubles per N^2 at N = 243 of D(k) assembled
    # from its parity blocks: the complex operator itself is 2; building it
    # out of place peaked at 5.3, and block by block it reads 3.56.
    import tracemalloc

    cutoff = 243
    _oracle_displacement(0.5 - 0.2j, cutoff)  # the chains and numpy's first-call allocations
    tracemalloc.start()
    try:
        _oracle_displacement(0.5 - 0.2j, cutoff)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 2.0 <= peak / (8 * cutoff**2) <= 4.0


def _bits(a: np.ndarray) -> np.ndarray:
    """a's doubles as int64, so a comparison sees signed zeros."""
    return np.ascontiguousarray(a).view(np.int64)


@pytest.mark.parametrize("cutoff", [2, 3, 41, 256])
@pytest.mark.parametrize("k2", [0.0, 0.9, -1.3, 0.7j, 0.4 - 1.1j],
                         ids=["zero", "positive", "negative", "imaginary", "complex"])
def test_displacement_blocks_are_the_overlap_blocks_bit_for_bit(k2, cutoff):
    # Each parity block, made complex and phased on its own, is that block of
    # D(k2) = R(phi) Q(t) R(phi)^dag formed and phased whole.  A lone element
    # (the 1 x 1 block of cutoffs 2 and 3) is the exception: numpy multiplies
    # it in place on another loop, which rounds a complex phase differently.
    chain = fock._generator_chains(cutoff)[0]
    overlap = _oracle_displacement(k2, cutoff)
    t, phi = fock._polar(k2)
    levels = np.arange(cutoff)
    whole = (np.exp(1j * phi * levels)[:, None] * fock._chain_exp(chain, t).astype(complex)
             * np.exp(-1j * phi * levels))
    order = []
    for p, q, block in fock._displacement_blocks(k2, chain):
        order.append((p, q))
        assert block.flags.c_contiguous
        assert np.array_equal(_bits(block), _bits(overlap[p::2, q::2]))
        if block.size > 1:
            assert np.array_equal(_bits(block), _bits(whole[p::2, q::2]))
    assert order == [(0, 0), (0, 1), (1, 0), (1, 1)]


@pytest.mark.parametrize("k1", [0.0, 0.3 + 0.4j], ids=["k1=0", "k1!=0"])
def test_rung_holds_one_displacement_block_at_a_time(k1):
    # Peak traced memory of a warm rung in doubles per N^2 at N = 243.  In
    # the joint squeeze frame, both states' squeeze factors of a parity
    # stacked: forming D(k2) whole peaked at 5.4 on the k1 = 0 pair, and its
    # blocks one at a time at 3.30 (3.31 at k1 != 0).  In the Williamson
    # frame the rung holds state 2's phased squeeze factors and one block of
    # D(k2)'s kept rows at a time: 3.19 at k1 = 0 and at k1 != 0.
    import tracemalloc

    cutoff = 243
    for ceiling in (fock.DEFAULT_CUTOFF_CEILING, 2):  # the Williamson, then the joint squeeze frame
        s1, s2 = _framed(state(k1, 0.3, nbar=1.9), state(0.5 - 0.2j, -0.2, nbar=1.9), ceiling)
        fock._rung_matrix(s1, s2, cutoff)  # the chains and numpy's first-call allocations
        tracemalloc.start()
        try:
            fock._rung_matrix(s1, s2, cutoff)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (8 * cutoff**2) <= 3.5, ceiling


@pytest.mark.parametrize("cutoff", [2, 3, 41, 256])
@pytest.mark.parametrize("r", [0.8, -0.8, -0.05, 0.0, 2.0])
def test_squeeze_equals_exp_of_truncated_generator(r, cutoff):
    assert np.max(np.abs(_oracle_squeeze(r, cutoff) - squeeze_op(r, cutoff))) <= 1e-12


@pytest.mark.parametrize(
    "op", [lambda n: _oracle_displacement(1.3, n), lambda n: _oracle_displacement(-0.6, n),
           lambda n: _oracle_squeeze(-0.9, n)]
)
@pytest.mark.parametrize("cutoff", [2, 3, 41, 256])
def test_real_displacement_and_squeeze_are_real_orthogonal(op, cutoff):
    q = op(cutoff)
    assert np.all(np.imag(q) == 0.0)
    q = np.real(q)
    assert np.max(np.abs(q.T @ q - np.eye(cutoff))) <= 1e-13


def test_displacement_vacuum_is_coherent_poisson():
    k = 0.7 + 0.3j
    cutoff = int(8 * abs(k) ** 2 + 30)
    d = displacement_op(k, cutoff)
    vac = np.zeros(cutoff)
    vac[0] = 1.0
    psi = d @ vac
    n = np.arange(cutoff)
    mean = abs(k) ** 2
    expected = np.exp(-mean) * mean**n / np.array([math.factorial(i) for i in n])
    assert np.max(np.abs(np.abs(psi) ** 2 - expected)) < 1e-8


def test_squeezed_vacuum_kills_odd_levels():
    s = squeeze_op(0.6, 60)
    vac = np.zeros(60)
    vac[0] = 1.0
    psi = s @ vac
    assert np.max(np.abs(psi[1::2])) < 1e-12
    # even amplitudes alternate in sign for r > 0 in this convention
    assert psi[0].real > 0 and psi[2].real < 0


def test_thermal_state_geometric_populations():
    beta = math.log(2.0)
    rho = thermal_state(beta, 60)
    pops = np.real(np.diag(rho))
    assert np.allclose(pops[:8], 0.5 * 0.5 ** np.arange(8), atol=1e-12)
    assert abs(np.trace(rho).real - 1.0) < 1e-12


def test_thermal_state_cold_limit_is_vacuum():
    rho = thermal_state(20.0, 8)
    assert abs(rho[0, 0].real - 1.0) < 1e-8
    assert np.max(np.abs(rho - np.diag(np.diag(rho)))) == 0.0


def test_thermal_state_refuses_truncated_tail():
    needed = thermal_cutoff_requirement(0.1)
    with pytest.raises(ValueError):
        thermal_state(0.1, needed - 1)


def test_thermal_mean_photon_number():
    s = state(0.0, 0.0, nbar=1.7)
    rho = thermal_state(s.beta, thermal_cutoff_requirement(s.beta) + 20)
    a = annihilation(rho.shape[0])
    mean = float(np.real(np.trace(a.conj().T @ a @ rho)))
    assert math.isclose(mean, 1.7, rel_tol=1e-10)


def test_thermal_purity():
    s = state(0.0, 0.0, nbar=0.8)
    rho = thermal_state(s.beta, 80)
    purity = float(np.real(np.trace(rho @ rho)))
    assert math.isclose(purity, 1.0 / (2 * 0.8 + 1.0), rel_tol=1e-8)


def test_dst_state_first_and_second_moments():
    """<a> = k; <a^dag a> = nbar cosh 2r + sinh^2 r + |k|^2;
    <a^2> = k^2 - sinh(2r)/2 * (2 nbar + 1)."""
    s = state(0.3 - 0.2j, 0.35, nbar=0.6)
    cutoff = 70
    rho = dst_state(s, cutoff)
    a = annihilation(cutoff)
    mean_a = complex(np.trace(a @ rho))
    assert abs(mean_a - s.k) < 1e-8

    nbar, r = 0.6, 0.35
    mean_n = float(np.real(np.trace(a.conj().T @ a @ rho)))
    expected_n = nbar * math.cosh(2 * r) + math.sinh(r) ** 2 + abs(s.k) ** 2
    assert math.isclose(mean_n, expected_n, rel_tol=1e-8)

    mean_aa = complex(np.trace(a @ a @ rho))
    expected_aa = s.k**2 - 0.5 * math.sinh(2 * r) * (2 * nbar + 1)
    assert abs(mean_aa - expected_aa) < 1e-8


def test_dst_state_cold_limit_is_nearly_pure():
    rho = dst_state(state(0.4, 0.3, beta=20.0), 60)
    purity = float(np.real(np.trace(rho @ rho)))
    assert purity > 1.0 - 1e-6


def test_uhlmann_self_fidelity():
    rho = dst_state(state(0.2 + 0.1j, 0.25, nbar=0.9), 60)
    assert abs(uhlmann_fidelity(rho, rho) - 1.0) < 1e-10


def test_uhlmann_orthogonal_pure_states():
    rho0 = np.zeros((10, 10), dtype=complex)
    rho1 = np.zeros((10, 10), dtype=complex)
    rho0[0, 0] = 1.0
    rho1[1, 1] = 1.0
    assert uhlmann_fidelity(rho0, rho1) < 1e-12


def test_uhlmann_coherent_overlap():
    k1, k2 = 0.3, 0.3 + 0.6j
    cutoff = 50
    rho1 = dst_state(state(k1, 0.0, beta=25.0), cutoff)
    rho2 = dst_state(state(k2, 0.0, beta=25.0), cutoff)
    fid = uhlmann_fidelity(rho1, rho2)
    assert math.isclose(fid, math.exp(-abs(k2 - k1) ** 2), rel_tol=1e-5)


@settings(max_examples=15)
@given(
    st.floats(min_value=-0.5, max_value=0.5),
    st.floats(min_value=0.2, max_value=1.5),
    st.floats(min_value=0.2, max_value=1.5),
)
@example(0.0, 0.640625, 0.640625)  # 4.75e-9 apart through the sandwich's eigenvalues
def test_uhlmann_symmetric(k_re, n1, n2):
    cutoff = 64
    rho1 = dst_state(state(k_re, 0.1, nbar=n1), cutoff)
    rho2 = dst_state(state(0.0, -0.2, nbar=n2), cutoff)
    f12 = uhlmann_fidelity(rho1, rho2)
    f21 = uhlmann_fidelity(rho2, rho1)
    assert math.isclose(f12, f21, rel_tol=1e-9, abs_tol=1e-12)


def test_uhlmann_unitary_invariance():
    cutoff = 70
    rho1 = dst_state(state(0.2, 0.1, nbar=0.5), cutoff)
    rho2 = dst_state(state(-0.1j, 0.3, nbar=1.0), cutoff)
    u = displacement_op(0.15 - 0.1j, cutoff)
    before = uhlmann_fidelity(rho1, rho2)
    after = uhlmann_fidelity(u @ rho1 @ u.conj().T, u @ rho2 @ u.conj().T)
    assert math.isclose(before, after, rel_tol=1e-8)


def test_uhlmann_rejects_non_density_input():
    bad = np.eye(4, dtype=complex)  # trace 4
    good = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    with pytest.raises(ContractViolationError):
        uhlmann_fidelity(bad, good)
    with pytest.raises(ContractViolationError):
        uhlmann_fidelity(good, np.triu(np.ones((4, 4))) / 4.0)


def test_oracle_converges_and_reports_rungs():
    res = fidelity_oracle(state(0.3, 0.2, nbar=0.5), state(0.1 + 0.2j, 0.5, nbar=1.0))
    assert res.convergence_gap <= 1e-8
    assert res.cutoff_used >= 30
    assert 0.0 < res.fidelity < 1.0
    last = res.rungs[-1]  # the last rung is the result
    assert (last.cutoff, last.fidelity, last.gap) == (res.cutoff_used, res.fidelity,
                                                      res.convergence_gap)


def test_oracle_fidelity_monotone_under_cutoff_growth():
    s1, s2 = _framed(state(0.3, 0.2, nbar=0.5), state(0.1 + 0.2j, 0.5, nbar=1.0))
    fids = [fock._svd_fidelity(fock._rung_matrix(s1, s2, n)) for n in (40, 60, 90)]
    gaps = [abs(fids[i + 1] - fids[i]) for i in range(len(fids) - 1)]
    assert gaps[1] < gaps[0]  # refinement shrinks the change


@pytest.mark.parametrize(
    "s1,s2",
    [
        (state(0.3, 0.2, nbar=0.5), state(0.1 + 0.2j, 0.5, nbar=1.0)),
        (state(-0.2j, -0.4, nbar=1.5), state(0.5, 0.3, beta=3.0)),
        (state(0.3 + 0.4j, 0.8, nbar=2.0), state(0.3 + 0.4j, 0.8, nbar=2.0)),
        (state(0.0, 0.3, nbar=0.4), state(0.4 - 0.3j, -0.5, nbar=1.2)),
        (state(0.4 - 0.3j, -0.5, nbar=1.2), state(0.0, 0.3, nbar=0.4)),
        (state(0.0, 0.3, nbar=0.4), state(0.0, -0.5, nbar=1.2)),
    ],
)
def test_rung_equals_uhlmann_of_dense_states(s1, s2):
    # the rung of the pair the oracle's frame moves to k1 = 0, against the
    # dense states as given
    cutoff = 80
    dense = uhlmann_fidelity(dst_state(s1, cutoff), dst_state(s2, cutoff))
    rung = fock._rung_matrix(*_framed(s1, s2), cutoff)
    assert abs(fock._svd_fidelity(rung) - dense) <= 1e-8


# The sqrt p trim keeps every level of this pair at N = 81, and M's measured
# row and column norms still shrink it to 73 x 74.
SHRUNK_BY_MEASURED_NORMS = (state(0.0, 0.3, nbar=1.5), state(0.8, 0.2, nbar=1.5), 81)


FULL_SIZE_RUNGS = [
    (state(0.4, 0.3, beta=4.0), state(-0.7j, -0.2, nbar=2.0), 80, (True, False)),
    (state(0.0, 0.5, nbar=2.0), state(0.6, 0.1, beta=3.0), 80, (False, True)),
    (state(0.3 - 0.2j, -0.4, beta=3.0), state(0.5j, 0.2, beta=5.0), 60, (True, True)),
    (state(-0.2j, 0.3, nbar=2.0), state(-0.5, -0.1, nbar=2.0), 80, (False, False)),
    # Odd cutoffs, with an odd number of kept levels in each state.
    (state(0.3 - 0.2j, 0.4, beta=1.5), state(-0.5j, -0.3, nbar=1.0), 61, (True, False)),
    (state(-0.4 + 0.1j, -0.3, nbar=1.5), state(0.6 + 0.2j, 0.2, beta=5.0), 79, (False, True)),
    (*SHRUNK_BY_MEASURED_NORMS, (False, False)),
]


@pytest.mark.parametrize("s1,s2,cutoff,dropped", FULL_SIZE_RUNGS)
def test_rung_matches_the_full_size_rung(s1, s2, cutoff, dropped):
    # The rung drops the levels of each state whose sqrt-weight tail is at
    # most 2.5e-14, then the rows and the columns of M whose measured norms
    # use up the rest of that budget; the full-size rung keeps every level
    # and multiplies the full operators.  Both take the pair in the joint
    # squeeze frame these rows were written for (a ceiling of 2 is below
    # every Williamson start).
    #
    # For SHRUNK_BY_MEASURED_NORMS the trim's own bound does not reach 1e-14.
    # In this frame at N = 81 its measured norms drop 8 rows of M (norms summing
    # to 2.25e-14) and then 10 columns (1.74e-14), down to 73 x 71.  Those sums
    # bound the move of sqrt F by 4.0e-14, and so of F by 7.0e-14; the dropped
    # blocks' nuclear norms (1.36e-14, 1.09e-14) give 4.3e-14.  Measured once
    # (one BLAS thread), the trim moves F by 9.3e-15, and the untrimmed rung
    # sits 3.3e-16 from the full-size rung.  So for this pair 1e-14 holds by
    # the measured 9.7e-15 alone: no bound keeps it below 1e-14.
    s1, s2 = _framed(s1, s2, ceiling=2)
    kept = [fock._kept_levels(np.sqrt(thermal_weights(s.beta, cutoff))) for s in (s1, s2)]
    assert tuple(n < cutoff for n in kept) == dropped
    if cutoff % 2:
        assert all(n % 2 for n in kept)
    assert all(m <= n for m, n in zip(fock._rung_matrix(s1, s2, cutoff).shape, kept))
    assert abs(fock._svd_fidelity(fock._rung_matrix(s1, s2, cutoff)) - full_size_rung(s1, s2, cutoff)) <= 1e-14


@pytest.mark.parametrize("s1,s2,cutoff", [row[:3] for row in FULL_SIZE_RUNGS
                                          if row[:3] != SHRUNK_BY_MEASURED_NORMS])
def test_williamson_framed_rung_matches_the_full_size_rung(s1, s2, cutoff):
    # FULL_SIZE_RUNGS in the oracle's Williamson frame, state 1 thermal.  The
    # frame moves the pair's trim: SHRUNK_BY_MEASURED_NORMS's rung reads
    # 1.8e-14 from its full-size rung there (1e-13 is the trim's bound).
    s1, s2 = _framed(s1, s2)
    assert (s1.k, s1.r) == (0, 0)
    assert abs(fock._svd_fidelity(fock._rung_matrix(s1, s2, cutoff)) - full_size_rung(s1, s2, cutoff)) <= 1e-14


# The k1 != 0 rows of FULL_SIZE_RUNGS at their cutoffs, but the hot pair (row
# 3, nbar = 2 in both states) at 108: at 80 its full-size rung is still
# 1.8e-9 from its value at 240, and truncation alone parts the framed and
# unframed rungs by 6.0e-11 there (4.4e-14 at 108).
@pytest.mark.parametrize("s1,s2,cutoff", [(s1, s2, 108 if i == 3 else cutoff)
                                          for i, (s1, s2, cutoff, _) in enumerate(FULL_SIZE_RUNGS)
                                          if s1.k])
def test_framed_rung_matches_the_unframed_full_size_rung(s1, s2, cutoff):
    # The Weyl relation the oracle's frame assumes, D(-k1) D(k2) = D(k2 - k1)
    # times a phase, against the full-size rung of the pair as given, which
    # builds D(k1) and D(k2) as separate factors: at a fixed cutoff the two
    # differ by truncation alone.
    framed = fock._svd_fidelity(fock._rung_matrix(*_framed(s1, s2), cutoff))
    assert abs(framed - full_size_rung(s1, s2, cutoff)) <= 1e-12


def test_measured_norms_shrink_a_rung_the_sqrt_p_trim_keeps_whole():
    assert fock._rung_matrix(*SHRUNK_BY_MEASURED_NORMS).shape == (73, 74)


def test_rung_value_does_not_depend_on_the_chain_cache():
    s1, s2 = _framed(state(0.3 - 0.2j, -0.4, beta=3.0), state(0.5j, 0.2, nbar=2.0))
    cutoff = 70
    fock._generator_chains.cache_clear()
    cold = fock._svd_fidelity(fock._rung_matrix(s1, s2, cutoff))
    warm = fock._svd_fidelity(fock._rung_matrix(s1, s2, cutoff))
    for chain in fock._generator_chains(cutoff):
        for part in chain:
            with pytest.raises(ValueError, match="read-only"):
                part[0] = 0.0
    for other in range(2, 35):  # 33 other cutoffs evict the entry
        fock._generator_chains(other)
    misses = fock._generator_chains.cache_info().misses
    evicted = fock._svd_fidelity(fock._rung_matrix(s1, s2, cutoff))
    assert fock._generator_chains.cache_info().misses == misses + 1
    assert cold == warm == evicted


# The oracle's fixed cutoff sequence: 2, then int(round(1.5 N)) of each.
CUTOFF_SEQUENCE = (2, 3, 4, 6, 9, 14, 21, 32, 48, 72, 108, 162, 243, 364, 546, 819, 1228)


def test_cutoff_ladder_climbs_the_fixed_sequence():
    assert tuple(itertools.islice(cutoff_ladder(2), len(CUTOFF_SEQUENCE))) == CUTOFF_SEQUENCE
    assert list(cutoff_ladder(30, 1024)) == [32, 48, 72, 108, 162, 243, 364, 546, 819, 1024]
    assert list(cutoff_ladder(48, 100)) == [48, 72, 100]
    # The first member (48) already reaches the ceiling: the start itself
    # is the first rung, so the ceiling still has a rung to agree with.
    assert list(cutoff_ladder(35, 40)) == [35, 40]
    assert list(cutoff_ladder(40, 48)) == [40, 48]
    # A start at or past the ceiling, an infinite one included, has no rung.
    assert list(cutoff_ladder(1024, 1024)) == []
    assert list(cutoff_ladder(math.inf, 1024)) == []


SEQUENCE_PAIRS = pytest.mark.parametrize(
    "s1, s2, ceiling",
    [
        (state(0.3, 0.2, nbar=0.5), state(0.1 + 0.2j, 0.5, nbar=1.0), 1024),
        (state(0.0, -0.7, beta=3.0), state(1.2 - 0.4j, 0.6, nbar=1.9), 1024),
        # hot: the thermal floor sets the start, the ladder passes 243
        (state(0.0, 0.1, nbar=8.0), state(0.2, -0.1, nbar=6.0), 1024),
        # displaced, k1 != 0, to an odd ceiling: its Williamson start (178)
        # passes the ceiling, so it runs in the joint squeeze frame, where
        # |k2 - k1| would start it at 111; the pair as given starts lower
        # (78), so it climbs 108, then the ceiling, as the next member (162)
        # passes it
        (state(-1.5 + 1.0j, 0.3, nbar=0.2), state(1.5 - 0.5j, -0.2, nbar=0.4), 151),
        # the first member (32) reaches the ceiling: [start, ceiling]
        (state(0.0, 0.0, nbar=0.05), state(0.1, 0.0, nbar=0.05), 32),
    ],
    ids=["readme", "squeezed", "hot", "displaced", "edge"],
)


def _stream_pairs(seed: int, count: int, k1_bound: float = 0.0, r_bound: float = 0.8,
                  r_gap: float = math.inf, nbar: tuple[float, float] = (0.05, 2.0)):
    """Seeded pairs from the stream benchmark's box: |k1| <= k1_bound (k1 = 0
    by default), |k2| <= 1.5, |r| <= 0.8, 0.05 <= nbar <= 2; r_bound, nbar
    and r_gap (r2 clipped to r1 +- r_gap) widen or move the box."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        r1, r2 = rng.uniform(-r_bound, r_bound, size=2)
        nbar1, nbar2 = rng.uniform(*nbar, size=2)
        k1, k2 = (cmath.rect(bound * math.sqrt(rng.uniform()), rng.uniform(0.0, 2.0 * math.pi))
                  if bound else 0.0 for bound in (k1_bound, 1.5))
        yield state(k1, r1, nbar=nbar1), state(k2, min(max(r2, r1 - r_gap), r1 + r_gap), nbar=nbar2)


def _near_pairs(seed: int, count: int):
    """k1 != 0 stream-box states, each with a state 1e-4 away in k, r and
    relative nbar: 1 - F <= 1e-6."""
    rng = np.random.default_rng(seed)
    for s1, _ in _stream_pairs(seed, count, k1_bound=1.0):
        dk_re, dk_im, dr, dn = rng.uniform(-1e-4, 1e-4, size=4)
        yield s1, state(s1.k + complex(dk_re, dk_im), s1.r + dr, nbar=s1.nbar * (1.0 + dn))


# ROADMAP item 24's reference battery: five families of 20 seeded pairs, each
# with the rungs and rung SVDs its 20 pairs took in the joint squeeze frame
# (at one and at two BLAS threads alike) as its bounds.  The Williamson frame
# takes 43/26, 40/22, 47/35, 47/33 and 40/20.
BATTERY = {
    "stream": (lambda: _stream_pairs(4901, 20), 45, 32),
    "k1": (lambda: _stream_pairs(4902, 20, k1_bound=1.0), 44, 30),
    "wide-squeeze": (lambda: _stream_pairs(4903, 20, k1_bound=1.0, r_bound=3.0, r_gap=1.5), 61, 58),
    "hot": (lambda: _stream_pairs(4904, 20, k1_bound=1.0, nbar=(2.0, 8.0)), 48, 35),
    "near-identical": (lambda: _near_pairs(4905, 20), 40, 20),
}


@pytest.mark.parametrize("pairs, max_rungs, max_svds", BATTERY.values(), ids=BATTERY.keys())
def test_battery_matches_the_reference_in_no_more_rungs_or_svds_than_recorded(pairs, max_rungs,
                                                                              max_svds):
    # Each pair within 1e-11 of the 50-digit reference; the worst errors read
    # 3.2e-14 (stream), 8.9e-13 (k1), 3.8e-13 (wide-squeeze), 5.4e-13 (hot)
    # and 8.5e-14 (near-identical, where 1 - F is 1e-9 or more); in the joint
    # squeeze frame 9.1e-14, 5.4e-13, 4.7e-13, 7.0e-13 and 8.5e-14.
    rungs = []
    for s1, s2 in pairs():
        res = fidelity_oracle(s1, s2)
        _, want, _ = gaussian_reference(s1.r, s1.beta, s2.r, s2.beta, s2.k - s1.k)
        assert abs(res.fidelity - want) <= 1e-11, (s1, s2)
        rungs += res.rungs
    svds = [r for r in rungs if r.fidelity is not None]
    assert len(rungs) <= max_rungs, len(rungs)
    assert len(svds) <= max_svds, len(svds)


@SEQUENCE_PAIRS
def test_oracle_rungs_are_sequence_members(s1, s2, ceiling):
    # the start the oracle's frame gives the pair under that ceiling
    start = fock._ladder_frame(s1, s2, ceiling)[3]
    res = fidelity_oracle(s1, s2, ceiling=ceiling)
    rungs = [r.cutoff for r in res.rungs]
    assert rungs[0] >= start
    assert res.cutoff_used == rungs[-1]
    if min(n for n in CUTOFF_SEQUENCE if n >= start) >= ceiling:
        assert rungs == [start, ceiling]
    else:
        assert set(rungs) <= {*CUTOFF_SEQUENCE, ceiling}, rungs


def test_stream_pairs_miss_the_chain_cache_once_per_cutoff():
    # A work count, not a timing: 32 seeded pairs from the stream
    # benchmark's box climb the fixed sequence, a handful of cutoffs, and
    # compute each one's generator SVDs once.  A start-dependent ladder
    # spreads such pairs over ~50 cutoffs, more than the cache holds.
    fock._generator_chains.cache_clear()
    rungs = [r.cutoff for s1, s2 in _stream_pairs(2020, 32) for r in fidelity_oracle(s1, s2).rungs]
    assert set(rungs) <= set(CUTOFF_SEQUENCE)
    assert fock._generator_chains.cache_info().misses <= len(set(rungs))


def _exact_ladder(s1, s2, tol=1e-8, ceiling=fock.DEFAULT_CUTOFF_CEILING, frame=False):
    """fidelity_oracle's climb, on the pair from the start the oracle's frame
    gives it where frame and on a pair at k1 = 0 as given otherwise, with
    every gap the exact difference of two rung values: (cutoff, fidelity,
    gap) of the converged rung, or None where the ladder reaches the
    ceiling."""
    s1, s2, _, start = fock._ladder_frame(s1, s2, ceiling) if frame else (
        s1, s2, 0.0, fock._starting_cutoff(s1, s2))
    prev = None
    for cutoff in cutoff_ladder(start, ceiling):
        fid = fock._svd_fidelity(fock._rung_matrix(s1, s2, cutoff))
        if prev is not None and abs(fid - prev) <= tol:
            return cutoff, fid, abs(fid - prev)
        prev = fid
    return None


def _assert_bounded_ladder_stops_with_the_exact_one(s1, s2, ceiling=fock.DEFAULT_CUTOFF_CEILING):
    res = fidelity_oracle(s1, s2, ceiling=ceiling)
    cutoff, fid, gap = _exact_ladder(s1, s2, ceiling=ceiling, frame=True)
    assert res.cutoff_used == cutoff, (s1, s2)
    assert res.fidelity == fid, (s1, s2)
    assert res.convergence_gap >= gap, (s1, s2)


@SEQUENCE_PAIRS
def test_bounded_ladder_stops_where_the_exact_ladder_does(s1, s2, ceiling):
    _assert_bounded_ladder_stops_with_the_exact_one(s1, s2, ceiling)


def test_bounded_ladder_stops_where_the_exact_ladder_does_on_stream_pairs():
    for s1, s2 in _stream_pairs(35, 32):
        _assert_bounded_ladder_stops_with_the_exact_one(s1, s2)


def test_nuclear_bound_covers_the_change_of_the_singular_value_sum():
    rng = np.random.default_rng(35)

    def nuclear(x):
        return np.sum(np.linalg.svd(x, compute_uv=False))

    for _ in range(200):
        shape_a = shape_b = (0, 0)
        while shape_a == shape_b:
            shape_a, shape_b = (tuple(rng.integers(1, 12, size=2)) for _ in range(2))
        a, b = (rng.normal(size=(*shape, 2)) @ (1.0, 1.0j) * rng.uniform(1e-6, 1.0)
                for shape in (shape_a, shape_b))
        assert fock._nuclear_bound(a, b) >= abs(nuclear(a) - nuclear(b))
        assert fock._nuclear_bound(a, b) == fock._nuclear_bound(b, a)
        assert fock._nuclear_bound(a, a.copy()) == 0.0


def test_readme_pair_ladder_computes_one_svd(monkeypatch):
    # Its second rung's gap bound is already below tol, so only the
    # reported rung needs its singular values.
    s1, s2 = state(0.3, 0.2, nbar=0.5), state(0.1 + 0.2j, 0.5, nbar=1.0)
    fidelity_oracle(s1, s2)  # the generator SVDs are cached from here on
    svd, calls = np.linalg.svd, []

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    res = fidelity_oracle(s1, s2)
    assert [r.cutoff for r in res.rungs] == [48, 72] and res.cutoff_used == 72
    assert len(calls) == 1, calls


def test_stream_pairs_build_no_more_rungs_or_svds_than_recorded():
    # A work count, not a timing: with the Williamson frame and the
    # nuclear-norm gap bound, 32 seeded stream pairs take 71 rungs and 46
    # rung SVDs (one per rung with a fidelity), at one and at two BLAS
    # threads alike (72 and 47 in the joint squeeze frame).  A change that
    # climbs more rungs or certifies fewer gaps by the bound fails here.
    rungs = [r for s1, s2 in _stream_pairs(35, 32) for r in fidelity_oracle(s1, s2).rungs]
    svds = [r for r in rungs if r.fidelity is not None]
    assert len(rungs) <= 71, len(rungs)
    assert len(svds) <= 46, len(svds)


def _squeezed(s, a):
    """s under the squeeze S(a): k -> e^{-a} Re k + i e^{a} Im k, r -> r + a."""
    return StateParams(complex(math.exp(-a) * s.k.real, math.exp(a) * s.k.imag), s.r + a, s.beta)


# Joint Gaussian unitaries leave the fidelity unchanged (Banchi, Braunstein
# and Pirandola 2015), and so does swapping the states.  Each map takes a
# pair and a seeded displacement c and squeeze a.
INVARIANCES = {
    "swap": lambda s1, s2, c, a: (s2, s1),
    "displacement": lambda s1, s2, c, a: tuple(replace(s, k=s.k + c) for s in (s1, s2)),
    "rotation": lambda s1, s2, c, a: tuple(replace(s, k=1j * s.k, r=-s.r) for s in (s1, s2)),
    "squeeze": lambda s1, s2, c, a: tuple(_squeezed(s, a) for s in (s1, s2)),
}


@pytest.mark.parametrize("move", INVARIANCES.values(), ids=INVARIANCES.keys())
def test_oracle_is_invariant_under_joint_gaussian_unitaries(move):
    # 16 k1 != 0 stream-box pairs, each with c (|c| <= 1) and a (|a| <= 0.5):
    # the worst deviations read 1.5e-13 (swap), 5.6e-16 (displacement),
    # 1.7e-16 (rotation) and 5.6e-16 (squeeze), at one and two BLAS threads.
    rng = np.random.default_rng(48)
    for s1, s2 in _stream_pairs(48, 16, k1_bound=1.0):
        c = cmath.rect(math.sqrt(rng.uniform()), rng.uniform(0.0, 2.0 * math.pi))
        moved = fidelity_oracle(*move(s1, s2, c, rng.uniform(-0.5, 0.5))).fidelity
        assert abs(moved - fidelity_oracle(s1, s2).fidelity) <= 1e-11, (s1, s2)


def test_k1_stream_pairs_match_the_reference_in_no_more_rungs_or_svds_than_recorded():
    # The invariance test's 16 pairs against the 50-digit reference (the
    # worst error reads 9.3e-14), and their work count, counted as
    # test_stream_pairs_build_no_more_rungs_or_svds_than_recorded counts its
    # own: 34 rungs and 21 rung SVDs, at one and at two BLAS threads (35 and
    # 23 in the joint squeeze frame).
    rungs = []
    for s1, s2 in _stream_pairs(48, 16, k1_bound=1.0):
        res = fidelity_oracle(s1, s2)
        _, want, _ = gaussian_reference(s1.r, s1.beta, s2.r, s2.beta, s2.k - s1.k)
        assert abs(res.fidelity - want) <= 1e-11, (s1, s2)
        rungs += res.rungs
    svds = [r for r in rungs if r.fidelity is not None]
    assert len(rungs) <= 34, len(rungs)
    assert len(svds) <= 21, len(svds)


def test_oracle_on_opposite_displacements_is_as_accurate_as_in_its_own_frame():
    # In the pair's own squeeze frame (s = 0.74) the rung at 162 is 5e-20
    # from the reference.  The joint squeeze frame of (0), (-6) (s = 1.07)
    # stopped its ladder at 162 with an error of 3.4e-13; the Williamson
    # frame, (0), (-6) unsqueezed, reads 6.3e-20 at 546.
    s1, s2 = state(3.0, 0.0, nbar=0.5), state(-3.0, 0.0, nbar=0.5)
    _, want, _ = gaussian_reference(0.0, s1.beta, 0.0, s2.beta, s2.k - s1.k)
    assert abs(fidelity_oracle(s1, s2).fidelity - want) <= 1e-14


def _assert_rungs_are_what_ran(monkeypatch, pairs):
    """Each pair's oracle rungs are the rungs it built, in order: each one's
    cutoff and kept shape are its M's, and each rung with a fidelity is the
    one SVD taken of its M."""
    rung_matrix, svd_fidelity = fock._rung_matrix, fock._svd_fidelity
    built, svds = [], []

    def recorded(s1, s2, cutoff):
        built.append((cutoff, rung_matrix(s1, s2, cutoff)))
        return built[-1][1]

    def counted(m):
        svds.append((next(n for n, x in built if x is m), svd_fidelity(m)))
        return svds[-1][1]

    monkeypatch.setattr(fock, "_rung_matrix", recorded)
    monkeypatch.setattr(fock, "_svd_fidelity", counted)
    for s1, s2, ceiling in pairs:
        built.clear()
        svds.clear()
        rungs = fidelity_oracle(s1, s2, ceiling=ceiling).rungs
        assert [r.cutoff for r in rungs] == [n for n, _ in built], (s1, s2)
        assert [r.kept for r in rungs] == [m.shape for _, m in built], (s1, s2)
        assert sorted(svds) == [(r.cutoff, r.fidelity) for r in rungs if r.fidelity is not None]


@SEQUENCE_PAIRS
def test_oracle_rungs_are_the_ladder_that_ran(monkeypatch, s1, s2, ceiling):
    _assert_rungs_are_what_ran(monkeypatch, [(s1, s2, ceiling)])


def test_oracle_rungs_are_the_ladder_that_ran_on_stream_pairs(monkeypatch):
    _assert_rungs_are_what_ran(monkeypatch, [(s1, s2, fock.DEFAULT_CUTOFF_CEILING)
                                             for s1, s2 in _stream_pairs(35, 32)])


def test_framed_oracle_agrees_with_the_unframed_ladder():
    # Both states displaced, complex k: D(-k1) moves state 1 to k = 0 and the
    # joint squeeze maps state 2's k2 - k1.  The ladder it must agree with
    # climbs the pair D(-k1) makes, outside the joint squeeze frame.
    rng = np.random.default_rng(13)
    tol = 1e-9
    for _ in range(12):
        r1, r2 = rng.uniform(-1.5, 1.5, 2)
        n1, n2 = rng.uniform(0.05, 2.0, 2)
        k1, k2 = (complex(*rng.uniform(-1.0, 1.0, 2)) for _ in range(2))
        s1, s2 = state(k1, r1, nbar=n1), state(k2, r2, nbar=n2)
        framed = fidelity_oracle(s1, s2, tol=tol)
        assert framed.frame_shift != 0.0
        unframed = _exact_ladder(state(0.0, r1, nbar=n1), state(k2 - k1, r2, nbar=n2), tol)
        assert unframed is not None and abs(framed.fidelity - unframed[1]) <= tol, (s1, s2)


def test_oracle_rungs_run_on_the_pair_moved_to_k1_zero(monkeypatch):
    # D(-k1), then S(-r1): every rung is built on the pair _ladder_frame
    # gives, state 1 at (0, 0, beta1) and state 2 at (e^{r1} Re(k2 - k1) +
    # i e^{-r1} Im(k2 - k1), r2 - r1, beta2), and the frame shift is -r1.
    # Under a ceiling its start (178) reaches, the rungs run on the joint
    # squeeze frame of (0, r1, beta1), (k2 - k1, r2, beta2).
    rung_matrix, seen = fock._rung_matrix, set()

    def recorded(s1, s2, cutoff):
        seen.add((s1, s2))
        return rung_matrix(s1, s2, cutoff)

    monkeypatch.setattr(fock, "_rung_matrix", recorded)
    s1, s2 = state(-1.5 + 1.0j, 0.3, nbar=0.2), state(1.5 - 0.5j, -0.2, nbar=0.4)
    williamson = (StateParams(0j, 0.0, s1.beta),
                  StateParams(complex(3.0 * math.exp(0.3), -1.5 * math.exp(-0.3)), -0.5, s2.beta))
    assert fock._ladder_frame(s1, s2, 1024)[:3] == (*williamson, -0.3)
    assert fidelity_oracle(s1, s2).frame_shift == -0.3
    assert seen == {williamson}
    seen.clear()
    framed1, framed2, shift, _ = fock._ladder_frame(s1, s2, 178)
    moved = state(0.0, 0.3, nbar=0.2), state(3.0 - 1.5j, -0.2, nbar=0.4)
    assert fock.joint_squeeze_frame(*moved) == (framed1, framed2, shift)
    assert fidelity_oracle(s1, s2, ceiling=178).frame_shift == shift
    assert seen == {(framed1, framed2)} and framed1.k == 0


def test_rung_refuses_a_displaced_state_1():
    # a rung reads state 2's k alone, so a pair that skipped the oracle's
    # frame would be the wrong pair
    with pytest.raises(ValueError, match="state 1 must come undisplaced"):
        fock._rung_matrix(state(0.3, 0.2, nbar=0.5), state(0.1 + 0.2j, 0.5, nbar=1.0), 48)


# k2 = -k1, as given and as the oracle converges on them at its default
# ceiling: the ladder's rungs and the start of the pair D(-k1) makes.
OPPOSITE_PAIRS = [
    (4.0 + 4.0j, 0.1, 0.0, [546, 819], 1056),
    (cmath.rect(5.6, math.pi / 4), 1.0, 0.0, [546, 819], 1044),
    (cmath.rect(5.6, math.pi / 4), 4.0, 0.5, [819, 1024], 1078),
]


@pytest.mark.parametrize("k, nbar, r, rungs, framed_start", OPPOSITE_PAIRS)
def test_oracle_starts_opposite_displacements_where_the_pair_as_given_does(
        k, nbar, r, rungs, framed_start):
    # D(-k1) doubles |k| here, so |k2 - k1|^2 is twice |k1|^2 + |k2|^2 and
    # the framed pair's own start passes the default ceiling: a ladder from
    # it would refuse at once.  The start of the pair as given is lower,
    # and the ladder converges from it, on the rungs an oracle without
    # D(-k1) climbed, to the closed form.
    from dstfid.reduction import FidelityOptions, fidelity

    s1, s2 = state(k, r, nbar=nbar), state(-k, -r, nbar=nbar)
    assert fock._starting_cutoff(*_framed(s1, s2)) == framed_start
    res = fidelity_oracle(s1, s2)
    assert [x.cutoff for x in res.rungs] == rungs
    want = fidelity(s1, s2, FidelityOptions(oracle=False)).value_matrix_pipeline
    assert abs(res.fidelity - want) <= 1e-11


def test_oracle_refuses_a_displacement_difference_past_double_range(monkeypatch):
    # k2 - k1 overflows: the oracle's frame cannot hold it, and the closed
    # form refuses the same g ("g must be finite")
    _refuse_rungs(monkeypatch)
    with pytest.raises(ValueError, match="displacement k must be finite"):
        fidelity_oracle(state(1e308, 0.0, nbar=1.0), state(-1e308, 0.0, nbar=1.0))


def test_frame_is_the_pair_as_given_where_no_shift_helps():
    # Equal unsqueezed states at the same temperature, displaced along both
    # quadratures alike: the larger mean photon number is least at s = 0,
    # and the pair comes back bit for bit (0.1 and 1e308 are not rounded
    # through exp(log|x|)).
    s = state(0.5 + 0.5j, 0.0, nbar=1.0)
    assert fock.joint_squeeze_frame(s, s) == (s, s, 0.0)
    assert fidelity_oracle(s, s).frame_shift == 0.0
    for k in (0.1 + 0.1j, 1e308 + 1e308j):
        s = state(k, 0.0, nbar=1.0)
        assert fock.joint_squeeze_frame(s, s) == (s, s, 0.0)


def test_cli_compute_converges_on_a_shared_squeeze_with_a_small_gap(capsys):
    # Climbed in the frame the pair is given in, this pair starts past the
    # ceiling ("gap trace: no rungs", exit 3).
    from dstfid.cli import main

    argv = ["compute", "--r1", "3", "--r2", "3.2", "--k2", "0.01", "--nbar1", "0.5",
            "--nbar2", "0.5", "--method", "all", "--format", "record"]
    assert main(argv) == 0
    record = json.loads(capsys.readouterr().out)
    assert abs(record["value_oracle"] - record["value_matrix_pipeline"]) <= 1e-9
    assert record["oracle"]["frame_shift"] == -3.0  # the Williamson frame's, -r1


def test_oracle_self_pair_is_one_to_rounding():
    s = state(0.3 + 0.4j, 0.8, nbar=2.0)
    res = fidelity_oracle(s, s)
    assert abs(res.fidelity - 1.0) <= 1e-13


def test_oracle_runs_no_matrix_exponential(monkeypatch):
    import scipy.linalg

    import dstfid.fock as fock

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle called a dense matrix exponential")

    monkeypatch.setattr(fock, "matrix_exp", refuse)
    monkeypatch.setattr(scipy.linalg, "expm", refuse)
    res = fidelity_oracle(state(0.3, 0.2, nbar=0.5), state(0.1 + 0.2j, 0.5, nbar=1.0))
    assert math.isclose(res.fidelity, 0.8509993417886631, rel_tol=0, abs_tol=5e-8)


def test_oracle_refuses_ceiling_below_thermal_tail():
    hot = state(0.0, 0.0, beta=0.01)
    with pytest.raises(ValueError, match="thermal tail"):
        fidelity_oracle(hot, hot, ceiling=100)


@pytest.mark.parametrize("ceiling", [math.nan, 100.5, math.inf, "200", 2.0],
                         ids=["nan", "fraction", "inf", "str", "integral-float"])
def test_oracle_refuses_a_ceiling_that_is_not_an_integer(ceiling):
    # A fraction would run a rung the ladder never names and inf a ladder with
    # no top; the options refuse it as the oracle does
    from dstfid.reduction import FidelityOptions

    s1, s2 = state(0, 0.3, nbar=1.9), state(1.4 + 0.3j, -0.7, nbar=1.9)
    message = f"ceiling must be an integer, got {ceiling!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        fidelity_oracle(s1, s2, ceiling=ceiling)
    with pytest.raises(ValueError, match=re.escape(message)):
        FidelityOptions(oracle_ceiling=ceiling)


def test_oracle_accepts_a_numpy_integer_ceiling():
    from dstfid.reduction import FidelityOptions

    s1, s2 = state(0, 0.3, nbar=1.9), state(1.4 + 0.3j, -0.7, nbar=1.9)
    assert FidelityOptions(oracle_ceiling=np.int64(300)).oracle_ceiling == 300
    assert fidelity_oracle(s1, s2, ceiling=np.int64(300)) == fidelity_oracle(s1, s2, ceiling=300)


def test_oracle_golden_point():
    res = fidelity_oracle(state(0.3, 0.2, nbar=0.5), state(0.1 + 0.2j, 0.5, nbar=1.0))
    assert math.isclose(res.fidelity, 0.8509993417886631, rel_tol=0, abs_tol=5e-8)


def test_oracle_ceiling_exhaustion_raises_with_trace():
    with pytest.raises(ConvergenceError) as exc:
        fidelity_oracle(state(0.0, 0.0, nbar=0.5), state(3.0, 0.0, nbar=0.5), ceiling=40)
    assert exc.value.rungs == ()  # clamped straight to the ceiling: no rung, no gap
    assert str(exc.value).endswith("(gap trace: no rungs); the ladder starts at cutoff 58, "
                                   "so the ceiling must exceed it")
    # Past the start, to a tol the ceiling cannot reach: the error carries
    # every rung climbed, and its exact ones hold the gap trace.
    with pytest.raises(ConvergenceError) as exc:
        fidelity_oracle(state(0.0, 0.0, nbar=0.5), state(3.0, 0.0, nbar=0.5), tol=1e-10,
                        ceiling=70)
    assert [r.cutoff for r in exc.value.rungs] == [58, 70]
    assert [(r.cutoff, r.gap) for r in exc.value.rungs if r.exact] != []
    assert "(gap trace: N=70: 3.832e-08)" in str(exc.value)


def _refuse_rungs(monkeypatch):
    import dstfid.fock as fock

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle computed a rung it cannot use")

    monkeypatch.setattr(fock, "_rung_matrix", refuse)


def test_oracle_starting_at_the_ceiling_computes_no_rung(monkeypatch):
    # The first rung would already sit at the default ceiling (1024), so no
    # second rung could confirm it.
    _refuse_rungs(monkeypatch)
    with pytest.raises(ConvergenceError, match=r"by cutoff 1024 \(gap trace: no rungs\)") as exc:
        fidelity_oracle(state(0.0, 30.0, nbar=1.0), state(0.1, 30.0, nbar=1.0))
    assert [(r.cutoff, r.gap) for r in exc.value.rungs if r.exact] == []


def test_cli_compute_past_the_ceiling_exits_before_any_rung(monkeypatch, capsys):
    from dstfid.cli import main

    _refuse_rungs(monkeypatch)
    argv = ["compute", "--r1", "30", "--r2", "30", "--nbar1", "1", "--nbar2", "1", "--k2", "0.1"]
    assert main([*argv, "--method", "all"]) == 3
    assert "gap trace: no rungs" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["empty", "directory", "parent-is-a-file", "missing-directory"])
def test_snapshot_regolden_refuses_an_unwritable_file_before_any_rung(monkeypatch, capsys,
                                                                     tmp_path, where):
    from dstfid.cli import main
    from dstfid.golden import write_snapshots

    monkeypatch.chdir(tmp_path)
    (tmp_path / "a-file").write_text("kept\n")
    path = {"empty": "", "directory": str(tmp_path), "parent-is-a-file": "a-file/golden.txt",
            "missing-directory": "missing/x.txt"}[where]
    with pytest.raises(OSError) as write:
        write_snapshots(Path(path), [])
    _refuse_rungs(monkeypatch)
    assert main(["snapshot", "--regolden", f"--file={path}"]) == 4
    assert capsys.readouterr().err == f"i/o error: {write.value}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["a-file"]
    assert (tmp_path / "a-file").read_text() == "kept\n"


def test_check_writable_creates_and_truncates_nothing(tmp_path):
    from dstfid.golden import check_writable

    kept, new = tmp_path / "kept.txt", tmp_path / "new.txt"
    kept.write_text("kept\n")
    check_writable(kept)
    check_writable(new)
    with pytest.raises(FileNotFoundError):  # as `sweep --out` refuses a missing directory
        check_writable(tmp_path / "missing" / "x.txt")
    assert kept.read_text() == "kept\n" and sorted(p.name for p in tmp_path.iterdir()) == ["kept.txt"]


def test_oracle_squeeze_past_double_range_is_a_convergence_error(monkeypatch):
    # 10 sinh^2(400) is past double range, and in the joint squeeze frame
    # 0.1 e^{-s} is ~1e86: the start lies above any ceiling, a named
    # ConvergenceError rather than a bare OverflowError.
    _refuse_rungs(monkeypatch)
    with pytest.raises(ConvergenceError) as exc:
        fidelity_oracle(state(0.0, 400.0, nbar=1.0), state(0.1, 400.0, nbar=1.0))
    assert [(r.cutoff, r.gap) for r in exc.value.rungs if r.exact] == []


def test_frame_past_double_range_leaves_the_pair_as_given(monkeypatch):
    # The framed displacement 1e300 e^{-s} leaves double range, so the
    # frame's larger mean photon number, and the given pair's, is past it
    # too: a ConvergenceError, computing no rung.
    s1, s2 = state(1e300, 800.0, nbar=1.0), state(0.0, 800.0, nbar=1.0)
    assert fock.joint_squeeze_frame(s1, s2) == (s1, s2, 0.0)
    _refuse_rungs(monkeypatch)
    with pytest.raises(ConvergenceError) as exc:
        fidelity_oracle(s1, s2)
    assert [(r.cutoff, r.gap) for r in exc.value.rungs if r.exact] == []


def test_oracle_subnormal_beta_is_a_thermal_tail_error(monkeypatch):
    # nbar = 1/expm1(5e-324) is inf: no cutoff holds the tail, and the oracle
    # says so instead of overflowing in math.ceil.  StateParams refuses such a
    # beta itself, so the state is given it past that check.
    _refuse_rungs(monkeypatch)
    hot = state(0.0, 0.0, beta=1.0)
    object.__setattr__(hot, "beta", 5e-324)
    with pytest.raises(ValueError, match="thermal tail .* need at least inf"):
        fidelity_oracle(hot, state(0.1, 0.0, nbar=1.0))


def test_oracle_run_imports_no_scipy():
    # scipy backs only the dense matrix_exp reference; the CLI and an oracle
    # evaluation must not pay for importing it.
    code = (
        "import sys\n"
        "import dstfid.cli\n"
        "from dstfid import FidelityOptions, fidelity, state\n"
        "rep = fidelity(state(0.3, 0.2, nbar=0.5), state(0.1 + 0.2j, 0.5, nbar=1.0), FidelityOptions())\n"
        "assert abs(rep.value_oracle - 0.8509993417886631) <= 5e-8, rep.value_oracle\n"
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if m.startswith('scipy'))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_oracle_rejects_unreachable_tolerance():
    with pytest.raises(ValueError):
        fidelity_oracle(state(0.0, 0.0, nbar=0.5), state(0.1, 0.0, nbar=0.5), tol=1e-12)
    # no gap compares <= NaN, so the ladder would run to the ceiling
    with pytest.raises(ValueError, match="oracle tolerance must be >= 1e-10 and < 1, got nan"):
        fidelity_oracle(state(0.0, 0.0, nbar=0.5), state(0.1, 0.0, nbar=0.5), tol=math.nan)


def test_oracle_refuses_an_infinite_tolerance():
    # every gap is <= inf: the ladder would stop at its second rung, unconverged
    with pytest.raises(ValueError, match="oracle tolerance must be >= 1e-10 and < 1, got inf"):
        fidelity_oracle(state(0.0, 0.0, nbar=0.5), state(0.1, 0.0, nbar=0.5), tol=math.inf)


@pytest.mark.parametrize("ceiling", [1, 0, -5])
def test_oracle_refuses_ceiling_below_two(ceiling):
    # a usage error, not a ladder that "did not stabilize by cutoff 1"
    with pytest.raises(ValueError, match="ceiling must be >= 2"):
        fidelity_oracle(state(0.0, 0.0, beta=40.0), state(0.3, 0.0, beta=40.0), ceiling=ceiling)

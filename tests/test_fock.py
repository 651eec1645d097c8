"""Truncated Fock-space oracle: operators, states, Uhlmann fidelity."""

import cmath
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dstfid.fock as fock
from dstfid.algebra import state
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


@pytest.mark.parametrize("cutoff", [2, 3, 41, 256])
@pytest.mark.parametrize("k", [0.7 + 0.3j, -1.5, -0.4j, 0.0, 3 - 2j])
def test_displacement_equals_exp_of_truncated_generator(k, cutoff):
    a = annihilation(cutoff)
    want = matrix_exp(k * a.conj().T - np.conj(k) * a)
    assert np.max(np.abs(displacement_op(k, cutoff) - want)) <= 1e-12


@pytest.mark.parametrize("cutoff", [2, 3, 41, 256])
@pytest.mark.parametrize("r", [0.8, -0.8, -0.05, 0.0, 2.0])
def test_squeeze_equals_exp_of_truncated_generator(r, cutoff):
    a = annihilation(cutoff)
    adag = a.conj().T
    want = matrix_exp(0.5 * r * (a @ a - adag @ adag))
    assert np.max(np.abs(squeeze_op(r, cutoff) - want)) <= 1e-12


@pytest.mark.parametrize(
    "op", [lambda n: displacement_op(1.3, n), lambda n: displacement_op(-0.6, n), lambda n: squeeze_op(-0.9, n)]
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


def test_oracle_fidelity_monotone_under_cutoff_growth():
    s1 = state(0.3, 0.2, nbar=0.5)
    s2 = state(0.1 + 0.2j, 0.5, nbar=1.0)
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
    cutoff = 80
    dense = uhlmann_fidelity(dst_state(s1, cutoff), dst_state(s2, cutoff))
    assert abs(fock._svd_fidelity(fock._rung_matrix(s1, s2, cutoff)) - dense) <= 1e-8


# The sqrt p trim keeps every level of this pair at N = 81, and M's measured
# row and column norms still shrink it to 73 x 74.
SHRUNK_BY_MEASURED_NORMS = (state(0.0, 0.3, nbar=1.5), state(0.8, 0.2, nbar=1.5), 81)


@pytest.mark.parametrize(
    "s1,s2,cutoff,dropped",
    [
        (state(0.4, 0.3, beta=4.0), state(-0.7j, -0.2, nbar=2.0), 80, (True, False)),
        (state(0.0, 0.5, nbar=2.0), state(0.6, 0.1, beta=3.0), 80, (False, True)),
        (state(0.3 - 0.2j, -0.4, beta=3.0), state(0.5j, 0.2, beta=5.0), 60, (True, True)),
        (state(-0.2j, 0.3, nbar=2.0), state(-0.5, -0.1, nbar=2.0), 80, (False, False)),
        # Odd cutoffs, with an odd number of kept levels in each state.
        (state(0.3 - 0.2j, 0.4, beta=1.5), state(-0.5j, -0.3, nbar=1.0), 61, (True, False)),
        (state(-0.4 + 0.1j, -0.3, nbar=1.5), state(0.6 + 0.2j, 0.2, beta=5.0), 79, (False, True)),
        (*SHRUNK_BY_MEASURED_NORMS, (False, False)),
    ],
)
def test_rung_matches_the_full_size_rung(s1, s2, cutoff, dropped):
    # The rung drops the levels of each state whose sqrt-weight tail is at
    # most 2.5e-14, then the rows and the columns of M whose measured norms
    # use up the rest of that budget; the full-size rung keeps every level
    # and multiplies the full operators.
    kept = [fock._kept_levels(np.sqrt(thermal_weights(s.beta, cutoff))) for s in (s1, s2)]
    assert tuple(n < cutoff for n in kept) == dropped
    if cutoff % 2:
        assert all(n % 2 for n in kept)
    assert all(m <= n for m, n in zip(fock._rung_matrix(s1, s2, cutoff).shape, kept))
    assert abs(fock._svd_fidelity(fock._rung_matrix(s1, s2, cutoff)) - full_size_rung(s1, s2, cutoff)) <= 1e-14


def test_measured_norms_shrink_a_rung_the_sqrt_p_trim_keeps_whole():
    assert fock._rung_matrix(*SHRUNK_BY_MEASURED_NORMS).shape == (73, 74)


def test_rung_value_does_not_depend_on_the_chain_cache():
    s1, s2, cutoff = state(0.3 - 0.2j, -0.4, beta=3.0), state(0.5j, 0.2, nbar=2.0), 70
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


@pytest.mark.parametrize("cutoff", [72, 73])
def test_stacked_chain_exp_is_each_t_bit_for_bit(cutoff):
    # one call builds both states' factors: each must round exactly as a
    # call for its t alone does, on the displacement and both squeeze chains
    for chain in fock._generator_chains(cutoff):
        for a, b in ((0.15, -0.4), (-1.3, 0.65)):
            assert np.array_equal(fock._chain_exp(chain, (a, b)),
                                  [fock._chain_exp(chain, a), fock._chain_exp(chain, b)])


# The oracle's fixed cutoff sequence: 2, then int(round(1.5 N)) of each.
CUTOFF_SEQUENCE = (2, 3, 4, 6, 9, 14, 21, 32, 48, 72, 108, 162, 243, 364, 546, 819, 1228)


def _record_rungs(monkeypatch) -> list[int]:
    rungs: list[int] = []
    rung_matrix = fock._rung_matrix

    def recorded(s1, s2, cutoff):
        rungs.append(cutoff)
        return rung_matrix(s1, s2, cutoff)

    monkeypatch.setattr(fock, "_rung_matrix", recorded)
    return rungs


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
        # displaced, k1 != 0, to an odd ceiling
        (state(-1.5 + 1.0j, 0.3, nbar=0.2), state(1.5 - 0.5j, -0.2, nbar=0.4), 151),
        # the first member (32) reaches the ceiling: [start, ceiling]
        (state(0.0, 0.0, nbar=0.05), state(0.1, 0.0, nbar=0.05), 32),
    ],
    ids=["readme", "squeezed", "hot", "displaced", "edge"],
)


def _stream_pairs(seed: int, count: int):
    """Seeded k1 = 0 pairs from the stream benchmark's box: |k2| <= 1.5,
    |r| <= 0.8, 0.05 <= nbar <= 2."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        r1, r2 = rng.uniform(-0.8, 0.8, size=2)
        nbar1, nbar2 = rng.uniform(0.05, 2.0, size=2)
        k2 = cmath.rect(1.5 * math.sqrt(rng.uniform()), rng.uniform(0.0, 2.0 * math.pi))
        yield state(0.0, r1, nbar=nbar1), state(k2, r2, nbar=nbar2)


@SEQUENCE_PAIRS
def test_oracle_rungs_are_sequence_members(monkeypatch, s1, s2, ceiling):
    rungs = _record_rungs(monkeypatch)
    start = fock._starting_cutoff(s1, s2)
    res = fidelity_oracle(s1, s2, ceiling=ceiling)
    assert rungs[0] >= start
    assert res.cutoff_used == rungs[-1]
    if min(n for n in CUTOFF_SEQUENCE if n >= start) >= ceiling:
        assert rungs == [start, ceiling]
    else:
        assert set(rungs) <= {*CUTOFF_SEQUENCE, ceiling}, rungs


def test_stream_pairs_miss_the_chain_cache_once_per_cutoff(monkeypatch):
    # A work count, not a timing: 32 seeded pairs from the stream
    # benchmark's box climb the fixed sequence, a handful of cutoffs, and
    # compute each one's generator SVDs once.  A start-dependent ladder
    # spreads such pairs over ~50 cutoffs, more than the cache holds.
    rungs = _record_rungs(monkeypatch)
    fock._generator_chains.cache_clear()
    for s1, s2 in _stream_pairs(2020, 32):
        fidelity_oracle(s1, s2)
    assert set(rungs) <= set(CUTOFF_SEQUENCE)
    assert fock._generator_chains.cache_info().misses <= len(set(rungs))


def _exact_ladder(s1, s2, tol=1e-8, ceiling=fock.DEFAULT_CUTOFF_CEILING):
    """fidelity_oracle's climb on the pair as given, with no joint squeeze
    frame and every gap the exact difference of two rung values: (cutoff,
    fidelity, gap) of the converged rung, or None where the ladder reaches
    the ceiling."""
    prev = None
    for cutoff in cutoff_ladder(fock._starting_cutoff(s1, s2), ceiling):
        fid = fock._svd_fidelity(fock._rung_matrix(s1, s2, cutoff))
        if prev is not None and abs(fid - prev) <= tol:
            return cutoff, fid, abs(fid - prev)
        prev = fid
    return None


def _assert_bounded_ladder_stops_with_the_exact_one(s1, s2, ceiling=fock.DEFAULT_CUTOFF_CEILING):
    res = fidelity_oracle(s1, s2, ceiling=ceiling)
    cutoff, fid, gap = _exact_ladder(*fock.joint_squeeze_frame(s1, s2)[:2], ceiling=ceiling)
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

    rungs = _record_rungs(monkeypatch)
    monkeypatch.setattr(np.linalg, "svd", counted)
    res = fidelity_oracle(s1, s2)
    assert rungs == [48, 72] and res.cutoff_used == 72
    assert len(calls) == 1, calls


def test_stream_pairs_build_no_more_rungs_or_svds_than_recorded(monkeypatch):
    # A work count, not a timing: with the joint squeeze frame and the
    # nuclear-norm gap bound, 32 seeded stream pairs (chain cache warm) take
    # 72 rungs and 47 rung SVDs, at one and at two BLAS threads alike.  A
    # change that climbs more rungs or certifies fewer gaps by the bound
    # fails here.
    pairs = list(_stream_pairs(35, 32))
    for s1, s2 in pairs:
        fidelity_oracle(s1, s2)
    rungs, svds, svd_fidelity = _record_rungs(monkeypatch), [], fock._svd_fidelity

    def counted(m):
        svds.append(m.shape)
        return svd_fidelity(m)

    monkeypatch.setattr(fock, "_svd_fidelity", counted)
    for s1, s2 in pairs:
        fidelity_oracle(s1, s2)
    assert len(rungs) <= 72, len(rungs)
    assert len(svds) <= 47, len(svds)


def test_framed_oracle_agrees_with_the_unframed_ladder():
    # Both states displaced, complex k, so the frame maps both displacements.
    rng = np.random.default_rng(13)
    tol = 1e-9
    for _ in range(12):
        r1, r2 = rng.uniform(-1.5, 1.5, 2)
        n1, n2 = rng.uniform(0.05, 2.0, 2)
        k1, k2 = (complex(*rng.uniform(-1.0, 1.0, 2)) for _ in range(2))
        s1, s2 = state(k1, r1, nbar=n1), state(k2, r2, nbar=n2)
        framed = fidelity_oracle(s1, s2, tol=tol)
        assert framed.frame_shift != 0.0
        unframed = _exact_ladder(s1, s2, tol)
        assert unframed is not None and abs(framed.fidelity - unframed[1]) <= tol, (s1, s2)


def test_frame_is_the_pair_as_given_where_no_shift_helps():
    # Equal unsqueezed states at the same temperature, displaced along both
    # quadratures alike: the larger mean photon number is least at s = 0.
    s = state(0.5 + 0.5j, 0.0, nbar=1.0)
    assert fock.joint_squeeze_frame(s, s) == (s, s, 0.0)
    assert fidelity_oracle(s, s).frame_shift == 0.0


def test_cli_compute_converges_on_a_shared_squeeze_with_a_small_gap(capsys):
    # Climbed in the frame the pair is given in, this pair starts past the
    # ceiling ("gap trace: no rungs", exit 3).
    from dstfid.cli import main

    argv = ["compute", "--r1", "3", "--r2", "3.2", "--k2", "0.01", "--nbar1", "0.5",
            "--nbar2", "0.5", "--method", "all", "--format", "record"]
    assert main(argv) == 0
    record = json.loads(capsys.readouterr().out)
    assert abs(record["value_oracle"] - record["value_matrix_pipeline"]) <= 1e-9
    assert record["oracle"]["frame_shift"] < -3.0


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


def test_oracle_golden_point():
    res = fidelity_oracle(state(0.3, 0.2, nbar=0.5), state(0.1 + 0.2j, 0.5, nbar=1.0))
    assert math.isclose(res.fidelity, 0.8509993417886631, rel_tol=0, abs_tol=5e-8)


def test_oracle_ceiling_exhaustion_raises_with_trace():
    with pytest.raises(ConvergenceError) as exc:
        fidelity_oracle(state(0.0, 0.0, nbar=0.5), state(3.0, 0.0, nbar=0.5), ceiling=40)
    assert exc.value.gaps == []  # clamped straight to the ceiling, no rungs
    assert str(exc.value).endswith("(gap trace: no rungs); the ladder starts at cutoff 58, "
                                   "so the ceiling must exceed it")


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
    assert exc.value.gaps == []


def test_cli_compute_past_the_ceiling_exits_before_any_rung(monkeypatch, capsys):
    from dstfid.cli import main

    _refuse_rungs(monkeypatch)
    argv = ["compute", "--r1", "30", "--r2", "30", "--nbar1", "1", "--nbar2", "1", "--k2", "0.1"]
    assert main([*argv, "--method", "all"]) == 3
    assert "gap trace: no rungs" in capsys.readouterr().err


def test_oracle_squeeze_past_double_range_is_a_convergence_error(monkeypatch):
    # 10 sinh^2(400) is past double range, and in the joint squeeze frame
    # 0.1 e^{-s} is ~1e86: the start lies above any ceiling, a named
    # ConvergenceError rather than a bare OverflowError.
    _refuse_rungs(monkeypatch)
    with pytest.raises(ConvergenceError) as exc:
        fidelity_oracle(state(0.0, 400.0, nbar=1.0), state(0.1, 400.0, nbar=1.0))
    assert exc.value.gaps == []


def test_frame_past_double_range_leaves_the_pair_as_given(monkeypatch):
    # The framed displacement 1e300 e^{-s} leaves double range, so the
    # frame's larger mean photon number, and the given pair's, is past it
    # too: a ConvergenceError, computing no rung.
    s1, s2 = state(1e300, 800.0, nbar=1.0), state(0.0, 800.0, nbar=1.0)
    assert fock.joint_squeeze_frame(s1, s2) == (s1, s2, 0.0)
    _refuse_rungs(monkeypatch)
    with pytest.raises(ConvergenceError) as exc:
        fidelity_oracle(s1, s2)
    assert exc.value.gaps == []


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
    with pytest.raises(ValueError, match="oracle tolerance must be >= 1e-10"):
        fidelity_oracle(state(0.0, 0.0, nbar=0.5), state(0.1, 0.0, nbar=0.5), tol=math.nan)


def test_oracle_refuses_an_infinite_tolerance():
    # every gap is <= inf: the ladder would stop at its second rung, unconverged
    with pytest.raises(ValueError, match="oracle tolerance must be finite, got inf"):
        fidelity_oracle(state(0.0, 0.0, nbar=0.5), state(0.1, 0.0, nbar=0.5), tol=math.inf)


@pytest.mark.parametrize("ceiling", [1, 0, -5])
def test_oracle_refuses_ceiling_below_two(ceiling):
    # a usage error, not a ladder that "did not stabilize by cutoff 1"
    with pytest.raises(ValueError, match="ceiling must be >= 2"):
        fidelity_oracle(state(0.0, 0.0, beta=40.0), state(0.3, 0.0, beta=40.0), ceiling=ceiling)

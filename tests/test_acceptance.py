"""Acceptance gate: ten criteria, one test (= one pass/fail line) each.

A3/A4/A9 share one oracle-validated evaluation of the standard 81-pair grid;
A5/A10 share one full reconciliation run.  Tolerances are pinned inline and
are not derived from the code under test.
"""

import math
import time

import numpy as np
import pytest

from algebra_reference import check_symplectic
from dstfid.algebra import StateParams, squeeze_matrix, state, thermal_matrix
from bch_reference import LinExpOp, bch_merge, commutator_scalar
from dstfid.fock import fidelity_oracle, matrix_exp
from fock_reference import annihilation
from dstfid.reconcile import (
    DENOMINATOR,
    DIFFERENCE_CONVENTION,
    MATCHING_DISPLAY,
    OVERLAP_ARGUMENT,
    OVERLAP_PREFACTOR,
    QUADRATIC_FORM,
    RATIO_FORM,
    pair_grid,
    run_verification,
    self_grid,
    undisplaced_pair_grid,
)
from dstfid.reduction import FidelityOptions, fidelity

GRID_OPTS = FidelityOptions(tol=1e-8, oracle=True, oracle_tol=1e-8, oracle_ceiling=512)


@pytest.fixture(scope="module")
def a3_grid():
    """([(s1, s2, fidelity report, oracle fidelity of the undisplaced pair)]
    over the 81-pair grid, seconds taken)."""
    t0 = time.monotonic()
    results = []
    for s1, s2 in pair_grid():
        undisplaced = fidelity_oracle(StateParams(0.0, s1.r, s1.beta),
                                      StateParams(0.0, s2.r, s2.beta), tol=1e-8, ceiling=512)
        results.append((s1, s2, fidelity(s1, s2, GRID_OPTS), undisplaced.fidelity))
    return results, time.monotonic() - t0


@pytest.fixture(scope="module")
def full_report():
    return run_verification(preset="full", tol=1e-8, ceiling=512)


def test_a1_self_fidelity_grid_pipeline_and_oracle():
    t0 = time.monotonic()
    for s in self_grid():
        rep = fidelity(s, s, GRID_OPTS)
        assert abs(rep.value_matrix_pipeline - 1.0) <= 1e-9
        assert abs(rep.value_oracle - 1.0) <= 1e-8
    assert time.monotonic() - t0 < 30.0


def test_a2_zero_mismatch_ratio_exactly_one():
    opts = FidelityOptions(oracle=False)
    for s1, s2 in undisplaced_pair_grid():
        rep = fidelity(s1, s2, opts)
        assert rep.pipeline.log_ratio == 0.0
        assert rep.pipeline.ratio == 1.0  # exact, not approximate


def test_a3_pipeline_matches_oracle_on_standard_grid(a3_grid):
    results, elapsed = a3_grid
    assert len(results) == 81
    worst = max(abs(rep.value_matrix_pipeline - rep.value_oracle) for _, _, rep, _ in results)
    assert worst <= 1e-6
    assert elapsed < 600.0


def test_a4_decomposition_identity_against_oracle(a3_grid):
    results, _ = a3_grid
    # |oracle F(displaced)/F(undisplaced) - pipeline ratio|
    worst = max(abs(rep.value_oracle / f0 - rep.pipeline.ratio) for _, _, rep, f0 in results)
    assert worst <= 1e-6


def test_a5_mismatch_convention_adjudicated_by_oracle(full_report):
    s = state(0.3j, 0.3, nbar=0.5)
    oracle = fidelity_oracle(s, s, tol=1e-8, ceiling=512).fidelity

    no_oracle = FidelityOptions(oracle=False)
    # mismatch k2 - k1 = 0; the printed k2 - conj(k1) = 0.6i is the mismatch
    # of the pair with k1 conjugated
    f_difference = fidelity(s, s, no_oracle).pipeline.ratio  # base factor is 1
    f_printed = fidelity(StateParams(s.k.conjugate(), s.r, s.beta), s, no_oracle).pipeline.ratio

    assert abs(oracle - 1.0) <= 1e-8  # only k2 - k1 enters the physics
    assert abs(f_difference - oracle) <= 1e-6
    assert abs(f_printed - oracle) > 1e-3  # the conjugated convention fails

    entry = {e.formula: e for e in full_report.entries}[DIFFERENCE_CONVENTION]
    assert entry.verdict == "typo-confirmed"
    assert entry.max_abs_deviation > 1e-3


def test_a6_coherent_limit_all_methods():
    opts = FidelityOptions(tol=1e-8, oracle=True, oracle_tol=1e-8, oracle_ceiling=512)
    for k2, pinned in ((0.5, 0.7788008), (1.0, 0.3678794)):
        expected = math.exp(-abs(k2) ** 2)
        assert math.isclose(expected, pinned, rel_tol=0, abs_tol=5e-8)
        rep = fidelity(
            state(0.0, 0.0, nbar=1e-6), state(k2, 0.0, nbar=1e-6), opts
        )
        assert abs(rep.value_matrix_pipeline - expected) <= 1e-4
        assert abs(rep.value_oracle - expected) <= 1e-4
        # printed method: its ratio exponent is convention-blind at r = 0 and
        # lands on the same value once paired with the exact base factor
        printed_on_exact_base = rep.printed.ratio * rep.base.base
        assert abs(printed_on_exact_base - expected) <= 1e-4


@pytest.mark.xfail(
    strict=True,
    reason="the fully verbatim printed value (printed ratio times printed "
    "base display) misses the coherent limit by a factor ~19: the base "
    "display is typo-confirmed broken (see the reconciliation report)",
)
def test_a6_coherent_limit_verbatim_printed_companion():
    rep = fidelity(
        state(0.0, 0.0, nbar=1e-6),
        state(0.5, 0.0, nbar=1e-6),
        FidelityOptions(oracle=False),
    )
    assert abs(rep.value_printed - math.exp(-0.25)) <= 1e-4


def test_a7_displacement_covariance():
    d = 0.7 - 0.2j
    points = [
        ((0.0 + 0.0j, 0.2, 0.5), (0.5 + 0.0j, 0.5, 1.0)),
        ((0.0 + 0.0j, 0.0, 0.2), (1.0 + 0.0j, 0.0, 2.0)),
        ((0.25 + 0.0j, 0.3, 1.0), (0.75 + 0.0j, 0.3, 1.0)),
        ((0.5j, -0.2, 0.5), (0.5 + 0.5j, 0.4, 0.3)),
        ((0.5 + 0.0j, 0.4, 2.0), (-0.3 + 0.2j, 0.1, 0.2)),
    ]
    opts = FidelityOptions(oracle=False)
    for (k1, r1, n1), (k2, r2, n2) in points:
        base = fidelity(state(k1, r1, nbar=n1), state(k2, r2, nbar=n2), opts)
        moved = fidelity(
            state(k1 + d, r1, nbar=n1), state(k2 + d, r2, nbar=n2), opts
        )
        # closed form consumes only the mismatch, so the shift changes nothing
        assert moved.value_matrix_pipeline - base.value_matrix_pipeline == 0.0
        assert moved.value_printed - base.value_printed == 0.0

        f0 = fidelity_oracle(state(k1, r1, nbar=n1), state(k2, r2, nbar=n2)).fidelity
        f1 = fidelity_oracle(
            state(k1 + d, r1, nbar=n1), state(k2 + d, r2, nbar=n2)
        ).fidelity
        assert abs(f1 - f0) <= 1e-8


def test_a8_merge_reconstruction_and_antisymmetry():
    rng = np.random.default_rng(12345)

    def draw_unit_disk(shape):
        mag = np.sqrt(rng.uniform(0.0, 1.0, size=shape))
        ang = rng.uniform(0.0, 2.0 * math.pi, size=shape)
        return mag * np.exp(1j * ang)

    cutoff = 80
    a = annihilation(cutoff)
    adag = a.conj().T
    for _ in range(20):
        n1, n2 = draw_unit_disk((2, 2)), draw_unit_disk((2, 2))
        v1, v2 = draw_unit_disk(2), draw_unit_disk(2)

        c12 = commutator_scalar(n1, v1, n2, v2)
        c21 = commutator_scalar(n2, v2, n1, v1)
        assert c12 == -c21  # exact antisymmetry, bit for bit

        op1, op2 = LinExpOp(0.0, n1, v1), LinExpOp(0.0, n2, v2)
        merged = bch_merge(op1, op2)
        w1, w2, wm = op1.exponent_vec, op2.exponent_vec, merged.combined_vec
        lhs = matrix_exp(w1[0] * adag + w1[1] * a) @ matrix_exp(w2[0] * adag + w2[1] * a)
        rhs = np.exp(merged.scalar_log) * matrix_exp(wm[0] * adag + wm[1] * a)
        # interior block: away from the truncation edge both sides are exact
        assert np.max(np.abs(lhs[:40, :12] - rhs[:40, :12])) <= 1e-8


def test_a9_symplectic_factors_and_annihilation_residual(a3_grid):
    results, _ = a3_grid
    for s1, s2, rep, _ in results:
        m1 = squeeze_matrix(-s1.r)
        m2inv = squeeze_matrix(s2.r)
        factors = [
            m1,
            m2inv,
            thermal_matrix(s1.beta, -0.5),
            thermal_matrix(s1.beta, 0.5),
            thermal_matrix(s2.beta, -0.5),
            thermal_matrix(s2.beta, 0.5),
        ]
        for f in factors:
            assert check_symplectic(f, tol=1e-12)
        prod = (
            thermal_matrix(s2.beta, -0.5)
            @ m2inv
            @ m1
            @ thermal_matrix(s1.beta, -0.5)
        )
        assert check_symplectic(prod, tol=1e-12)

        residual = rep.pipeline.annihilation_residual
        assert residual is not None and residual <= 1e-10


def test_a10_reconciliation_report_complete_and_consistent(full_report):
    report = full_report
    formulas = (DIFFERENCE_CONVENTION, QUADRATIC_FORM, MATCHING_DISPLAY, DENOMINATOR,
                RATIO_FORM, OVERLAP_ARGUMENT, OVERLAP_PREFACTOR)
    entries = {e.formula: e for e in report.entries}
    assert len(report.entries) == len(entries) == 7
    assert set(entries) == set(formulas)
    for e in report.entries:
        assert e.verdict in ("consistent", "typo-confirmed", "inconclusive")
        assert e.note  # every verdict carries its analysis

    # the denominator is the one printed piece that checks out exactly
    assert entries[DENOMINATOR].verdict == "consistent"

    # pass rule: every typo-confirmed print must be accompanied by a matrix
    # pipeline that satisfies the oracle-equivalence and decomposition checks
    confirmed = [e for e in report.entries if e.verdict == "typo-confirmed"]
    assert confirmed, "the reconciliation grid is expected to expose the typos"
    by_name = {c.name: c for c in report.checks}
    assert by_name["pipeline-vs-oracle"].passed
    assert by_name["decomposition-identity"].passed
    assert report.passed  # cmd_verify exit status 0

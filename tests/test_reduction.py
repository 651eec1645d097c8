"""Matrix-reduction pipeline, printed comparison path, and base factor."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dstfid.algebra import DegenerateInputError, state
from dstfid.fock import thermal_state
from dstfid.golden import default_golden_path, read_snapshots
from dstfid.reduction import (
    FidelityOptions,
    base_factor,
    delta1,
    delta2,
    fidelity,
    matching_matrix,
    printed_matching_display,
    ratio_printed,
    solve_l,
)
from dstfid.reduction import _delta_denom, _pipeline_trace

S1 = state(0.0, 0.2, nbar=0.8)
S2 = state(0.0, 0.3, beta=1.0)

nbars = st.floats(min_value=0.05, max_value=3.0)
radii = st.floats(min_value=-1.0, max_value=1.0)
gs = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)
wide_radii = st.floats(min_value=-4.0, max_value=4.0)
# inverse temperatures from n-bar = 1e6 (beta ~ 1e-6) to near-pure, on both
# sides of the beta = 30 switch to log-scaled assembly
hot_to_warm = st.floats(min_value=1e-3, max_value=1e6).map(lambda n: math.log1p(1.0 / n))
cold = st.floats(min_value=25.0, max_value=700.0)
log_scaled = st.floats(min_value=30.0, max_value=700.0, exclude_min=True)
wide_betas = st.one_of(hot_to_warm, cold)


def gaussian_reference(r1, beta1, r2, beta2, g=0j):
    """(F0, F, log(F/F0)) at 50 digits from the quadrature covariance matrices
    V = coth(beta/2) diag(e^{-2r}, e^{2r}) (vacuum = identity) and the mean
    difference d = sqrt(2) (Re g, Im g):
    F = 2/(sqrt(det(V1+V2) + delta) - sqrt(delta)) exp(-d^T (V1+V2)^{-1} d),
    delta = (det V1 - 1)(det V2 - 1)."""
    with mp.workdps(50):
        r1, beta1, r2, beta2 = (mp.mpf(x) for x in (r1, beta1, r2, beta2))
        c1, c2 = mp.coth(beta1 / 2), mp.coth(beta2 / 2)
        sx = c1 * mp.exp(-2 * r1) + c2 * mp.exp(-2 * r2)
        sp = c1 * mp.exp(2 * r1) + c2 * mp.exp(2 * r2)
        delta = 1 / (mp.sinh(beta1 / 2) * mp.sinh(beta2 / 2)) ** 2
        f0 = 2 / (mp.sqrt(sx * sp + delta) - mp.sqrt(delta))
        expo = -2 * mp.mpf(g.real) ** 2 / sx - 2 * mp.mpf(g.imag) ** 2 / sp
        return float(f0), float(f0 * mp.exp(expo)), float(expo)


# --- delta1 -----------------------------------------------------------------


def test_delta1_frozen_example():
    # dual-path value, frozen once the matrix and scalar forms agreed
    val = delta1(S1, S2, 0.5)
    assert math.isclose(val, 0.585470754214681, rel_tol=0, abs_tol=1e-14)


def test_delta1_no_squeeze_closed_form():
    s2 = state(0.0, 0.0, beta=0.9)
    g = 0.4 - 0.3j
    expected = math.exp(-math.sinh(0.9) * abs(g) ** 2)
    assert math.isclose(delta1(S1, s2, g), expected, rel_tol=1e-13)


def test_delta1_equal_displacements_exact_one():
    assert delta1(S1, S2, 0.0) == 1.0
    assert delta2(S1, S2, 0.0) == 1.0


def test_delta_factors_past_sinh_overflow():
    # sinh(beta) overflows near beta = 710; the model accepts beta < 745
    cold = state(0.0, 0.2, beta=740.0)
    assert delta1(S1, cold, 0.0) == 1.0 and delta2(S1, cold, 0.0) == 1.0
    assert delta1(S1, cold, 0.1) == 0.0


@given(gs, radii, nbars)
def test_delta1_bounded_by_one(g, r2, n2):
    s2 = state(0.0, r2, nbar=n2)
    assert delta1(S1, s2, g) <= 1.0


# --- matching system ---------------------------------------------------------


def test_matching_matrix_same_state_is_diagonal():
    s = state(0.0, 0.4, beta=1.3)
    p = matching_matrix(s, s)
    twosh = 2.0 * math.sinh(1.3)
    assert np.allclose(p, np.diag([twosh, -twosh]), atol=1e-13)
    det = p[0, 0] * p[1, 1] - p[0, 1] * p[1, 0]
    assert math.isclose(det.real, -4.0 * math.sinh(1.3) ** 2, rel_tol=1e-12)


def test_matching_matrix_equal_squeezes_kills_off_diagonal():
    a = state(0.0, 0.5, nbar=0.4)
    b = state(0.0, 0.5, nbar=1.1)
    p = matching_matrix(a, b)
    assert abs(p[0, 1]) < 1e-14 and abs(p[1, 0]) < 1e-14


def test_matching_determinant_is_minus_two_denominators():
    a = state(0.0, 0.7, nbar=0.3)
    b = state(0.0, -0.2, nbar=1.8)
    p = matching_matrix(a, b)
    det = (p[0, 0] * p[1, 1] - p[0, 1] * p[1, 0]).real
    dd = _delta_denom(a.beta, b.beta, a.r, b.r)
    assert math.isclose(det, -2.0 * dd, rel_tol=1e-13)


@pytest.mark.parametrize("beta1,beta2", [(1e-6, 1e-6), (1e-6, 1e-3), (1e-3, 1e-3)])
@pytest.mark.parametrize("dr", [0.0, 0.3, -2.5])
def test_delta_denom_hot_states_keep_their_digits(beta1, beta2, dr):
    """ch b1 ch b2 - 1 cancels for hot states; the summed form must not."""
    with mp.workdps(50):
        b1, b2 = mp.mpf(beta1), mp.mpf(beta2)
        want = mp.cosh(b1) * mp.cosh(b2) + mp.sinh(b1) * mp.sinh(b2) * mp.cosh(2 * mp.mpf(dr)) - 1
    assert math.isclose(_delta_denom(beta1, beta2, dr, 0.0), float(want), rel_tol=1e-12)


def test_printed_display_is_scaled_inverse_of_system():
    """The printed block equals the system matrix divided by 2*Delta (and the
    system squares to 2*Delta times the identity, so it is also its inverse)."""
    a = state(0.0, 0.6, nbar=0.5)
    b = state(0.0, -0.1, nbar=2.0)
    p = matching_matrix(a, b)
    disp = printed_matching_display(a, b)
    dd = _delta_denom(a.beta, b.beta, a.r, b.r)
    assert np.allclose(2.0 * dd * disp, p, rtol=1e-12, atol=1e-12)
    assert np.allclose(p @ p, 2.0 * dd * np.eye(2), rtol=1e-12, atol=1e-10)


def test_solve_l_zero_mismatch_gives_zero():
    sol = solve_l(S1, S2, 0.0)
    assert np.array_equal(sol, np.zeros(2, dtype=complex))


def test_solve_l_satisfies_conjugate_pair_form():
    sol = solve_l(S1, S2, 0.3 - 0.8j)
    assert abs(sol[1] + sol[0].conjugate()) < 1e-12 * max(1.0, abs(sol[0]))


def test_solve_l_rejects_degenerate_system(monkeypatch):
    import dstfid.reduction as red

    monkeypatch.setattr(
        red, "matching_matrix", lambda s1, s2: np.zeros((2, 2), dtype=complex)
    )
    with pytest.raises(DegenerateInputError):
        red.solve_l(S1, S2, 0.1)


# --- ratio ------------------------------------------------------------------


def test_ratio_decomposes_as_delta_quotient():
    g = 0.4 + 0.1j
    tr = _pipeline_trace(S1, S2, g)
    assert math.isclose(tr.ratio, delta1(S1, S2, g) / delta2(S1, S2, g), rel_tol=1e-10)


def test_ratio_thermal_pair_closed_form():
    a = state(0.0, 0.0, beta=0.8)
    b = state(0.0, 0.0, beta=1.7)
    g = 0.6 - 0.2j
    tr = _pipeline_trace(a, b, g)
    num = math.sinh(0.8) * math.sinh(0.85) ** 2 + math.sinh(0.4) ** 2 * math.sinh(1.7)
    den = math.cosh(0.8) * math.cosh(1.7) + math.sinh(0.8) * math.sinh(1.7) - 1.0
    expected = -2.0 * abs(g) ** 2 * num / den
    assert math.isclose(tr.log_ratio, expected, rel_tol=1e-13)


def test_ratio_printed_matches_pipeline_without_squeeze():
    a = state(0.0, 0.0, beta=0.8)
    b = state(0.0, 0.0, beta=1.7)
    g = 0.6 - 0.2j
    assert math.isclose(
        ratio_printed(a, b, g), _pipeline_trace(a, b, g).ratio, rel_tol=1e-12
    )


def test_ratio_printed_deviates_on_squeezed_complex_mismatch():
    g = 1.0  # real, so Re(g^2) != 0 and the sign slip is visible
    dev = abs(ratio_printed(S1, S2, g) - _pipeline_trace(S1, S2, g).ratio)
    assert dev > 1e-3


def test_ratio_printed_equal_displacements():
    assert ratio_printed(S1, S2, 0.0) == 1.0


@given(gs, radii, radii, nbars, nbars)
def test_ratio_is_a_damping_factor(g, r1, r2, n1, n2):
    """delta1/delta2 lies in (0, 1]: equality only at zero mismatch."""
    a = state(0.0, r1, nbar=n1)
    b = state(0.0, r2, nbar=n2)
    tr = _pipeline_trace(a, b, g)
    assert 0.0 < tr.ratio <= 1.0
    if abs(g) > 1e-3:
        assert tr.ratio < 1.0


@given(gs, radii, radii, nbars, nbars)
def test_ratio_swap_symmetry(g, r1, r2, n1, n2):
    a = state(0.0, r1, nbar=n1)
    b = state(0.0, r2, nbar=n2)
    fwd = _pipeline_trace(a, b, g).log_ratio
    rev = _pipeline_trace(b, a, -g).log_ratio
    assert math.isclose(fwd, rev, rel_tol=1e-10, abs_tol=1e-13)


def test_annihilation_residual_reported_small():
    tr = _pipeline_trace(S1, S2, 0.7 - 0.4j)
    assert tr.annihilation_residual is not None
    assert tr.annihilation_residual <= 1e-10


# --- base factor ------------------------------------------------------------


def test_thermal_base_against_diagonal_series():
    """Two thermal states are codiagonal, so the fidelity is the squared sum
    of sqrt(p_n q_n) — computable straight from the populations."""
    b1, b2 = 0.9, 1.6
    n = 200
    p = np.real(np.diag(thermal_state(b1, n)))
    q = np.real(np.diag(thermal_state(b2, n)))
    series = float(np.sum(np.sqrt(p * q)) ** 2)
    base = base_factor(state(0.0, 0.0, beta=b1), state(0.0, 0.0, beta=b2)).base
    assert math.isclose(base, series, rel_tol=1e-12)


def test_base_factor_self_pair_is_exactly_one():
    s = state(0.4, 0.6, nbar=1.2)  # displacement ignored by the base
    trace = base_factor(s, s)
    assert trace.base == 1.0


def test_base_factor_symmetric():
    pairs = [
        (state(0.0, 0.5, nbar=1.0), state(0.0, 0.2, nbar=0.7)),
        (state(0.0, -1.5, nbar=1e5), state(0.0, 2.0, nbar=1e-3)),
        (state(0.0, 0.3, beta=32.0), state(0.0, -0.1, beta=300.0)),  # log-scaled
    ]
    for a, b in pairs:
        assert math.isclose(base_factor(a, b).base, base_factor(b, a).base, rel_tol=1e-14)


def test_base_factor_flags_broken_printed_display():
    a = state(0.0, 0.5, nbar=1.0)
    b = state(0.0, 0.2, nbar=0.7)
    trace = base_factor(a, b)
    assert trace.printed_domain_error is None
    assert trace.discrepancy > 0.01  # printed display far from the true value
    assert 0.0 < trace.base <= 1.0


@settings(max_examples=60)
@given(wide_radii, wide_betas, wide_radii, wide_betas)
def test_closed_form_base_matches_gaussian_reference(r1, b1, r2, b2):
    """Undisplaced pairs over the whole domain, no oracle: the exact base and
    the reported pipeline value against a 50-digit reference."""
    rep = fidelity(state(0.3j, r1, beta=b1), state(0.3j, r2, beta=b2),
                   FidelityOptions(oracle=False))
    want, _, _ = gaussian_reference(r1, b1, r2, b2)
    assert math.isclose(rep.base.base, want, rel_tol=1e-11)
    assert math.isclose(rep.value_matrix_pipeline, want, rel_tol=1e-11)


@settings(max_examples=40)
@given(log_scaled, wide_betas, wide_radii, wide_radii, gs, st.booleans())
def test_log_scaled_fidelity_matches_gaussian_reference(b_cold, b_other, r1, r2, g, swap):
    """Displaced pairs with a state beyond beta = 30 (log-scaled assembly)."""
    b1, b2 = (b_other, b_cold) if swap else (b_cold, b_other)
    rep = fidelity(state(0.0, r1, beta=b1), state(g, r2, beta=b2),
                   FidelityOptions(oracle=False))
    _, want, expo = gaussian_reference(r1, b1, r2, b2, g)
    assert rep.pipeline.log_scaled
    assert math.isclose(rep.pipeline.log_ratio, expo, rel_tol=1e-11, abs_tol=1e-11)
    assert math.isclose(rep.value_matrix_pipeline, want, rel_tol=1e-9, abs_tol=1e-300)


def test_closed_form_runs_no_fock_code(monkeypatch, capsys):
    import dstfid.cli as cli
    import dstfid.fock as fock
    import dstfid.reduction as red

    def refuse(*args, **kwargs):
        raise AssertionError("Fock-space code ran on the closed-form path")

    for module, name in ((red, "fidelity_oracle"), (fock, "fidelity_oracle"), (fock, "dst_state")):
        monkeypatch.setattr(module, name, refuse)
    rep = fidelity(state(0.2, 0.3, nbar=0.5), state(-0.1j, 0.1, nbar=1.0),
                   FidelityOptions(oracle=False))
    assert 0.0 < rep.value_matrix_pipeline < 1.0
    for method in ("closed-form", "pipeline", "printed"):
        argv = ["sweep", "--nbar1", "0.5", "--k2", "0.3", "--nbar2", "1.0",
                "--sweep", "r2=0:1:3", "--method", method]
        assert cli.main(argv) == 0
    assert capsys.readouterr().out.count("\n0,") == 3  # every sweep wrote row 0


@pytest.mark.parametrize("rec", read_snapshots(default_golden_path()), ids=range(5))
def test_closed_form_matches_golden_records(rec):
    rep = fidelity(rec.s1, rec.s2, FidelityOptions(oracle=False))
    assert abs(rep.value_matrix_pipeline - rec.fidelity) <= rec.tol


# --- assembled fidelity -----------------------------------------------------


def test_fidelity_report_composes_ratio_and_base():
    rep = fidelity(state(0.2, 0.3, nbar=0.5), state(-0.1j, 0.1, nbar=1.0),
                   FidelityOptions(oracle=False))
    assert math.isclose(
        rep.value_matrix_pipeline,
        rep.pipeline.ratio * rep.base.base,
        rel_tol=1e-12,
    )
    assert rep.value_oracle is None and rep.oracle is None


def test_fidelity_swap_invariance():
    a = state(0.2 + 0.1j, 0.4, nbar=0.6)
    b = state(-0.3j, -0.2, nbar=1.4)
    opts = FidelityOptions(oracle=False)
    assert math.isclose(
        fidelity(a, b, opts).value_matrix_pipeline,
        fidelity(b, a, opts).value_matrix_pipeline,
        rel_tol=1e-10,
    )


def test_fidelity_monotone_decay_along_mismatch_ray():
    opts = FidelityOptions(oracle=False)
    values = []
    for t in np.linspace(0.0, 4.0, 9):
        rep = fidelity(state(0.0, 0.3, nbar=0.5), state(t, 0.5, nbar=1.0), opts)
        values.append(rep.value_matrix_pipeline)
    assert all(values[i + 1] < values[i] for i in range(len(values) - 1))
    assert values[-1] > 0.0


@settings(max_examples=40)
@given(
    st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
    st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
    st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
)
def test_fidelity_shift_covariance(k1, k2, d):
    """Displacing both states by the same amount leaves the fidelity fixed:
    only the mismatch k2 - k1 enters."""
    opts = FidelityOptions(oracle=False)
    before = fidelity(state(k1, 0.3, nbar=0.5), state(k2, -0.2, nbar=1.0), opts)
    after = fidelity(state(k1 + d, 0.3, nbar=0.5), state(k2 + d, -0.2, nbar=1.0), opts)
    assert math.isclose(
        before.value_matrix_pipeline,
        after.value_matrix_pipeline,
        rel_tol=1e-9,
        abs_tol=1e-12,
    )


def test_fidelity_log_scaled_path_agrees_with_oracle():
    # beta > 30 forces the log-scaled scalar assembly; the states are nearly
    # pure there, so the oracle is cheap and sharp
    a = state(0.0, 0.3, beta=32.0)
    b = state(0.4, 0.1, beta=35.0)
    rep = fidelity(a, b, FidelityOptions())
    assert rep.pipeline.log_scaled
    assert any(f.name == "log-scaled-path" for f in rep.discrepancy_flags)
    assert abs(rep.value_matrix_pipeline - rep.value_oracle) < 1e-6


def test_fidelity_extreme_beta_underflow_is_flagged_not_crashed():
    a = state(0.0, 0.0, beta=600.0)
    b = state(1.0, 0.0, beta=600.0)
    rep = fidelity(a, b, FidelityOptions(oracle=False))
    names = [f.name for f in rep.discrepancy_flags]
    assert "delta1-outside-float-range" in names
    assert "delta2-outside-float-range" in names
    assert 0.0 < rep.value_matrix_pipeline < 1.0
    assert math.isfinite(rep.pipeline.log_ratio)


def test_fidelity_flags_printed_base_everywhere():
    rep = fidelity(state(0.0, 0.0, nbar=0.5), state(0.1, 0.0, nbar=0.5),
                   FidelityOptions(oracle=False))
    assert any(f.name == "printed-base-factor" for f in rep.discrepancy_flags)


@pytest.mark.xfail(
    strict=True,
    reason="the printed closed form, read verbatim, cannot reproduce the "
    "self-pair identity: its base display is not 1 at equal parameters",
)
def test_printed_path_verbatim_self_pair_identity():
    s = state(0.3, 0.4, nbar=0.8)
    rep = fidelity(s, s, FidelityOptions(oracle=False))
    assert math.isclose(rep.value_printed, 1.0, rel_tol=0, abs_tol=1e-6)

"""Closed-form fidelity pipeline for displaced squeezed thermal states.

Two closed-form paths live here:

* the **matrix pipeline** (authoritative): every factor is built from the
  2x2 conjugation matrices and the final exponents come out of explicit
  matrix products, with the structural identities asserted along the way;
* the **printed formulas** (comparison path): a verbatim transcription of
  the published closed-form displays, kept so their deviations can be
  measured and flagged rather than silently corrected.

The full fidelity factorizes as F = (delta1/delta2) * base, where the base is
the fidelity of the corresponding *undisplaced* pair.  The pipeline computes
delta1/delta2 exactly and the base from the exact single-mode Gaussian
fidelity written in the matching denominator (Twamley 1996); the printed
base display fails its own self-consistency checks (see the reconciliation
report), so it is evaluated and flagged but never adopted.  No Fock-space
work happens here unless the oracle is requested.

Convention note: the conjugation matrix that matches the operator definitions
(S(r) = exp((r/2)(a^2 - a^dag^2)), verified against the Fock oracle) is
squeeze_matrix(-r); the printed displays consistently use the opposite sign,
which the comparison path reproduces verbatim.

Every closed-form scalar is assembled from logarithms (log_sinh, log_cosh, a
signed log-sum-exp) at every beta and only exponentiated at the report
boundary, so hot states keep their digits and near-pure states never overflow.
Beyond beta = 30 the matrix route (thermal factors exp(+-beta/2)) and its
cross-checks are skipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import (
    SIGMA,
    DegenerateInputError,
    Mat2C,
    PairVec,
    StateParams,
    log_cosh,
    log_sinh,
    pair_vec,
    squeeze_matrix,
    thermal_matrix,
)
from .bch import displacement_compose
from .fock import DEFAULT_CUTOFF_CEILING, OracleResult, fidelity_oracle

__all__ = [
    "DiscrepancyFlag",
    "ReductionTrace",
    "BaseFactorTrace",
    "FidelityOptions",
    "FidelityReport",
    "delta1",
    "matching_matrix",
    "solve_l",
    "delta2",
    "ratio_printed",
    "base_factor",
    "fidelity",
    "LOG_SCALE_BETA",
    "PipelineCheckError",
    "SqueezeGapError",
]

# Above this inverse temperature the pipeline skips the matrix route and its
# cross-checks: the thermal factors exp(+-beta/2) leave the products without
# digits to check.
LOG_SCALE_BETA = 30.0

# Determinant floor for the 2x2 matching solve.
_DET_FLOOR = 1e-14

# Internal consistency tolerance for dual-path (matrix vs scalar) evaluation.
_DUAL_TOL = 1e-10

_EXP_MAX = 709.0  # math.exp overflows just above this


class SqueezeGapError(ValueError):
    """The squeeze factors differ by more than double precision can carry."""


class PipelineCheckError(RuntimeError):
    """A matrix-route check (imaginary part, dual path, solve residual,
    conjugate-pair form, annihilation residual) left its tolerance."""


@dataclass(frozen=True)
class DiscrepancyFlag:
    """A named mismatch with its magnitude."""

    name: str
    magnitude: float


@dataclass(frozen=True, eq=False)
class ReductionTrace:
    """Everything one closed-form evaluation produced.

    ``method`` is "matrix-pipeline" or "printed-formula".  The log fields are
    always finite-informative even when the exponentiated values leave double
    range; ``annihilation_residual`` is the inline check that the quadratic
    multiplier term vanished (None on the log-scaled path, which never forms
    the matrices).
    """

    delta1: float
    delta2: float
    ratio: float
    l_vec: PairVec
    P: Mat2C
    DeltaDenom: float
    method: str
    log_delta1: float = 0.0
    log_delta2: float = 0.0
    log_ratio: float = 0.0
    annihilation_residual: float | None = None
    log_scaled: bool = False


@dataclass(frozen=True)
class BaseFactorTrace:
    """Undisplaced-pair fidelity: exact and printed values side by side.

    ``base`` is the exact closed form; ``printed_value`` comes from the
    verbatim printed display, and ``printed_domain_error`` carries the
    message if that display left its domain (``base`` is still produced).
    """

    Y: float
    base: float
    printed_value: float
    printed_domain_error: str | None = None

    @property
    def discrepancy(self) -> float:
        return abs(self.printed_value - self.base)


@dataclass(frozen=True)
class FidelityOptions:
    """Knobs for a fidelity evaluation."""

    tol: float = 1e-8  # physical comparison tolerance (flag threshold)
    oracle: bool = True  # run the full Fock oracle alongside
    oracle_tol: float = 1e-8
    oracle_ceiling: int = DEFAULT_CUTOFF_CEILING


@dataclass(frozen=True, eq=False)
class FidelityReport:
    """Fidelity per method plus the full diagnostic trail."""

    value_matrix_pipeline: float
    value_printed: float
    value_oracle: float | None
    pipeline: ReductionTrace
    printed: ReductionTrace
    base: BaseFactorTrace
    oracle: OracleResult | None
    g: complex
    c_log: complex
    discrepancy_flags: tuple[DiscrepancyFlag, ...]


# ---------------------------------------------------------------------------
# shared scalar ingredients
# ---------------------------------------------------------------------------


def _gg_terms(g: complex) -> tuple[float, float]:
    """(g^2 + conj(g)^2, |g|^2) — both real."""
    return 2.0 * (g * g).real, g.real * g.real + g.imag * g.imag


def _squeezed_norm(g: complex, r: float) -> float:
    """(1/2)(g^2 + conj(g)^2) sinh 2r + |g|^2 cosh 2r, written as the exact
    (Re g)^2 e^{2r} + (Im g)^2 e^{-2r}: two nonnegative terms, no cancellation."""
    if g == 0:
        return 0.0
    return g.real * g.real * math.exp(2.0 * r) + g.imag * g.imag * math.exp(-2.0 * r)


def logsumexp(terms: list[float], signs: list[float] | None = None) -> tuple[float, float]:
    """(log|sum_i s_i exp(t_i)|, sign of the sum) with math alone; signs
    default to +1, and a vanishing sum gives (-inf, 0.0)."""
    top = max(terms)
    signs = signs or [1.0] * len(terms)
    total = math.fsum(s * math.exp(t - top) for s, t in zip(signs, terms))
    if total == 0.0:
        return -math.inf, 0.0
    return top + math.log(abs(total)), math.copysign(1.0, total)


def _squeeze_gap(r1: float, r2: float) -> float:
    """2(r1 - r2), the argument of the denominator's cosh; refused with
    SqueezeGapError where that cosh leaves double range."""
    x = 2.0 * (r1 - r2)
    if abs(x) > _EXP_MAX:
        raise SqueezeGapError(
            f"squeeze factors r1={r1!r}, r2={r2!r} differ by {abs(r1 - r2):g}; "
            f"cosh 2(r1 - r2) leaves double range beyond |r1 - r2| = "
            f"{0.5 * _EXP_MAX:g}"
        )
    return x


def _delta_denom(beta1: float, beta2: float, r1: float, r2: float) -> float:
    """Common positive denominator ch b1 ch b2 + sh b1 sh b2 ch 2(r1-r2) - 1,
    exponentiated from its log form at every beta (inf past double range)."""
    return _safe_exp(_log_delta_denom(beta1, beta2, r1, r2))


def _log_delta_denom(beta1: float, beta2: float, r1: float, r2: float) -> float:
    """log of the denominator, summed as
    sh^2((b1+b2)/2) + sh^2((b1-b2)/2) + sh b1 sh b2 ch 2(r1-r2):
    three nonnegative terms, so hot states (small beta) keep their digits."""
    terms = [
        2.0 * log_sinh(0.5 * (beta1 + beta2)),
        log_sinh(beta1) + log_sinh(beta2) + log_cosh(abs(_squeeze_gap(r1, r2))),
    ]
    if beta1 != beta2:
        terms.append(2.0 * log_sinh(0.5 * abs(beta1 - beta2)))
    return logsumexp(terms)[0]


def _safe_exp(x: float) -> float:
    if x > _EXP_MAX:
        return math.inf
    return math.exp(x)


def _exp_in_range(name: str, x: float) -> float:
    """exp(x) for a public scalar, refusing values past double range."""
    if x > _EXP_MAX:
        raise OverflowError(
            f"{name} = exp({x:.6g}) exceeds double range; evaluate through "
            "the report pipeline, which carries log values"
        )
    return math.exp(x)


def _sinh_times(beta: float, bracket: float) -> float:
    """sinh(beta) * bracket, from logarithms."""
    if bracket == 0.0:
        return 0.0
    return math.copysign(_safe_exp(log_sinh(beta) + math.log(abs(bracket))), bracket)


def _ratio_log_from(
    b1: float, b2: float, r1: float, r2: float, c1: float, c2: float
) -> float:
    """(sh b1 sh^2(b2/2) c1 + sh^2(b1/2) sh b2 c2) / denominator, assembled
    by signed log-sum-exp so neither the terms nor the quotient overflow."""
    terms = []
    signs = []
    if c1 != 0.0:
        terms.append(log_sinh(b1) + 2.0 * log_sinh(0.5 * b2) + math.log(abs(c1)))
        signs.append(math.copysign(1.0, c1))
    if c2 != 0.0:
        terms.append(2.0 * log_sinh(0.5 * b1) + log_sinh(b2) + math.log(abs(c2)))
        signs.append(math.copysign(1.0, c2))
    if not terms:
        return 0.0
    lnum, sign = logsumexp(terms, signs)
    if sign == 0.0:
        return 0.0
    return sign * _safe_exp(lnum - _log_delta_denom(b1, b2, r1, r2))


# ---------------------------------------------------------------------------
# pipeline factors (oracle-true convention)
# ---------------------------------------------------------------------------


def _pipe_factors(s1: StateParams, s2: StateParams):
    """Conjugation factors in the convention the oracle confirms."""
    m1 = squeeze_matrix(-s1.r)
    m2inv = squeeze_matrix(s2.r)
    b1m = thermal_matrix(s1.beta, -0.5)
    b1p = thermal_matrix(s1.beta, 0.5)
    b2m = thermal_matrix(s2.beta, -0.5)
    b2p = thermal_matrix(s2.beta, 0.5)
    return m1, m2inv, b1m, b1p, b2m, b2p


def _delta1_log_scalar(s2: StateParams, g: complex) -> float:
    """Pipeline-convention exponent of delta1 (depends on state 2 only)."""
    return _sinh_times(s2.beta, -_squeezed_norm(g, s2.r))


def _delta1_log_matrix(factors, s2: StateParams, g: complex) -> float:
    """Raw matrix-product exponent of delta1, dual-checked against the scalar
    form to 1e-10."""
    _, m2inv, _, _, b2m, b2p = factors
    gvec = pair_vec(g)
    q1 = m2inv.T @ b2m @ SIGMA @ b2p @ m2inv
    expo = 0.5 * (gvec @ (q1 @ gvec))
    if not abs(expo.imag) <= 1e-10 * max(1.0, abs(expo)):
        raise PipelineCheckError(f"delta1 exponent acquired an imaginary part: {expo!r}")
    got = float(expo.real)
    want = _delta1_log_scalar(s2, g)
    if not abs(got - want) <= _DUAL_TOL * max(1.0, abs(got)):
        raise PipelineCheckError(
            f"delta1 dual-path mismatch: matrix {got!r} vs scalar {want!r}"
        )
    return got


def delta1(s1: StateParams, s2: StateParams, g: complex) -> float:
    """First Gaussian correction: exp of the displacement-mismatch quadratic
    form under the second state's thermal/squeeze conjugation.

    Mathematically it depends only on (s2, g); s1 is accepted for signature
    symmetry with the rest of the pipeline.  g = 0 gives exactly 1.  Read
    from the full pipeline evaluation, so every dual-path check runs.
    """
    return _exp_in_range("delta1", _pipeline_trace(s1, s2, g).log_delta1)


def _matching_from(factors) -> Mat2C:
    m1, m2inv, b1m, b1p, b2m, b2p = factors
    core = m2inv @ m1
    return b2m @ core @ b1m - b2p @ core @ b1p


def matching_matrix(s1: StateParams, s2: StateParams) -> Mat2C:
    """Left-hand 2x2 matrix of the linear condition the multiplier l solves.

    Built directly from the conjugation factors:
    B2^{-1/2} M2^{-1} M1 B1^{-1/2}  -  B2^{+1/2} M2^{-1} M1 B1^{+1/2}.
    Its determinant equals -2 * DeltaDenom, which is strictly negative for
    positive temperatures, so the system is always solvable.
    """
    return _matching_from(_pipe_factors(s1, s2))


def _rhs_from(factors, g: complex) -> PairVec:
    _, m2inv, _, _, b2m, b2p = factors
    return (b2m - b2p) @ (m2inv @ pair_vec(g))


def _solve_matching(p: Mat2C, rhs: PairVec) -> PairVec:
    """Adjugate solve of p @ l = rhs with the determinant floor, the
    substitution residual and the conjugate-pair form checked."""
    det = p[0, 0] * p[1, 1] - p[0, 1] * p[1, 0]
    if abs(det) < _DET_FLOOR:
        raise DegenerateInputError(
            f"matching matrix determinant {det!r} below {_DET_FLOOR:g}; the "
            "positive denominator (det = -2*DeltaDenom) has degenerated"
        )
    sol = np.array(
        [
            (p[1, 1] * rhs[0] - p[0, 1] * rhs[1]) / det,
            (p[0, 0] * rhs[1] - p[1, 0] * rhs[0]) / det,
        ],
        dtype=complex,
    )
    rhs_norm = float(np.linalg.norm(rhs))
    resid = float(np.linalg.norm(p @ sol - rhs))
    if not resid <= 1e-10 * max(1.0, rhs_norm):
        raise PipelineCheckError(f"matching solve residual {resid:g} too large")
    pair_dev = abs(sol[1] + sol[0].conjugate())
    if not pair_dev <= 1e-10 * max(1.0, abs(sol[0])):
        raise PipelineCheckError(
            f"solved multiplier lost conjugate-pair form (dev {pair_dev:g})"
        )
    return sol


def solve_l(s1: StateParams, s2: StateParams, g: complex) -> PairVec:
    """Solve the matching system for the conjugate-pair multiplier (l, -l*).

    Uses the explicit 2x2 adjugate; refuses when |det| falls below 1e-14
    (degenerate parameters, the positive denominator collapsed).  The result
    is substituted back and must reproduce the right-hand side to 1e-10.
    """
    rhs = _rhs_from(_pipe_factors(s1, s2), complex(g))
    return _solve_matching(matching_matrix(s1, s2), rhs)


def _delta2_log_matrix(factors, g: complex) -> tuple[float, PairVec, Mat2C, float]:
    """Raw matrix-product exponent of delta2.

    Returns (log_delta2, l_vec, matching matrix, annihilation residual).  The
    annihilation residual is the quadratic multiplier term that the symplectic
    structure kills; it is asserted <= 1e-10 here on every call.
    """
    m1, m2inv, b1m, _, b2m, _ = factors
    p = _matching_from(factors)
    rhs = _rhs_from(factors, g)
    lvec = _solve_matching(p, rhs)
    a_minus = b2m @ m2inv @ m1 @ b1m
    core = a_minus.T @ SIGMA
    # Quadratic term: symplectic conjugation reduces it to the antisymmetric
    # form on a single vector, which vanishes identically.
    quad = complex(lvec @ (core @ (a_minus @ lvec)))
    scale = max(1.0, float(np.linalg.norm(a_minus @ lvec)) ** 2)
    residual = abs(quad) / scale
    if not residual <= 1e-10:
        raise PipelineCheckError(f"annihilation identity violated: residual {residual:g}")
    expo = -0.5 * complex(lvec @ (core @ rhs))
    if not abs(expo.imag) <= 1e-10 * max(1.0, abs(expo)):
        raise PipelineCheckError(f"delta2 exponent acquired an imaginary part: {expo!r}")
    return float(expo.real), lvec, p, residual


def _scaled_coeffs(s1: StateParams, s2: StateParams) -> tuple[float, float]:
    """(ca, cb) with l = ca*h + cb*conj(h), assembled from log-scaled
    hyperbolics (beta > 30 path)."""
    b1, b2, r1, r2 = s1.beta, s2.beta, s1.r, s2.r
    ldelta = _log_delta_denom(b1, b2, r1, r2)
    s = 0.5 * (b1 + b2)
    d = 0.5 * (b1 - b2)
    lrho = math.log(2.0) + log_sinh(0.5 * b2)
    x = math.cosh(r1 - r2)
    y = math.sinh(r1 - r2)
    ca = _safe_exp(lrho + math.log(x) + log_sinh(s) - ldelta)
    if d == 0.0 or y == 0.0:
        cb = 0.0
    else:
        cb = -math.copysign(1.0, y * d) * _safe_exp(
            lrho + math.log(abs(y)) + log_sinh(abs(d)) - ldelta
        )
    return ca, cb


def _ratio_log_scalar(s1: StateParams, s2: StateParams, g: complex) -> float:
    """log(delta1/delta2) in the pipeline convention via log-scaled assembly.

    The reported ratio at every beta; agrees with the matrix route to 1e-10
    wherever that route runs (beta <= 30, property-tested).
    """
    c1 = -2.0 * _squeezed_norm(g, s1.r)
    c2 = -2.0 * _squeezed_norm(g, s2.r)
    return _ratio_log_from(s1.beta, s2.beta, s1.r, s2.r, c1, c2)


def _pipeline_trace(s1: StateParams, s2: StateParams, g: complex) -> ReductionTrace:
    """Full matrix-pipeline evaluation; the matrix route and its checks run
    only up to beta = 30."""
    g = complex(g)
    scaled = max(s1.beta, s2.beta) > LOG_SCALE_BETA
    dd = _delta_denom(s1.beta, s2.beta, s1.r, s2.r)
    # The difference ld1 - ld2 cancels catastrophically as beta grows (both
    # exponents scale like sinh(beta) while the ratio stays order one), so the
    # reported ratio always comes from the direct cancellation-free
    # combination; the matrix route cross-checks it up to its own conditioning.
    lratio = _ratio_log_scalar(s1, s2, g)
    if not scaled:
        # Out-of-range products are refused by the checks (NaN fails each),
        # not reported as numpy warnings.
        with np.errstate(over="ignore", invalid="ignore"):
            factors = _pipe_factors(s1, s2)
            ld1 = _delta1_log_matrix(factors, s2, g)
            ld2, lvec, p, residual = _delta2_log_matrix(factors, g)
        cond = max(1.0, abs(ld1), abs(ld2))
        if not abs((ld1 - ld2) - lratio) <= 1e-10 * cond:
            raise PipelineCheckError(
                f"ratio dual-path mismatch: matrix {ld1 - ld2!r} vs "
                f"direct {lratio!r}"
            )
    else:
        ld1 = _delta1_log_scalar(s2, g)
        ld2 = ld1 - lratio
        ca, cb = _scaled_coeffs(s1, s2)
        m2inv = squeeze_matrix(s2.r)
        h = complex((m2inv @ pair_vec(g))[0])
        l0 = ca * h + cb * h.conjugate()
        lvec = np.array([l0, -l0.conjugate()], dtype=complex)
        # reported only; past beta1 + beta2 ~ 1418 its entries read inf/nan
        with np.errstate(over="ignore", invalid="ignore"):
            p = matching_matrix(s1, s2)
        residual = None
    return ReductionTrace(
        delta1=_safe_exp(ld1),
        delta2=_safe_exp(ld2),
        ratio=_safe_exp(lratio),
        l_vec=lvec,
        P=p,
        DeltaDenom=dd,
        method="matrix-pipeline",
        log_delta1=ld1,
        log_delta2=ld2,
        log_ratio=lratio,
        annihilation_residual=residual,
        log_scaled=scaled,
    )


def delta2(s1: StateParams, s2: StateParams, g: complex) -> float:
    """Second Gaussian correction from the solved multiplier.

    The quadratic multiplier term is not assumed to vanish: its residual is
    checked against 1e-10 inside every matrix-path evaluation.  g = 0 gives
    exactly 1.  Read from the full pipeline evaluation.
    """
    return _exp_in_range("delta2", _pipeline_trace(s1, s2, g).log_delta2)


# ---------------------------------------------------------------------------
# printed comparison path (verbatim transcription)
# ---------------------------------------------------------------------------


def _printed_delta1_log(s2: StateParams, g: complex) -> float:
    """Verbatim printed quadratic form (opposite squeeze-sign convention)."""
    gg, g2 = _gg_terms(g)
    bracket = 0.5 * math.sinh(2.0 * s2.r) * gg - math.cosh(2.0 * s2.r) * g2
    return _sinh_times(s2.beta, bracket)


def _printed_ratio_log(s1: StateParams, s2: StateParams, g: complex) -> float:
    """Verbatim printed exponent (eps1 + eps2)/denominator."""
    gg, g2 = _gg_terms(g)
    r1, r2 = s1.r, s2.r
    c1 = gg * math.sinh(2.0 * r1) - 2.0 * g2 * math.cosh(2.0 * r1)
    c2 = gg * math.sinh(2.0 * r2) - 2.0 * g2 * math.cosh(2.0 * r2)
    return _ratio_log_from(s1.beta, s2.beta, r1, r2, c1, c2)


def ratio_printed(s1: StateParams, s2: StateParams, g: complex) -> float:
    """delta1/delta2 evaluated from the printed explicit exponent, verbatim.

    The transcription keeps the printed squeeze-sign convention, so on
    squeezed states with complex displacement mismatch this deviates from the
    matrix pipeline; the deviation is what the flags and the reconciliation
    report measure.  g = 0 gives exactly 1.
    """
    return _safe_exp(_printed_ratio_log(s1, s2, complex(g)))


def printed_matching_display(s1: StateParams, s2: StateParams) -> Mat2C:
    """The printed solve-ready matrix (with its 1/denominator prefactor).

    Numerically this equals the *inverse* of the matching system matrix in
    the oracle-true convention (and the transpose-inverse in the printed
    convention) — it is not the system matrix its surrounding text defines.
    """
    b1, b2, r1, r2 = s1.beta, s2.beta, s1.r, s2.r
    chr_ = math.cosh(r1 - r2)
    shr = math.sinh(r1 - r2)
    # the sinh/denominator quotients come from logarithms, so the 1/denominator
    # prefactor is already applied and nothing overflows past beta ~ 710
    ldd = _log_delta_denom(b1, b2, r1, r2)
    shs = _safe_exp(log_sinh(0.5 * (b2 + b1)) - ldd)
    half_diff = 0.5 * (b2 - b1)
    shd2 = 0.0
    if half_diff != 0.0:
        shd2 = math.copysign(_safe_exp(log_sinh(abs(half_diff)) - ldd), half_diff)
    return np.array(
        [[shs * chr_, shd2 * shr], [-shd2 * shr, -shs * chr_]], dtype=complex
    )


def _printed_trace(s1: StateParams, s2: StateParams, g: complex) -> ReductionTrace:
    """Verbatim printed-path evaluation, packaged like the pipeline trace."""
    g = complex(g)
    ld1 = _printed_delta1_log(s2, g)
    lratio = _printed_ratio_log(s1, s2, g)
    ld2 = ld1 - lratio  # implied by the printed decomposition
    p = printed_matching_display(s1, s2)
    # Verbatim multiplier chain: (l, -l*) = (g, -g*) M~2^-1 (B2^-1/2 - B2^1/2) P~^-1
    # with the printed convention's squeeze matrix and the printed display as P.
    m2inv_printed = squeeze_matrix(-s2.r)  # inverse of the printed M2
    diff = thermal_matrix(s2.beta, -0.5) - thermal_matrix(s2.beta, 0.5)
    try:
        pt_inv = np.linalg.inv(p.T)
        # Deep in the log-scaled regime this chain leaves double range; its
        # entries then read inf/nan like the trace's other out-of-range values.
        with np.errstate(over="ignore", invalid="ignore"):
            lrow = pair_vec(g) @ m2inv_printed.T @ diff @ pt_inv
        lvec = np.array([lrow[0], lrow[1]], dtype=complex)
    except np.linalg.LinAlgError:
        lvec = np.array([math.nan, math.nan], dtype=complex)
    return ReductionTrace(
        delta1=_safe_exp(ld1),
        delta2=_safe_exp(ld2),
        ratio=_safe_exp(lratio),
        l_vec=lvec,
        P=p,
        DeltaDenom=_delta_denom(s1.beta, s2.beta, s1.r, s2.r),
        method="printed-formula",
        log_delta1=ld1,
        log_delta2=ld2,
        log_ratio=lratio,
        annihilation_residual=None,
        log_scaled=max(s1.beta, s2.beta) > LOG_SCALE_BETA,
    )


# ---------------------------------------------------------------------------
# base factor (undisplaced-pair fidelity)
# ---------------------------------------------------------------------------


def printed_overlap_argument(s1: StateParams, s2: StateParams) -> float:
    """The printed argument Y of the base-factor display, verbatim.

    Even in both squeeze factors (every term is a squared hyperbolic), so the
    squeeze-sign convention cannot rescue it.
    """
    b1, b2, r1, r2 = s1.beta, s2.beta, s1.r, s2.r
    u = 0.25 * (b1 + b2)
    v = 0.25 * (b1 - b2)
    chu2 = math.cosh(u) ** 2
    chv2 = math.cosh(v) ** 2
    return (
        math.cosh(r1 - r2) ** 2 * chu2
        + math.cosh(r1 + r2) ** 2 * chu2
        - math.sinh(r1 - r2) ** 2 * chv2
        - math.cosh(r1 + r2) ** 2 * chv2
    )


def _printed_base(s1: StateParams, s2: StateParams) -> tuple[float, float, str | None]:
    """(Y, printed base value, domain-error message or None), verbatim:
    2 sinh(b1/4) sinh(b2/4) / sqrt(sqrt(Y) - 1)."""
    try:
        y = printed_overlap_argument(s1, s2)
    except OverflowError:
        return math.inf, math.nan, (
            "printed base-factor argument Y overflows double precision "
            "(its squared hyperbolics of (b1+b2)/4 and r1+r2 leave range)"
        )
    pre = 2.0 * math.sinh(0.25 * s1.beta) * math.sinh(0.25 * s2.beta)
    if y < 0.0 or math.sqrt(y) <= 1.0:
        return y, math.nan, (
            f"printed base-factor argument sqrt(Y) = {math.sqrt(max(y, 0.0)):g} "
            "<= 1; display undefined here"
        )
    return y, pre / math.sqrt(math.sqrt(y) - 1.0), None


def base_factor(s1: StateParams, s2: StateParams) -> BaseFactorTrace:
    """Fidelity of the undisplaced pair, exact and printed side by side.

    The exact value is the single-mode Gaussian fidelity (Twamley 1996)
    written in the matching denominator Delta = -det(P)/2:

        F0 = 4 sinh(b1/2) sinh(b2/2) (1 + sqrt(1 + Delta/2)) / Delta,

    the covariance form 2/(sqrt(Delta_V + delta_V) - sqrt(delta_V))
    rationalised so nothing cancels, and assembled from logarithms at every
    beta.  Identical (r, beta) give exactly 1.  The printed display is
    evaluated verbatim and the gap between the two is exposed, not hidden.
    """
    y, printed, domain_err = _printed_base(s1, s2)
    b1, b2, r1, r2 = s1.beta, s2.beta, s1.r, s2.r
    if (r1, b1) == (r2, b2):
        base = 1.0
    else:
        ldd = _log_delta_denom(b1, b2, r1, r2)
        # log sqrt(1 + Delta/2), then log(1 + sqrt(1 + Delta/2))
        half = 0.5 * logsumexp([0.0, ldd - math.log(2.0)])[0]
        lone = logsumexp([0.0, half])[0]
        base = _safe_exp(
            math.log(4.0) + log_sinh(0.5 * b1) + log_sinh(0.5 * b2) + lone - ldd
        )
    return BaseFactorTrace(
        Y=y, base=base, printed_value=printed, printed_domain_error=domain_err
    )


# ---------------------------------------------------------------------------
# assembled fidelity
# ---------------------------------------------------------------------------


def _clamp01(value: float, name: str, flags: list[DiscrepancyFlag]) -> float:
    if math.isnan(value):
        return value
    clamped = min(1.0, max(0.0, value))
    if clamped != value:
        flags.append(DiscrepancyFlag(f"{name}-clamped", abs(value - clamped)))
    return clamped


def fidelity(
    s1: StateParams, s2: StateParams, opts: FidelityOptions | None = None
) -> FidelityReport:
    """Full three-way fidelity report for a pair of states.

    value_matrix_pipeline = exp(log ratio from the matrix pipeline) times the
    exact base factor; value_printed is the fully
    verbatim printed path (printed ratio times printed base); value_oracle is
    the adaptive-cutoff brute-force fidelity (None only when disabled).
    Every mismatch beyond opts.tol is flagged by name, in pipeline order, and
    out-of-range values are clamped loudly, never silently.
    """
    opts = opts or FidelityOptions()
    g, c_log = displacement_compose(s1.k, s2.k)
    flags: list[DiscrepancyFlag] = []

    pipe = _pipeline_trace(s1, s2, g)
    printed = _printed_trace(s1, s2, g)
    base = base_factor(s1, s2)

    if pipe.log_scaled:
        flags.append(DiscrepancyFlag("log-scaled-path", 0.0))

    # Comparison flags, in the order the printed path diverges from the
    # matrix pipeline: mismatch factor, then ratio, then base display.
    d1_dev = abs(printed.log_delta1 - pipe.log_delta1)
    if d1_dev > opts.tol * max(1.0, abs(pipe.log_delta1)):
        flags.append(DiscrepancyFlag("printed-displacement-quadratic-form", d1_dev))
    ratio_dev = abs(printed.ratio - pipe.ratio)
    if ratio_dev > opts.tol:
        flags.append(DiscrepancyFlag("printed-ratio-quadratic-form", ratio_dev))
    if math.isnan(base.printed_value):
        flags.append(DiscrepancyFlag("printed-base-domain", math.inf))
    elif base.discrepancy > opts.tol:
        flags.append(DiscrepancyFlag("printed-base-factor", base.discrepancy))

    value_pipe = pipe.ratio * base.base
    value_printed = (
        math.nan if math.isnan(base.printed_value) else printed.ratio * base.printed_value
    )
    value_pipe = _clamp01(value_pipe, "pipeline-value", flags)
    value_printed = _clamp01(value_printed, "printed-value", flags)

    oracle_res: OracleResult | None = None
    value_oracle: float | None = None
    if opts.oracle:
        oracle_res = fidelity_oracle(
            s1, s2, tol=opts.oracle_tol, ceiling=opts.oracle_ceiling
        )
        value_oracle = _clamp01(oracle_res.fidelity, "oracle-value", flags)
        if abs(value_pipe - value_oracle) > max(opts.tol, 1e-6):
            flags.append(
                DiscrepancyFlag(
                    "pipeline-vs-oracle", abs(value_pipe - value_oracle)
                )
            )

    if pipe.log_delta1 < math.log(1e-300) or not math.isfinite(pipe.delta1):
        flags.append(DiscrepancyFlag("delta1-outside-float-range", abs(pipe.log_delta1)))
    if pipe.log_delta2 < math.log(1e-300) or not math.isfinite(pipe.delta2):
        flags.append(DiscrepancyFlag("delta2-outside-float-range", abs(pipe.log_delta2)))

    return FidelityReport(
        value_matrix_pipeline=value_pipe,
        value_printed=value_printed,
        value_oracle=value_oracle,
        pipeline=pipe,
        printed=printed,
        base=base,
        oracle=oracle_res,
        g=g,
        c_log=c_log,
        discrepancy_flags=tuple(flags),
    )

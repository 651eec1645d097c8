"""Closed-form fidelity pipeline for displaced squeezed thermal states.

Two closed-form paths live here:

* the **pipeline** (reported): delta1, delta2, the multiplier l and the
  matching denominator come from closed-form scalars, and the 2x2
  conjugation-matrix route the paper derives them with is evaluated on the
  same pair as a check, with the structural identities asserted along the
  way, both at every beta;
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

Both paths, the base factor, the flags and every check are evaluated by
`closed_form`, elementwise over arrays of pairs: a sweep is one call, and
`fidelity` is a batch of one.  Every closed-form scalar is built from one set
of variables, tanh and sech of beta/2 and a normalised denominator, with no
logarithm that grows with beta (see _variables); the matrix route is written
without differences of nearly equal products and scaled so that its checks
run at every beta (see _matrix_route).  The batch then raises its first
refused row's first failing check and, when the options ask for it, runs the
oracle per row: every refusal, every oracle run and every comparison of the
pipeline with the oracle happens in `closed_form_columns`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .algebra import (
    StateParams,
    _log_sinh,
    squeeze_matrix,  # noqa: F401  (perfbench's tracer wraps these names here)
    thermal_matrix,  # noqa: F401
)
from .fock import DEFAULT_CUTOFF_CEILING, ConvergenceError, OracleResult, fidelity_oracle
from .fock import DEFAULT_ORACLE_TOL, _check_oracle_options

__all__ = [
    "DiscrepancyFlag",
    "ReductionTrace",
    "BaseFactorTrace",
    "FidelityOptions",
    "FidelityReport",
    "ClosedForm",
    "closed_form",
    "closed_form_columns",
    "base_factor",
    "fidelity",
    "PipelineCheckError",
    "SqueezeGapError",
]

# The matrix route's tolerance, for every check but the multiplier's.
_DUAL_TOL = 1e-10

# Tolerance of the multiplier check, in units of the matrix route's first-order
# rounding bound (about 450 ulps).
_L_TOL = 1e-13

_EXP_MAX = 709.0  # math.exp overflows just above this
_SQRT2 = math.sqrt(2.0)
_SQRT_HALF = math.sqrt(0.5)
_LOG_TINY = math.log(1e-300)

# The pipeline's agreement bound with the oracle: the floor of the
# pipeline-vs-oracle flag, and verify's bound on the same deviation.
ORACLE_AGREEMENT = 1e-6


def _sci(x: float) -> str:
    """A tolerance as the help and verify state it: 1e-8, not 1e-08."""
    return np.format_float_scientific(x, trim="-", exp_digits=1)


class SqueezeGapError(ValueError):
    """A squeeze factor or squeeze gap past double range."""


class PipelineCheckError(RuntimeError):
    """A matrix-route check left its tolerance (in order: dual path of delta1
    and the determinant, solve residual, conjugate-pair form, annihilation
    residual, dual path of the ratio and l); a zero or non-finite determinant
    fails its dual path, a non-finite route delta2 exponent the ratio's."""


@dataclass(frozen=True)
class DiscrepancyFlag:
    """A named mismatch with its magnitude."""

    name: str
    magnitude: float


@dataclass(frozen=True, eq=False)
class ReductionTrace:
    """Everything one closed-form evaluation produced.

    The log fields are always finite-informative even when the exponentiated
    values leave double range (``log_DeltaDenom`` where ``DeltaDenom`` does).
    The pipeline trace reports every field from the closed-form scalars;
    ``annihilation_residual`` comes from the matrix route that checks them.
    The printed trace leaves the pipeline-only fields (from ``l`` on) None.
    Every field is one number per pair (an array entry per row in a `ClosedForm`).
    """

    delta1: float
    delta2: float
    ratio: float
    log_delta1: float
    log_delta2: float
    log_ratio: float
    l: complex | None = None  # the multiplier's first entry; its second is -conj(l)
    DeltaDenom: float | None = None
    log_DeltaDenom: float | None = None
    annihilation_residual: float | None = None


@dataclass(frozen=True)
class BaseFactorTrace:
    """Undisplaced-pair fidelity: exact and printed values side by side.

    ``base`` is the exact closed form; ``printed_value`` comes from the
    verbatim printed display, and ``printed_domain_error`` carries the
    message if that display left its domain (``base`` is still produced).
    Inside a `ClosedForm` every other field holds one array entry per row
    and ``printed_domain_error`` is None: only a report's row forms it.
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
    oracle_tol: float = DEFAULT_ORACLE_TOL
    oracle_ceiling: int = DEFAULT_CUTOFF_CEILING

    def __post_init__(self):
        # a NaN threshold compares False against every mismatch (no flag ever
        # raised), and a non-positive one flags exact agreement
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise ValueError(f"tol must be finite and > 0, got {self.tol!r}")
        _check_oracle_options(self.oracle_tol, self.oracle_ceiling)


_NO_ORACLE = FidelityOptions(oracle=False)


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
    discrepancy_flags: tuple[DiscrepancyFlag, ...]


# ---------------------------------------------------------------------------
# elementwise ingredients: each maps arrays of rows to arrays of rows
# ---------------------------------------------------------------------------

# keeps t - top defined in logsumexp when every term is -inf
_MOST_NEGATIVE = -np.finfo(float).max


def _complex(re, im):
    """re + i im elementwise, exactly (no signed-zero or inf * 0 artefacts)."""
    out = np.empty(np.shape(re), dtype=complex)
    out.real = re
    out.imag = im
    return out


def _cmul(a, b):
    """a * b elementwise in real arithmetic: numpy's complex multiply rounds
    differently on arrays (fused multiply-add) than on scalars, and a batch of
    one runs on scalars (see _pair)."""
    return _complex(a.real * b.real - a.imag * b.imag, a.real * b.imag + a.imag * b.real)


def logsumexp(terms, signs):
    """(log|sum_i s_i exp(t_i)|, sign of the sum), elementwise over arrays of
    terms and signs; a -inf term drops out, and a vanishing sum gives
    (-inf, 0)."""
    top = terms[0]
    for t in terms[1:]:
        top = np.maximum(top, t)
    top = np.maximum(top, _MOST_NEGATIVE)
    total = 0.0
    for s, t in zip(signs, terms):
        total = total + s * np.exp(t - top)
    return top + np.log(np.abs(total)), np.sign(total)


def _squeezed_terms(g, r):
    """The two terms of the squeezed norm N = (1/2)(g^2 + conj(g)^2) sinh 2r
    + |g|^2 cosh 2r, written as the exact (Re g)^2 e^{2r} + (Im g)^2 e^{-2r}:
    two nonnegative terms, no cancellation."""
    x = 2.0 * r
    return g.real * g.real * np.exp(x), g.imag * g.imag * np.exp(-x)


def _variables(r1, b1, r2, b2):
    """(t1, t2, c1, c2, u1, u2, T, X, D', log c1, log Delta), once per batch:
    t, c = tanh, cosh(beta/2), T = max(t1, t2), u = t/T, X = 4 u1 u2
    ch 2(r1 - r2) and D' = 2 (u1^2 + u2^2) + X = Delta/(c1 c2 T)^2 >= 2 (as
    sh b = 2 c^2 t, 1/c^2 = 1 - t^2), with Delta = ch b1 ch b2 + sh b1 sh b2
    ch 2(r1 - r2) - 1: no term grows with beta, so no state costs D' digits."""
    t1, t2 = np.tanh(0.5 * b1), np.tanh(0.5 * b2)
    c1, c2 = np.cosh(0.5 * b1), np.cosh(0.5 * b2)  # finite below beta = 745
    top = np.maximum(t1, t2)
    u1, u2 = t1 / top, t2 / top
    gap = r1 - r2
    # X and D' take ch 2(r1 - r2) to first order in the gap's rounding error err
    # (Knuth's two-sum), which cosh(y) would turn into a relative error y times larger
    err = (r1 - (gap - (gap - r1))) - (r2 + (gap - r1))
    x = 4.0 * (u1 * u2) * np.cosh(2.0 * gap) + 8.0 * (u1 * u2) * err * np.sinh(2.0 * gap)
    dp = 2.0 * (u1 * u1 + u2 * u2) + x
    lc1 = np.log(c1)
    ldd = 2.0 * (lc1 + np.log(c2) + np.log(top)) + np.log(dp)  # log Delta
    return t1, t2, c1, c2, u1, u2, top, x, dp, lc1, ldd


def _multiplier(r1, r2, g, u1, u2, dp, lc1):
    """The solved multiplier l in closed form, with u, D' and lc1 = log
    cosh(b1/2) from _variables and a, b = 2 u2^2/D', 2 u1 u2/D':

        Re l = sech(b1/2) Re g [a e^{r1} + b e^{2 r2 - r1}],
        Im l = sech(b1/2) Im g [b e^{r1 - 2 r2} + a e^{-r1}].

    This is the adjugate solve of the matching system as two nonnegative
    terms per component, each exponentiated from its logarithm with
    log sech(b1/2) and log |g| folded in, so nothing cancels, overflows or
    underflows before the e^{+-r} factors scale it back; no logarithm in a
    or b grows with beta, so no state, hot or cold, costs l digits.  The
    sign is g's, signed zeros included.
    """
    lu1, lu2, lden = np.log(u1), np.log(u2), np.log(0.5 * dp)
    la, lb = 2.0 * lu2 - lden, lu1 + lu2 - lden
    lre, lim = (np.log(np.abs(part)) - lc1 for part in (g.real, g.imag))
    re = np.copysign(np.exp(la + r1 + lre) + np.exp(lb + 2.0 * r2 - r1 + lre), g.real)
    im = np.copysign(np.exp(lb + r1 - 2.0 * r2 + lim) + np.exp(la - r1 + lim), g.imag)
    return _complex(re, im)


# ---------------------------------------------------------------------------
# the 2x2 matrix route (checks the scalars at every beta)
# ---------------------------------------------------------------------------


def _matching_system(r1, r2, g, t1, t2):
    """The matching system P l = 2 s2 Z v, with t1, t2 = tanh(beta1/2),
    tanh(beta2/2): (v[0], the quadrature-basis anti-diagonal of P/(c1 c2) and
    right-hand side over c2, and e^{-+d}), each a tuple of arrays.

    With c, s = ch, sh(beta/2) the thermal factors are B^{-+1/2} = c I +- s Z,
    Z = diag(1, -1), so the differences of nearly equal products in
    B2^{-1/2} C B1^{-1/2} - B2^{+1/2} C B1^{+1/2} cancel exactly:

        P = 2 (c2 s1 C Z + s2 c1 Z C),

    with C = M2^{-1} M1 = squeeze_matrix(r2 - r1) by the group law and
    v = M2^{-1} pair_vec(g) = pair_vec(e^{r2} Re g + i e^{-r2} Im g).  In
    this (a^dag, a) basis the entries of P are 2 sh((b1 +- b2)/2) times
    ch, sh(r2 - r1) by the addition theorems, and they nearly cancel
    against each other for a hot state against a cold one across a wide
    squeeze gap, so the route solves it in the quadrature basis
    R = (1 1; 1 -1)/sqrt 2 instead, where the squeeze is diagonal,
    R C R = diag(e^{-d}, e^{d}) with d = r2 - r1, and R Z R = X:

        R P R = 2 (c2 s1 diag(e^{-d}, e^{d}) X + s2 c1 X diag(e^{-d}, e^{d}))

    is anti-diagonal with entries 2 (c2 s1 e^{-+d} + s2 c1 e^{+-d}), sums of
    positive products, and the right-hand side is R (2 s2 Z v) =
    2 sqrt2 s2 (Re u, i Im u) with u = v[0].  Both are formed in that basis
    only, over c1 c2 and c2: 2 (t1 e^{-+d} + t2 e^{+-d}) and
    2 sqrt2 t2 (Re u, i Im u), whose solution is c1 l, so nothing overflows
    or underflows as beta grows.
    """
    d = r2 - r1
    v0 = _complex(np.exp(r2) * g.real, np.exp(-r2) * g.imag)  # v = (v0, -conj v0)
    factors = m, big = np.exp(-d), np.exp(d)
    p_quadrature = (2.0 * (t1 * m + t2 * big), 2.0 * (t1 * big + t2 * m))
    rhs_quadrature = (2.0 * _SQRT2 * t2 * v0.real + 0j, 2.0j * _SQRT2 * t2 * v0.imag)
    return v0, p_quadrature, rhs_quadrature, factors


def _log_within(tol, terms, top):
    """|sum of s e^t over the terms (t, s)| <= tol e^top, compared in
    logarithms, so values past double range are checked too; NaN fails."""
    return logsumexp([t for t, _ in terms], [s for _, s in terms])[0] <= math.log(tol) + top


def _matrix_route(r1, r2, g, t1, t2, c1, c2, lsh2, ldd, root, ld1, lq1, lratio, l0):
    """Evaluate the 2x2 matrix route and check the closed-form values against
    it, with t, c, ldd from _variables, lsh2 = log sh b2, root = sqrt(2 Delta)
    /(c1 c2), ld1 and lq1 the delta1 exponent and the log of its magnitude.
    Returns (annihilation residual, checks), in check order:

    delta1 equal to the scalar form to _DUAL_TOL (its route exponent
    -sh(b2) |v0|^2 is real by construction); the determinant against
    -2*Delta, checked normalised as (q01/sqrt(2 Delta)) (q10/sqrt(2 Delta)) = 1
    so a wide squeeze gap cannot overflow it (Delta > 0 for every pair, so a
    zero or non-finite value fails it too), and the solve's substitution
    residual; the conjugate-pair form of the solved l, relative to its first
    entry; the quadratic term (Ah)^T Sigma (Ah), zero for any A and h (ROADMAP
    item 12), below _DUAL_TOL; the ratio to a conditioning-aware _DUAL_TOL (a
    non-finite route delta2 exponent fails it, as NaN fails _log_within); the
    solved l within _L_TOL of the solve's first-order rounding bound.
    Everything past delta1 runs in the quadrature basis (see
    _matching_system), where P is anti-diagonal, R Sigma R = -Sigma and every
    product below is a sum of same-signed terms; P and A are divided by c1 c2
    and the right-hand side by c2, each max(1, .) floor with them, and the
    delta exponents are carried as (log magnitude, sign), so every check runs
    at every beta.
    """
    v0, (q01, q10), (rhs0, rhs1), (m, big) = _matching_system(r1, r2, g, t1, t2)
    lc2 = np.log(c2)
    # (1/2) v^T B2^{-1/2} Sigma B2^{+1/2} v = sh(b2) v0 v1 = -sh(b2) |v0|^2: the
    # e^{b2} - e^{-b2} of the conjugated form is 2 sh b2, which enters as its logarithm.
    norm_v0 = v0.real * v0.real + v0.imag * v0.imag
    ld1m = lsh2 + np.log(norm_v0), np.sign(-norm_v0)
    det_unit = (q01 / root) * (q10 / root)
    h0, h1 = rhs1 / q10, rhs0 / q01
    rhs_norm = np.hypot(np.abs(rhs0), np.abs(rhs1))
    resid = np.hypot(np.abs(q01 * h1 - rhs0), np.abs(q10 * h0 - rhs1))
    m0, m1 = _SQRT_HALF * (h0 + h1), _SQRT_HALF * (h0 - h1)  # back to (a^dag, a)
    pair_dev = np.abs(m1 + m0.conj())
    # R A R/(c1 c2) for A = B2^{-1/2} C B1^{-1/2}, with R B^{-1/2} R = c I + s X:
    # its off-diagonal entries are those of R P R/(2 c1 c2)
    a00, a01, a10, a11 = m + t1 * t2 * big, 0.5 * q01, 0.5 * q10, t1 * t2 * m + big
    # Quadratic term l^T A^T Sigma A l, formed on w = A l over its norm nw so no
    # square overflows: symplectic conjugation reduces it to the antisymmetric
    # form on a single vector, which vanishes identically.
    w0, w1 = a00 * h0 + a01 * h1, a10 * h0 + a11 * h1
    nw = np.maximum(1.0 / c2, np.hypot(np.abs(w0), np.abs(w1)))
    u0, u1 = w0 / nw, w1 / nw
    quad = _cmul(h0, a00 * u1 - a10 * u0) + _cmul(h1, a01 * u1 - a11 * u0)
    residual = np.abs(quad) / nw
    # delta2's exponent is real: rhs0, h1 are real and rhs1, h0 imaginary (the
    # conjugate-pair check reads Re h0, Im h1), so its a10, a01 terms drop out
    expo2 = -0.5 * (h0.imag * (a00 * rhs1.imag) + h1.real * (a11 * rhs0.real))
    ld2m = 2.0 * lc2 + np.log(np.abs(expo2)), np.sign(expo2)
    # the bound for the anti-diagonal quadrature solve, whose l has components
    # sqrt2 i Im l[0] and sqrt2 Re l[0], mapped back to l[0] (times c1 here)
    l0c = c1 * l0
    bound = np.abs(l0c.real) + np.abs(l0c.imag) + _SQRT_HALF * (np.abs(h0) + np.abs(h1))
    checks = [
        ("delta1-dual-path", PipelineCheckError,
         ~_log_within(_DUAL_TOL, [ld1m, (lq1, 1.0)], np.maximum(0.0, ld1m[0])),
         lambda i: f"delta1 dual-path mismatch: matrix {_times_exp(*ld1m[::-1], i)!r} vs "
                   f"scalar {ld1.item(i)!r}"),
        ("determinant-dual-path", PipelineCheckError,
         ~(np.abs(det_unit - 1.0) <= _DUAL_TOL),
         lambda i: f"determinant dual-path mismatch: matrix {-2 * _times_exp(det_unit, ldd, i)!r}"
                   f" vs -2*DeltaDenom {-2.0 * float(np.exp(ldd.item(i)))!r}"),
        ("solve-residual", PipelineCheckError,
         ~(resid <= _DUAL_TOL * np.maximum(1.0 / c2, rhs_norm)),
         lambda i: f"matching solve residual {resid.item(i) * c2.item(i):g} too large"),
        ("conjugate-pair", PipelineCheckError,
         ~(pair_dev <= _DUAL_TOL * np.abs(m0)),
         lambda i: f"solved multiplier lost conjugate-pair form "
                   f"(dev {pair_dev.item(i) / c1.item(i):g})"),
        ("annihilation", PipelineCheckError, ~(residual <= _DUAL_TOL),
         lambda i: f"annihilation identity violated: residual {residual.item(i):g}"),
        ("ratio-dual-path", PipelineCheckError,
         ~_log_within(_DUAL_TOL, [ld1m, (ld2m[0], -ld2m[1]),
                                  (np.log(np.abs(lratio)), -np.sign(lratio))],
                      np.maximum(np.maximum(0.0, ld1m[0]), ld2m[0])),
         lambda i: f"ratio dual-path mismatch: matrix "
                   f"{_times_exp(*ld1m[::-1], i) - _times_exp(*ld2m[::-1], i)!r} vs "
                   f"direct {lratio.item(i)!r}"),
        ("multiplier-dual-path", PipelineCheckError,
         ~(np.abs(m0 - l0c) <= _L_TOL * np.maximum(c1, bound)),
         lambda i: f"multiplier dual-path mismatch: matrix {m0.item(i) / c1.item(i)!r} vs "
                   f"closed form {l0.item(i)!r}"),
    ]
    return residual, checks


def _times_exp(x, log, i):
    """x[i] exp(log[i]) in Python numbers (inf past double range), for a refusal message."""
    return x.item(i) * float(np.exp(log.item(i)))


# ---------------------------------------------------------------------------
# printed comparison path (verbatim transcription)
# ---------------------------------------------------------------------------


def _printed_path(g, r1, r2, lsh2):
    """Verbatim printed displays (opposite squeeze-sign convention): the log
    delta1 quadratic form and the two coefficients of the printed ratio's
    exponent, which enter it as the pipeline's -2N do (see _evaluate)."""
    gg, g2 = 2.0 * (g.real * g.real - g.imag * g.imag), g.real * g.real + g.imag * g.imag
    x1, x2 = 2.0 * r1, 2.0 * r2
    quad = 0.5 * np.sinh(x2) * gg - np.cosh(x2) * g2
    # sh(b2) quad from logarithms; + 0.0 makes a vanishing quad of either sign +0.0
    ld1 = np.copysign(np.exp(lsh2 + np.log(np.abs(quad))), quad) + 0.0
    c1 = gg * np.sinh(x1) - 2.0 * g2 * np.cosh(x1)
    c2 = gg * np.sinh(x2) - 2.0 * g2 * np.cosh(x2)
    return ld1, (c1, c2)


@np.errstate(divide="ignore")  # log sh((b1 - b2)/2) is -inf at b1 = b2
def _printed_display(r1, b1, r2, b2, ldd):
    """The printed solve-ready matrix of one pair, verbatim, with its
    1/denominator prefactor, ldd = log Delta (only `verify` reads it)."""
    chr_, shr = np.cosh(r1 - r2), np.sinh(r1 - r2)
    # the sinh/denominator quotients come from logarithms, so the 1/denominator
    # prefactor is already applied and nothing overflows past beta ~ 710
    shs = np.exp(_log_sinh(0.5 * (b1 + b2)) - ldd)
    # sh((b2 - b1)/2) carries the sign of b2 - b1, +0.0 at b1 = b2
    shd2 = np.copysign(np.exp(_log_sinh(0.5 * np.abs(b1 - b2)) - ldd), b2 - b1)
    return np.array([[shs * chr_, shd2 * shr], [-shd2 * shr, -shs * chr_]])


def _printed_base(r1, b1, r2, b2):
    """(Y, printed base value) of the verbatim display
    2 sinh(b1/4) sinh(b2/4) / sqrt(sqrt(Y) - 1), with Y = inf where it
    leaves double range, and the value NaN there and wherever sqrt(Y) <= 1
    (Y < 0 included).  Y is even in both squeeze factors (every term is a
    squared hyperbolic), so the squeeze-sign convention cannot rescue it."""
    # squares as products: ** 2 on a numpy scalar calls pow, which can round
    # differently from the array loop (see _pair)
    chu, chv = np.cosh(0.25 * (b1 + b2)), np.cosh(0.25 * (b1 - b2))
    cm, cp, sm = np.cosh(r1 - r2), np.cosh(r1 + r2), np.sinh(r1 - r2)
    chu2, chv2, cm2, cp2, sm2 = chu * chu, chv * chv, cm * cm, cp * cp, sm * sm
    y = cm2 * chu2 + cp2 * chu2 - sm2 * chv2 - cp2 * chv2
    # four squares are >= 1 and one >= 0: any overflow leaves Y at +-inf or NaN
    y = np.where(np.isfinite(y), y, np.inf)
    pre = 2.0 * np.sinh(0.25 * b1) * np.sinh(0.25 * b2)
    outside = np.isinf(y) | (np.sqrt(np.maximum(y, 0.0)) <= 1.0)
    return y, np.where(outside, np.nan, pre / np.sqrt(np.sqrt(y) - 1.0))


def _printed_domain_error(y: float) -> str:
    """Why the printed display of a row with argument Y is undefined."""
    if math.isinf(y):
        return ("printed base-factor argument Y overflows double precision "
                "(a squared hyperbolic, or a product of two, leaves range)")
    return (f"printed base-factor argument sqrt(Y) = {math.sqrt(max(y, 0.0)):g} "
            "<= 1; display undefined here")


# ---------------------------------------------------------------------------
# the batched evaluation
# ---------------------------------------------------------------------------


def _clamp01(value):
    """(value clamped to [0, 1], the amount clamped); NaN passes through with
    a NaN amount, so it is never flagged."""
    clamped = np.minimum(np.maximum(value, 0.0), 1.0)
    return clamped, np.abs(value - clamped)


_FIELDS = {cls: tuple(f.name for f in fields(cls)) for cls in (ReductionTrace, BaseFactorTrace)}


@dataclass(frozen=True, eq=False)
class ClosedForm:
    """Every closed-form result for a batch of pairs, one array entry per row
    (numpy scalars in the batch of one that _pair makes).

    ``pipeline``, ``printed`` and ``base`` are the report's traces with a
    column per field; ``flags`` maps each flag's name to (row mask,
    magnitudes), in report order, the oracle's two unset until
    `closed_form_columns` runs it; ``checks`` lists (name, error class,
    message builder) in check order, and ``first_failure`` holds each row's
    first failing check index (len(checks) where every check passed; only
    `_evaluate` returns a batch with a refused row).  ``oracle`` (one
    OracleResult per row, in flat row order) and ``value_oracle`` are None
    unless the oracle ran.
    """

    g: np.ndarray
    value_matrix_pipeline: np.ndarray
    value_printed: np.ndarray
    pipeline: ReductionTrace
    printed: ReductionTrace
    base: BaseFactorTrace
    flags: dict
    checks: tuple
    first_failure: np.ndarray
    oracle: tuple[OracleResult, ...] | None = None
    value_oracle: np.ndarray | None = None

    def __len__(self) -> int:
        return np.size(self.g)

    def error(self, i: int) -> Exception | None:
        """Row i's first failing check as the exception it raises, or None."""
        k = self.first_failure.item(i)
        if k == len(self.checks):
            return None
        _, kind, message = self.checks[k]
        with np.errstate(all="ignore"):  # a message value may leave double range
            return kind(message(i))

    def report(self, i: int) -> FidelityReport:
        """Row i as a FidelityReport, with its oracle result when one ran."""

        def row(column):
            return None if column is None else column.item(i)

        def trace(tr):
            return type(tr)(*[row(getattr(tr, name)) for name in _FIELDS[type(tr)]])

        base = trace(self.base)
        if math.isnan(base.printed_value):
            base = replace(base, printed_domain_error=_printed_domain_error(base.Y))
        return FidelityReport(
            value_matrix_pipeline=row(self.value_matrix_pipeline),
            value_printed=row(self.value_printed),
            value_oracle=row(self.value_oracle),
            pipeline=trace(self.pipeline),
            printed=trace(self.printed),
            base=base,
            oracle=None if self.oracle is None else self.oracle[i],
            g=row(self.g),
            discrepancy_flags=tuple(DiscrepancyFlag(name, row(mag))
                                    for name, (mask, mag) in self.flags.items() if row(mask)),
        )


def closed_form(pairs, opts: FidelityOptions) -> ClosedForm:
    """Evaluate both closed-form paths, the base factor, the flags and every
    check for a sequence of pairs (s1, s2), elementwise, with the oracle's
    columns when opts.oracle (see `closed_form_columns`)."""
    table = np.array([(s1.k, s1.r, s1.beta, s2.k, s2.r, s2.beta) for s1, s2 in pairs],
                     dtype=complex).reshape(-1, 6).T  # an empty sequence gives empty columns
    # one contiguous array per column: k complex, r and beta real
    k1, r1, b1, k2, r2, b2 = (np.array(c if j % 3 == 0 else c.real) for j, c in enumerate(table))
    return closed_form_columns(k1, r1, b1, k2, r2, b2, opts)


def closed_form_columns(k1, r1, b1, k2, r2, b2, opts: FidelityOptions) -> ClosedForm:
    """`closed_form` on the pairs' parameters as arrays: the complex
    displacements k, squeeze factors r and inverse temperatures beta of
    states that StateParams accepted, one entry per row.

    The first refused row raises its first failing check, in this order: the
    squeeze gap, each squeeze factor (SqueezeGapError), a finite mismatch, a
    squeezed norm in double range, then the matrix-route checks (see
    _matrix_route).  Then, with opts.oracle, the oracle runs on each row's
    pair; its ValueError or ConvergenceError, like a refusal, carries its
    row's index as ``row``.  Its results join the batch: value_oracle is
    their fidelity clamped to [0, 1], and the oracle's two flags are set.
    """
    cf = _evaluate(k1, r1, b1, k2, r2, b2, opts.tol)
    refused = np.flatnonzero(cf.first_failure < len(cf.checks))
    if refused.size:
        err = cf.error(refused[0])
        err.row = int(refused[0])
        raise err
    if not opts.oracle:
        return cf
    results = []
    for row, (ka, ra, ba, kb, rb, bb) in enumerate(
            zip(*(np.ravel(c).tolist() for c in (k1, r1, b1, k2, r2, b2)))):
        try:
            results.append(fidelity_oracle(StateParams(ka, ra, ba), StateParams(kb, rb, bb),
                                           tol=opts.oracle_tol, ceiling=opts.oracle_ceiling))
        except (ValueError, ConvergenceError) as exc:
            exc.row = row
            raise
    value_oracle, amount = _clamp01(np.reshape([o.fidelity for o in results], np.shape(cf.g))[()])
    dev = np.abs(cf.value_matrix_pipeline - value_oracle)
    flags = {**cf.flags, "oracle-value-clamped": (amount > 0.0, amount),
             "pipeline-vs-oracle": (dev > max(opts.tol, ORACLE_AGREEMENT), dev)}
    return replace(cf, oracle=tuple(results), value_oracle=value_oracle, flags=flags)


# Out-of-range rows are refused by their checks (NaN fails each), not
# reported as numpy warnings.
@np.errstate(all="ignore")
def _evaluate(k1, r1, b1, k2, r2, b2, tol) -> ClosedForm:
    shape = np.shape(k1)
    # only the mismatch enters the fidelity: D(k1)^dag D(k2) is D(k2 - k1)
    # up to a phase, which cancels
    g = k2 - k1

    # pipeline scalars, all from one set of variables
    t1, t2, c1, c2, u1, u2, top, x, dp, lc1, ldd = _variables(r1, b1, r2, b2)
    lsh2 = _log_sinh(b2)
    n1, n2 = _squeezed_terms(g, r1), _squeezed_terms(g, r2)
    norms = 2.0 * (n1[0] + n1[1]), 2.0 * (n2[0] + n2[1])
    # delta1's exponent -sh(b2) norms[1]/2 (state 2 only), and its log magnitude
    lq1 = lsh2 + np.log(0.5 * norms[1])
    ld1 = -np.exp(lq1) + 0.0
    # The ratio's exponent, shared with the printed path (e = -2N here), is
    # (sh b1 sh^2(b2/2) e1 + sh^2(b1/2) sh b2 e2)/Delta = 2 u1 u2 (t2 e1 + t1 e2)/D';
    # each weight is <= 1/2, so no term overflows before the sum, and + 0.0
    # makes a vanishing one +0.0.
    w = 2.0 * (u1 * u2) / dp

    def log_ratio(e1, e2):
        return (w * t2) * e1 + (w * t1) * e2 + 0.0

    lratio = log_ratio(-norms[0], -norms[1])
    # delta2's exponent ld1 - lratio as two terms of one sign, so nothing cancels:
    # -2 t2 w N(2 r2 - r1) - sh(b2) N2 q with q = (2 u2^2 + t2^2 (2 u1^2 + X))/D'
    # in (0, 1]; w e^{-+2(r1 - r2)} <= 1 scales N2's terms to N(2 r2 - r1)'s
    m = n2[0] * (w * np.exp(2.0 * (r2 - r1))) + n2[1] * (w * np.exp(2.0 * (r1 - r2)))
    q = (2.0 * (u2 * u2) + (t2 * t2) * (2.0 * (u1 * u1) + x)) / dp
    ld2 = -2.0 * t2 * m - np.exp(lq1 + np.log(q)) + 0.0
    l0 = _multiplier(r1, r2, g, u1, u2, dp, lc1)
    root = top * _SQRT2 * np.sqrt(dp)  # sqrt(2 Delta)/(c1 c2); sqrt(2 D') can overflow
    residual, route_checks = _matrix_route(r1, r2, g, t1, t2, c1, c2, lsh2, ldd, root, ld1,
                                           lq1, lratio, l0)

    def trace(log1, log2, logr, **pipeline_only):  # the logs and their exponentials
        return ReductionTrace(np.exp(log1), np.exp(log2), np.exp(logr), log1, log2, logr,
                              **pipeline_only)

    pipeline = trace(ld1, ld2, lratio, l=l0, DeltaDenom=np.exp(ldd), log_DeltaDenom=ldd,
                     annihilation_residual=residual)
    pr_ld1, pr_coefficients = _printed_path(g, r1, r2, lsh2)
    pr_lratio = log_ratio(*pr_coefficients)
    # the printed delta2 is implied by the printed decomposition
    printed = trace(pr_ld1, pr_ld1 - pr_lratio, pr_lratio)

    sigma = (1.0 / c1) * (1.0 / c2)  # the base factor F0 (see base_factor)
    f0 = 4.0 * (u1 * u2) * (sigma + np.sqrt(sigma * sigma + 0.5 * dp * top * top)) / dp
    exact = np.where((r1 == r2) & (b1 == b2), 1.0, f0)
    y, printed_base = _printed_base(r1, b1, r2, b2)
    base = BaseFactorTrace(Y=y, base=exact, printed_value=printed_base)

    value_pipe, pipe_clamp = _clamp01(pipeline.ratio * exact)
    value_printed, printed_clamp = _clamp01(printed.ratio * printed_base)
    d1_dev = np.abs(pr_ld1 - ld1)
    ratio_dev = np.abs(printed.ratio - pipeline.ratio)
    # Comparison flags, in the order the printed path diverges from the
    # matrix pipeline: mismatch factor, then ratio, then base display; the
    # oracle's two, unset until it runs, come after the clamps.
    unset = np.zeros(shape, dtype=bool), np.zeros(shape)
    flags = {
        "printed-displacement-quadratic-form": (d1_dev > tol * np.maximum(1.0, np.abs(ld1)),
                                                d1_dev),
        "printed-ratio-quadratic-form": (ratio_dev > tol, ratio_dev),
        "printed-base-domain": (np.isnan(printed_base), np.full(shape, np.inf)),
        "printed-base-factor": (base.discrepancy > tol, base.discrepancy),
        "pipeline-value-clamped": (pipe_clamp > 0.0, pipe_clamp),
        "printed-value-clamped": (printed_clamp > 0.0, printed_clamp),
        "oracle-value-clamped": unset,
        "pipeline-vs-oracle": unset,
        "delta1-outside-float-range": (ld1 < _LOG_TINY, np.abs(ld1)),
        "delta2-outside-float-range": (ld2 < _LOG_TINY, np.abs(ld2)),
    }

    def gap_message(i):
        a, b = r1.item(i), r2.item(i)
        return (f"squeeze factors r1={a!r}, r2={b!r} differ by {abs(a - b):g}; "
                f"cosh 2(r1 - r2) leaves double range beyond |r1 - r2| = "
                f"{0.5 * _EXP_MAX:g}")

    def squeeze_message(r):
        return lambda i: (f"squeeze factor r={r.item(i)!r}: the squeeze coefficients "
                          f"exp(2|r|) leave double range beyond |r| = {0.5 * _EXP_MAX:g}")

    input_checks = [
        ("squeeze-gap", SqueezeGapError, np.abs(2.0 * (r1 - r2)) > _EXP_MAX, gap_message),
        ("squeeze-factor-2", SqueezeGapError, np.abs(2.0 * r2) > _EXP_MAX, squeeze_message(r2)),
        ("squeeze-factor-1", SqueezeGapError, np.abs(2.0 * r1) > _EXP_MAX, squeeze_message(r1)),
        ("finite-mismatch", ValueError, ~np.isfinite(g),
         lambda i: f"g must be finite, got {g.item(i)!r}"),
        ("mismatch-range", ValueError, ~(np.isfinite(norms[0]) & np.isfinite(norms[1])),
         lambda i: f"displacement mismatch g={g.item(i)!r}: its squeezed norm "
                   "2((Re g)^2 e^(2r) + (Im g)^2 e^(-2r)) leaves double range"),
    ]
    checks = input_checks + route_checks
    failed = np.array([mask for _, _, mask, _ in checks])
    first = np.where(failed.any(axis=0), failed.argmax(axis=0), len(checks))
    return ClosedForm(
        g=g, value_matrix_pipeline=value_pipe, value_printed=value_printed,
        pipeline=pipeline, printed=printed, base=base, flags=flags,
        checks=tuple((name, kind, message) for name, kind, _, message in checks),
        first_failure=first,
    )


# ---------------------------------------------------------------------------
# one pair: a batch of one
# ---------------------------------------------------------------------------


def _pair(s1: StateParams, s2: StateParams, opts: FidelityOptions) -> ClosedForm:
    """`closed_form_columns` on a batch of one.  It runs the batch code on
    numpy scalars rather than one-element arrays, which numpy evaluates
    several times faster per operation and rounds alike (the complex products
    are written in real arithmetic for this)."""
    return closed_form_columns(np.complex128(s1.k), np.float64(s1.r), np.float64(s1.beta),
                               np.complex128(s2.k), np.float64(s2.r), np.float64(s2.beta), opts)


def base_factor(s1: StateParams, s2: StateParams) -> BaseFactorTrace:
    """Fidelity of the undisplaced pair, exact and printed side by side.

    The exact value is the single-mode Gaussian fidelity (Twamley 1996)
    written in the matching denominator Delta = -det(P)/2:

        F0 = 4 sinh(b1/2) sinh(b2/2) (1 + sqrt(1 + Delta/2)) / Delta,

    the covariance form 2/(sqrt(Delta_V + delta_V) - sqrt(delta_V))
    rationalised, and divided through by (c1 c2 T)^2 (see _variables):
    4 u1 u2 (sigma + sqrt(sigma^2 + T^2 D'/2))/D' with sigma = sech(b1/2)
    sech(b2/2), so no term cancels or overflows.  Identical (r, beta) give
    exactly 1.  The printed display is evaluated verbatim and the gap between
    the two is exposed, not hidden.
    """
    return _pair(StateParams(0.0, s1.r, s1.beta), StateParams(0.0, s2.r, s2.beta),
                 _NO_ORACLE).report(0).base


def fidelity(
    s1: StateParams, s2: StateParams, opts: FidelityOptions | None = None
) -> FidelityReport:
    """Full three-way fidelity report for a pair of states.

    value_matrix_pipeline = exp(the pipeline's closed-form log ratio) times
    the exact base factor; value_printed is the fully
    verbatim printed path (printed ratio times printed base); value_oracle is
    the adaptive-cutoff brute-force fidelity (None only when disabled).
    Every mismatch beyond opts.tol is flagged by name, in pipeline order, and
    out-of-range values are clamped loudly, never silently.  It is
    `closed_form` on a batch of one: a refused pair raises its first failing
    check before the oracle runs.
    """
    return _pair(s1, s2, opts or FidelityOptions()).report(0)

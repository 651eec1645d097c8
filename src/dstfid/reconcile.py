"""Printed-formula reconciliation and grid verification.

Runs the standard parameter grids three ways (matrix pipeline, printed
formulas, Fock oracle), checks the quantitative acceptance thresholds, and
produces a per-formula verdict for every printed display suspected of a
transcription error.  Verdicts are earned numerically: a display is
"typo-confirmed" only when it deviates from the matrix pipeline beyond
tolerance *and* the matrix pipeline itself passes the oracle checks, so the
report never rests on one path's say-so.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import StateParams, squeeze_matrix, state, thermal_matrix
from .fock import fidelity_oracle
from . import reduction as _red
from .reduction import FidelityOptions, FidelityReport, fidelity

__all__ = [
    "QUADRATIC_FORM",
    "MATCHING_DISPLAY",
    "DENOMINATOR",
    "RATIO_FORM",
    "OVERLAP_ARGUMENT",
    "OVERLAP_PREFACTOR",
    "DIFFERENCE_CONVENTION",
    "ALL_FORMULAS",
    "ReconciliationEntry",
    "VerificationCheck",
    "ReconciliationReport",
    "PairResult",
    "self_grid",
    "pair_grid",
    "undisplaced_pair_grid",
    "evaluate_pairs",
    "run_verification",
]

# Descriptive identifiers for the printed displays under reconciliation.
QUADRATIC_FORM = "displacement-quadratic-form"
MATCHING_DISPLAY = "matching-matrix-display"
DENOMINATOR = "denominator-determinant"
RATIO_FORM = "ratio-quadratic-form"
OVERLAP_ARGUMENT = "base-overlap-argument"
OVERLAP_PREFACTOR = "base-overlap-prefactor"
DIFFERENCE_CONVENTION = "displacement-difference-convention"

ALL_FORMULAS = (
    DIFFERENCE_CONVENTION,
    QUADRATIC_FORM,
    MATCHING_DISPLAY,
    DENOMINATOR,
    RATIO_FORM,
    OVERLAP_ARGUMENT,
    OVERLAP_PREFACTOR,
)


@dataclass(frozen=True)
class ReconciliationEntry:
    formula: str
    max_abs_deviation: float
    worst_params: str
    verdict: str  # "consistent" | "typo-confirmed" | "inconclusive"
    note: str

    def as_dict(self) -> dict:
        return {
            "formula": self.formula,
            "max_abs_deviation": self.max_abs_deviation,
            "worst_params": self.worst_params,
            "verdict": self.verdict,
            "note": self.note,
        }


@dataclass(frozen=True)
class VerificationCheck:
    name: str
    worst: float
    threshold: float
    passed: bool
    detail: str = ""

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "worst": self.worst,
            "threshold": self.threshold,
            "passed": self.passed,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class ReconciliationReport:
    entries: tuple[ReconciliationEntry, ...]
    checks: tuple[VerificationCheck, ...]
    preset: str
    pair_points: int
    self_points: int

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def entry(self, formula: str) -> ReconciliationEntry:
        for e in self.entries:
            if e.formula == formula:
                return e
        raise KeyError(formula)

    def as_dict(self) -> dict:
        return {
            "preset": self.preset,
            "pair_points": self.pair_points,
            "self_points": self.self_points,
            "passed": self.passed,
            "checks": [c.as_dict() for c in self.checks],
            "entries": [e.as_dict() for e in self.entries],
        }


@dataclass(frozen=True, eq=False)
class PairResult:
    """One grid pair with its three-way report and derived deviations.

    ``undisplaced_oracle`` is the oracle fidelity of the same pair with the
    displacements dropped (None when the oracle was off).
    """

    s1: StateParams
    s2: StateParams
    report: FidelityReport
    undisplaced_oracle: float | None = None

    @property
    def pipeline_vs_oracle(self) -> float:
        return abs(self.report.value_matrix_pipeline - self.report.value_oracle)

    @property
    def decomposition_dev(self) -> float:
        """|oracle F(displaced)/F(undisplaced) - pipeline ratio|."""
        return abs(
            self.report.value_oracle / self.undisplaced_oracle
            - self.report.pipeline.ratio
        )


def _fmt_state(s: StateParams) -> str:
    return f"k={s.k.real:g}{s.k.imag:+g}i r={s.r:g} nbar={s.nbar:.6g}"


def _fmt_pair(s1: StateParams, s2: StateParams) -> str:
    return f"({_fmt_state(s1)}) vs ({_fmt_state(s2)})"


# ---------------------------------------------------------------------------
# standard grids
# ---------------------------------------------------------------------------

_SELF_KS = (0.0 + 0.0j, 0.5 + 0.0j, 0.3 + 0.4j)
_SELF_RS = (0.0, 0.3, 0.8)
_SELF_NBARS = (0.1, 0.5, 2.0)

_PAIR_GS = (0.2 + 0.0j, 0.5 + 0.3j, 1.0 + 0.0j)
_PAIR_RS = (0.0, 0.4, 0.9)
# Ordered pairs of mean photon numbers drawn from {0.2, 1.0, 2.0}: three
# combinations covering unequal-both-ways and the hot-vs-cold extremes.
_NBAR_PAIRS = ((0.2, 1.0), (1.0, 2.0), (2.0, 0.2))


def self_grid(quick: bool = False) -> list[StateParams]:
    """27-point self-fidelity grid (6 points in quick mode)."""
    pts = [
        state(k, r, nbar=n)
        for k in _SELF_KS
        for r in _SELF_RS
        for n in _SELF_NBARS
    ]
    if quick:
        return pts[::5][:6]
    return pts


def pair_grid(quick: bool = False) -> list[tuple[StateParams, StateParams]]:
    """81-point oracle-equivalence grid (8 points in quick mode).

    The displacement mismatch g is realized as k1 = 0, k2 = g; the
    shift-covariance property makes any other anchoring equivalent.
    """
    pairs = [
        (state(0.0, r1, nbar=n1), state(g, r2, nbar=n2))
        for g in _PAIR_GS
        for r1 in _PAIR_RS
        for r2 in _PAIR_RS
        for (n1, n2) in _NBAR_PAIRS
    ]
    if quick:
        return pairs[::11][:8]
    return pairs


def undisplaced_pair_grid() -> list[tuple[StateParams, StateParams]]:
    """Same-displacement pairs (g = 0) with differing squeeze/temperature."""
    out = []
    for k in _SELF_KS:
        out.append((state(k, 0.0, nbar=0.1), state(k, 0.3, nbar=0.5)))
        out.append((state(k, 0.3, nbar=0.5), state(k, 0.8, nbar=2.0)))
        out.append((state(k, 0.8, nbar=0.1), state(k, 0.0, nbar=2.0)))
    return out


def evaluate_pairs(
    pairs: list[tuple[StateParams, StateParams]], opts: FidelityOptions
) -> list[PairResult]:
    """Evaluate every pair three ways.  With the oracle on, each result also
    carries the oracle fidelity of its undisplaced pair, run once per
    distinct undisplaced (r, beta) pair."""
    undisplaced: dict[tuple, float] = {}
    results = []
    for s1, s2 in pairs:
        f0 = None
        if opts.oracle:
            key = tuple(sorted(((s1.r, s1.beta), (s2.r, s2.beta))))
            if key not in undisplaced:
                (ra, ba), (rb, bb) = key
                undisplaced[key] = fidelity_oracle(
                    StateParams(0.0, ra, ba),
                    StateParams(0.0, rb, bb),
                    tol=opts.oracle_tol,
                    ceiling=opts.oracle_ceiling,
                ).fidelity
            f0 = undisplaced[key]
        results.append(PairResult(s1, s2, fidelity(s1, s2, opts), f0))
    return results


# ---------------------------------------------------------------------------
# per-formula reconciliation entries
# ---------------------------------------------------------------------------


def _worst(devs: list[tuple[float, str]]) -> tuple[float, str]:
    if not devs:
        return 0.0, ""
    return max(devs, key=lambda t: t[0])


def _entry_difference_convention(tol: float) -> tuple[ReconciliationEntry, VerificationCheck]:
    """Adjudicate g = k2 - k1 against the printed k2 - conj(k1)."""
    s1 = state(0.3j, 0.3, nbar=0.5)
    s2 = state(0.3j, 0.3, nbar=0.5)
    rep = fidelity(s1, s2, FidelityOptions(oracle_tol=tol))
    correct_dev = abs(rep.value_matrix_pipeline - rep.value_oracle)
    # Same pair evaluated under the printed convention.
    g_flip = s2.k - s1.k.conjugate()
    flip_trace = _red._pipeline_trace(s1, s2, g_flip)
    value_flip = flip_trace.ratio * rep.base.base
    margin = abs(value_flip - rep.value_oracle)
    entry = ReconciliationEntry(
        formula=DIFFERENCE_CONVENTION,
        max_abs_deviation=margin,
        worst_params=_fmt_pair(s1, s2),
        verdict="typo-confirmed",
        note=(
            "equal displacements must give unit fidelity, and the oracle "
            f"does (pipeline dev {correct_dev:.3e}); the printed difference "
            "k2 - conj(k1) is nonzero here and drops the fidelity by "
            f"{margin:.6f}, far past the 1e-3 adjudication margin"
        ),
    )
    check = VerificationCheck(
        name="difference-convention-margin",
        worst=margin,
        threshold=1e-3,
        passed=bool(margin > 1e-3 and correct_dev <= 1e-6),
        detail="printed-convention fidelity error must exceed 1e-3 while the "
        f"adopted convention stays within 1e-6 (it is at {correct_dev:.3e})",
    )
    return entry, check


def _entry_quadratic_form(results: list[PairResult]) -> ReconciliationEntry:
    devs = []
    flips = []
    for pr in results:
        dev = abs(pr.report.printed.log_delta1 - pr.report.pipeline.log_delta1)
        devs.append((dev, _fmt_pair(pr.s1, pr.s2)))
        s2f = StateParams(pr.s2.k, -pr.s2.r, pr.s2.beta)
        flip = abs(
            pr.report.printed.log_delta1 - _red._delta1_log_scalar(s2f, pr.report.g)
        )
        flips.append(flip)
    worst, at = _worst(devs)
    return ReconciliationEntry(
        formula=QUADRATIC_FORM,
        max_abs_deviation=worst,
        worst_params=at,
        verdict="typo-confirmed" if worst > 1e-8 else "consistent",
        note=(
            "printed quadratic form equals the pipeline one with the squeeze "
            f"sign reversed (flip residual <= {max(flips):.3e}); the sign "
            "itself is fixed by the Fock conjugation rule, which the pipeline "
            "matches and the print does not"
        ),
    )


def _entry_matching_display(results: list[PairResult]) -> ReconciliationEntry:
    """Printed solve-ready matrix vs the definition line printed beside it."""
    def_devs = []
    rel_devs = []
    for pr in results:
        s1, s2 = pr.s1, pr.s2
        printed = pr.report.printed.P
        system = pr.report.pipeline.P
        dd = pr.report.pipeline.DeltaDenom
        # The definition line beside the display: printed squeeze convention
        # and a bare B1 where the matching condition has B1^(-1/2).
        m1p = squeeze_matrix(s1.r)
        m2invp = squeeze_matrix(-s2.r)
        core = m2invp @ m1p
        defn = (
            thermal_matrix(s2.beta, -0.5) @ core @ thermal_matrix(s1.beta, 1.0)
            - thermal_matrix(s2.beta, 0.5) @ core @ thermal_matrix(s1.beta, 0.5)
        )
        def_devs.append(
            (float(np.abs(printed - defn).max()), _fmt_pair(s1, s2))
        )
        rel_devs.append(float(np.abs(system - 2.0 * dd * printed).max()))
    worst, at = _worst(def_devs)
    return ReconciliationEntry(
        formula=MATCHING_DISPLAY,
        max_abs_deviation=worst,
        worst_params=at,
        verdict="typo-confirmed" if worst > 1e-8 else "consistent",
        note=(
            "the printed display does not equal its own definition line "
            "(which also carries a bare B1 where the matching condition has "
            "B1^(-1/2)); the true relation, exact on the whole grid, is "
            "system = 2*Delta*(printed display), equivalently printed = "
            f"inverse(system) since system^2 = 2*Delta*identity "
            f"(residual <= {max(rel_devs):.3e})"
        ),
    )


def _entry_denominator(results: list[PairResult]) -> ReconciliationEntry:
    devs = []
    for pr in results:
        system = pr.report.pipeline.P
        dd = pr.report.pipeline.DeltaDenom
        det = complex(system[0, 0] * system[1, 1] - system[0, 1] * system[1, 0])
        devs.append((abs(det + 2.0 * dd) / (2.0 * dd), _fmt_pair(pr.s1, pr.s2)))
    worst, at = _worst(devs)
    return ReconciliationEntry(
        formula=DENOMINATOR,
        max_abs_deviation=worst,
        worst_params=at,
        verdict="consistent" if worst <= 1e-10 else "inconclusive",
        note=(
            "det(matching system) = -2*Delta holds to machine precision, so "
            "the printed denominator is the right invariant of the system"
        ),
    )


def _entry_ratio_form(results: list[PairResult]) -> ReconciliationEntry:
    devs = []
    flips = []
    for pr in results:
        dev = abs(pr.report.printed.log_ratio - pr.report.pipeline.log_ratio)
        devs.append((dev, _fmt_pair(pr.s1, pr.s2)))
        s1f = StateParams(pr.s1.k, -pr.s1.r, pr.s1.beta)
        s2f = StateParams(pr.s2.k, -pr.s2.r, pr.s2.beta)
        # flipping both squeezes leaves r1 - r2, and so the denominator, alone
        ldd = _red._log_delta_denom(pr.s1.beta, pr.s2.beta, pr.s1.r, pr.s2.r)
        flip = abs(
            pr.report.printed.log_ratio
            - _red._ratio_log_scalar(s1f, s2f, pr.report.g, ldd)
        )
        flips.append(flip)
    worst, at = _worst(devs)
    return ReconciliationEntry(
        formula=RATIO_FORM,
        max_abs_deviation=worst,
        worst_params=at,
        verdict="typo-confirmed" if worst > 1e-8 else "consistent",
        note=(
            "printed exponent (eps1 + eps2)/Delta equals the pipeline ratio "
            f"with both squeeze signs reversed (flip residual <= "
            f"{max(flips):.3e}): same single convention slip as the "
            "quadratic form, invisible wherever Re(g^2)*sinh(2r) = 0"
        ),
    )


def _entry_overlap_argument() -> ReconciliationEntry:
    """Self-pair r-slice: the true base is constant 1, so any r-dependence of
    the printed value is the argument's own error, prefactor-independent."""
    beta = math.log(3.0)  # nbar = 0.5
    devs = []
    vals = []
    for r in (0.0, 0.4, 0.9):
        s = state(0.0, r, beta=beta)
        _, printed, _ = _red._printed_base(s, s)
        vals.append((r, printed))
    base0 = vals[0][1]
    for r, v in vals[1:]:
        devs.append((abs(v - base0), f"self pair r={r:g} beta={beta:.6g}"))
    worst, at = _worst(devs)
    return ReconciliationEntry(
        formula=OVERLAP_ARGUMENT,
        max_abs_deviation=worst,
        worst_params=at,
        verdict="typo-confirmed" if worst > 1e-8 else "consistent",
        note=(
            "a state's fidelity with itself is 1 for every squeeze, yet the "
            "printed argument makes the self-pair value vary with r "
            f"({', '.join(f'r={r:g}: {v:.6f}' for r, v in vals)}); no "
            "prefactor can repair an argument with spurious r-dependence "
            "(its two cosh^2(r1+r2) terms and missing sinh^2 term are the "
            "structural suspects)"
        ),
    )


def _entry_overlap_prefactor() -> ReconciliationEntry:
    """Thermal self-pairs: squeeze terms drop out of the argument, so the
    remaining self-pair error is the prefactor/normalization's."""
    devs = []
    vals = []
    for nbar in (0.2, 1.0, 2.0):
        s = state(0.0, 0.0, nbar=nbar)
        _, printed, _ = _red._printed_base(s, s)
        devs.append((abs(printed - 1.0), f"thermal self pair nbar={nbar:g}"))
        vals.append((nbar, printed))
    s_cold = state(0.0, 0.0, nbar=1e-6)
    _, printed_cold, _ = _red._printed_base(s_cold, s_cold)
    worst, at = _worst(devs)
    return ReconciliationEntry(
        formula=OVERLAP_PREFACTOR,
        max_abs_deviation=worst,
        worst_params=at,
        verdict="typo-confirmed" if worst > 1e-8 else "consistent",
        note=(
            "thermal self-pairs should give exactly 1 but the printed value "
            f"is {', '.join(f'nbar={n:g}: {v:.6f}' for n, v in vals)} and "
            f"diverges toward the pure limit ({printed_cold:.4f} at "
            "nbar=1e-6), so the error is not a constant normalization "
            "convention; the exact base factor sidesteps the display "
            "entirely"
        ),
    )


# ---------------------------------------------------------------------------
# verification driver
# ---------------------------------------------------------------------------


def run_verification(
    preset: str = "full",
    tol: float = 1e-8,
    ceiling: int = 512,
) -> ReconciliationReport:
    """Run the standard grids three ways and build the reconciliation report.

    preset "full" is the acceptance grid (81 pairs + 27 self points);
    "quick" is a subsample for smoke testing.  Exit semantics live in the
    CLI; here the report's ``passed`` summarizes the threshold checks.
    """
    if preset not in ("full", "quick"):
        raise ValueError(f"unknown verification preset {preset!r}")
    quick = preset == "quick"
    opts = FidelityOptions(oracle_tol=tol, oracle_ceiling=ceiling)
    checks: list[VerificationCheck] = []

    # Self-fidelity grid.
    self_devs_pipe: list[tuple[float, str]] = []
    self_devs_oracle: list[tuple[float, str]] = []
    for s in self_grid(quick=quick):
        rep = fidelity(s, s, opts)
        self_devs_pipe.append((abs(rep.value_matrix_pipeline - 1.0), _fmt_state(s)))
        self_devs_oracle.append((abs(rep.value_oracle - 1.0), _fmt_state(s)))
    worst, at = _worst(self_devs_pipe)
    checks.append(
        VerificationCheck(
            "self-fidelity-pipeline", worst, 1e-9, worst <= 1e-9, f"worst at {at}"
        )
    )
    worst, at = _worst(self_devs_oracle)
    checks.append(
        VerificationCheck(
            "self-fidelity-oracle", worst, 1e-8, worst <= 1e-8, f"worst at {at}"
        )
    )

    # Equal-displacement subgrid: the ratio must be exactly 1 in log form.
    ratio_exact = True
    worst_ratio = 0.0
    at = ""
    g0_grid = undisplaced_pair_grid()
    if quick:
        g0_grid = g0_grid[::3]
    for s1, s2 in g0_grid:
        rep = fidelity(s1, s2, FidelityOptions(oracle=False))
        dev = abs(rep.pipeline.ratio - 1.0)
        if rep.pipeline.ratio != 1.0:
            ratio_exact = False
        if dev >= worst_ratio:
            worst_ratio, at = dev, _fmt_pair(s1, s2)
    checks.append(
        VerificationCheck(
            "equal-displacement-ratio-exact",
            worst_ratio,
            0.0,
            ratio_exact,
            f"ratio must equal 1.0 bit-exactly; worst at {at}" if at else "",
        )
    )

    # Main pair grid, three ways.
    results = evaluate_pairs(pair_grid(quick=quick), opts)
    devs = [(pr.pipeline_vs_oracle, _fmt_pair(pr.s1, pr.s2)) for pr in results]
    worst, at = _worst(devs)
    checks.append(
        VerificationCheck(
            "pipeline-vs-oracle", worst, 1e-6, worst <= 1e-6, f"worst at {at}"
        )
    )
    devs = [(pr.decomposition_dev, _fmt_pair(pr.s1, pr.s2)) for pr in results]
    worst, at = _worst(devs)
    checks.append(
        VerificationCheck(
            "decomposition-identity", worst, 1e-6, worst <= 1e-6, f"worst at {at}"
        )
    )
    resid_devs = [
        (pr.report.pipeline.annihilation_residual or 0.0, _fmt_pair(pr.s1, pr.s2))
        for pr in results
    ]
    worst, at = _worst(resid_devs)
    checks.append(
        VerificationCheck(
            "annihilation-residual", worst, 1e-10, worst <= 1e-10, f"worst at {at}"
        )
    )

    # Coherent pure-state limit.
    limit_devs: list[tuple[float, str]] = []
    for k2 in (0.5, 1.0):
        s1 = state(0.0, 0.0, nbar=1e-6)
        s2 = state(k2, 0.0, nbar=1e-6)
        rep = fidelity(s1, s2, opts)
        want = math.exp(-k2 * k2)
        printed_ratio_exact_base = rep.printed.ratio * rep.base.base
        for label, val in (
            ("pipeline", rep.value_matrix_pipeline),
            ("oracle", rep.value_oracle),
            ("printed-ratio-exact-base", printed_ratio_exact_base),
        ):
            limit_devs.append((abs(val - want), f"k2={k2:g} [{label}]"))
    worst, at = _worst(limit_devs)
    checks.append(
        VerificationCheck(
            "coherent-limit", worst, 1e-4, worst <= 1e-4, f"worst at {at}"
        )
    )

    conv_entry, conv_check = _entry_difference_convention(tol)
    checks.append(conv_check)

    entries = (
        conv_entry,
        _entry_quadratic_form(results),
        _entry_matching_display(results),
        _entry_denominator(results),
        _entry_ratio_form(results),
        _entry_overlap_argument(),
        _entry_overlap_prefactor(),
    )
    return ReconciliationReport(
        entries=entries,
        checks=tuple(checks),
        preset=preset,
        pair_points=len(results),
        self_points=len(self_devs_pipe),
    )

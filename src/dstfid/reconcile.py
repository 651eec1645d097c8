"""Printed-formula reconciliation and grid verification.

Runs the standard parameter grids three ways (matrix pipeline, printed
formulas, Fock oracle), checks the quantitative acceptance thresholds, and
produces a per-formula verdict for every printed display suspected of a
transcription error.  Verdicts are earned numerically: a display is
"typo-confirmed" only when it deviates from the matrix pipeline beyond
tolerance *and* the matrix pipeline itself passes the oracle checks, so the
report never rests on one path's say-so.  Each grid is one `closed_form`
batch, which runs the oracle per pair and carries its results as columns.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .algebra import StateParams, squeeze_matrix, state, thermal_matrix
from .reduction import _NO_ORACLE, ORACLE_AGREEMENT, ClosedForm, FidelityOptions, closed_form
from .reduction import _printed_display, _sci

__all__ = [
    "QUADRATIC_FORM",
    "MATCHING_DISPLAY",
    "DENOMINATOR",
    "RATIO_FORM",
    "OVERLAP_ARGUMENT",
    "OVERLAP_PREFACTOR",
    "DIFFERENCE_CONVENTION",
    "VERIFY_CEILING",
    "PRESETS",
    "ReconciliationEntry",
    "VerificationCheck",
    "ReconciliationReport",
    "self_grid",
    "pair_grid",
    "undisplaced_pair_grid",
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

# The verification run's cutoff ceiling, the A3 grid's.
VERIFY_CEILING = 512
# The verification presets: the acceptance grid and its smoke-test subsample.
PRESETS = ("full", "quick")


@dataclass(frozen=True)
class ReconciliationEntry:
    formula: str
    max_abs_deviation: float
    worst_params: str
    verdict: str  # "consistent" | "typo-confirmed" | "inconclusive"
    note: str


@dataclass(frozen=True)
class VerificationCheck:
    name: str
    worst: float
    threshold: float
    passed: bool
    detail: str = ""


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


def self_grid() -> list[StateParams]:
    """27-point self-fidelity grid."""
    return [
        state(k, r, nbar=n)
        for k in _SELF_KS
        for r in _SELF_RS
        for n in _SELF_NBARS
    ]


def pair_grid() -> list[tuple[StateParams, StateParams]]:
    """81-point oracle-equivalence grid.

    The displacement mismatch g is realized as k1 = 0, k2 = g; the
    shift-covariance property makes any other anchoring equivalent.
    """
    return [
        (state(0.0, r1, nbar=n1), state(g, r2, nbar=n2))
        for g in _PAIR_GS
        for r1 in _PAIR_RS
        for r2 in _PAIR_RS
        for (n1, n2) in _NBAR_PAIRS
    ]


def undisplaced_pair_grid() -> list[tuple[StateParams, StateParams]]:
    """Same-displacement pairs (g = 0) with differing squeeze/temperature."""
    out = []
    for k in _SELF_KS:
        out.append((state(k, 0.0, nbar=0.1), state(k, 0.3, nbar=0.5)))
        out.append((state(k, 0.3, nbar=0.5), state(k, 0.8, nbar=2.0)))
        out.append((state(k, 0.8, nbar=0.1), state(k, 0.0, nbar=2.0)))
    return out


# ---------------------------------------------------------------------------
# threshold checks and per-formula reconciliation entries
# ---------------------------------------------------------------------------


def _worst(devs, labels: list[str]) -> tuple[float, str]:
    """(the largest deviation, the label of its first occurrence); a NaN
    deviation counts as the largest."""
    i = int(np.argmax(devs))
    return float(devs[i]), labels[i]


def _bound(name: str, devs, labels: list[str], threshold: float) -> VerificationCheck:
    """The check that every deviation is within threshold (a NaN one fails)."""
    worst, at = _worst(devs, labels)
    passed = bool(np.all(np.asarray(devs) <= threshold))
    return VerificationCheck(name, worst, threshold, passed, f"worst at {at}")


def _verdict(worst: float) -> str:
    return "typo-confirmed" if worst > 1e-8 else "consistent"


def _entry(
    formula: str, devs, labels: list[str], note: str, verdict=_verdict
) -> ReconciliationEntry:
    """The entry for a printed display: its worst deviation, where, and the
    verdict on it."""
    worst, at = _worst(devs, labels)
    return ReconciliationEntry(formula, worst, at, verdict(worst), note)


def _entry_difference_convention(
    oracle_batch: Callable[[list], ClosedForm],
) -> tuple[ReconciliationEntry, VerificationCheck]:
    """Adjudicate g = k2 - k1 against the printed k2 - conj(k1), the oracle
    in the run's batch (at its tolerance and ceiling)."""
    s = state(0.3j, 0.3, nbar=0.5)
    cf = oracle_batch([(s, s)])
    correct_dev = cf.flags["pipeline-vs-oracle"][1].item()
    # Same pair evaluated under the printed convention.
    g_flip = s.k - s.k.conjugate()
    flip = closed_form([(StateParams(0.0, s.r, s.beta), StateParams(g_flip, s.r, s.beta))],
                       _NO_ORACLE)
    margin = abs(flip.pipeline.ratio * cf.base.base - cf.value_oracle).item()
    entry = _entry(
        DIFFERENCE_CONVENTION, [margin], [_fmt_pair(s, s)],
        "equal displacements must give unit fidelity, and the oracle "
        f"does (pipeline dev {correct_dev:.3e}); the printed difference "
        "k2 - conj(k1) is nonzero here and drops the fidelity by "
        f"{margin:.6f}, far past the 1e-3 adjudication margin",
    )
    return entry, VerificationCheck(
        "difference-convention-margin", margin, 1e-3,
        bool(margin > 1e-3 and correct_dev <= ORACLE_AGREEMENT),
        "printed-convention fidelity error must exceed 1e-3 while the adopted "
        f"convention stays within {_sci(ORACLE_AGREEMENT)} (it is at {correct_dev:.3e})",
    )


def _flipped(s: StateParams) -> StateParams:
    return StateParams(s.k, -s.r, s.beta)


def _entry_flipped_sign(
    formula: str, field: str, cf: ClosedForm, flipped: ClosedForm, labels: list[str], note: str
) -> ReconciliationEntry:
    """A printed exponent (trace field `field`) against the pipeline's; the
    note's {} takes its residual against `flipped`'s pipeline, the same pairs
    with both squeeze signs reversed."""
    printed, pipeline = getattr(cf.printed, field), getattr(cf.pipeline, field)
    residual = np.abs(printed - getattr(flipped.pipeline, field)).max()
    return _entry(formula, np.abs(printed - pipeline), labels, note.format(residual))


def _matching_matrices(s1: StateParams, s2: StateParams) -> tuple[np.ndarray, np.ndarray]:
    """B2^(-1/2) C B1^(p) - B2^(1/2) C B1^(1/2) of the pair twice: the matching
    system by its definition (C = squeeze_matrix(r2 - r1), p = -1/2), and the
    definition line printed beside its display (printed squeeze sign, p = 1)."""

    def difference(core, p):
        return (thermal_matrix(s2.beta, -0.5) @ core @ thermal_matrix(s1.beta, p)
                - thermal_matrix(s2.beta, 0.5) @ core @ thermal_matrix(s1.beta, 0.5))

    return (difference(squeeze_matrix(s2.r - s1.r), -0.5),
            difference(squeeze_matrix(-s2.r) @ squeeze_matrix(s1.r), 1.0))


def _entries_matching_system(
    pairs: list[tuple[StateParams, StateParams]], cf: ClosedForm, labels: list[str]
) -> tuple[ReconciliationEntry, ReconciliationEntry]:
    """The printed solve-ready matrix against the definition line printed
    beside it, and the pipeline's closed-form denominator against
    det(matching system), the system built from its definition."""
    def_devs, rel_devs, det_devs = [], [], []
    for (s1, s2), dd, ldd in zip(pairs, cf.pipeline.DeltaDenom.tolist(),
                                 cf.pipeline.log_DeltaDenom.tolist()):
        printed = _printed_display(s1.r, s1.beta, s2.r, s2.beta, ldd)
        system, defn = _matching_matrices(s1, s2)
        def_devs.append(float(np.abs(printed - defn).max()))
        rel_devs.append(float(np.abs(system - 2.0 * dd * printed).max()))
        det = complex(system[0, 0] * system[1, 1] - system[0, 1] * system[1, 0])
        det_devs.append(abs(det + 2.0 * dd) / (2.0 * dd))
    matching = _entry(
        MATCHING_DISPLAY, def_devs, labels,
        "the printed display does not equal its own definition line "
        "(which also carries a bare B1 where the matching condition has "
        "B1^(-1/2)); the true relation, exact on the whole grid, is "
        "system = 2*Delta*(printed display), equivalently printed = "
        f"inverse(system) since system^2 = 2*Delta*identity "
        f"(residual <= {max(rel_devs):.3e})",
    )
    return matching, _entry(
        DENOMINATOR, det_devs, labels,
        "det(matching system) = -2*Delta holds to machine precision, so "
        "the printed denominator is the right invariant of the system",
        verdict=lambda worst: "consistent" if worst <= 1e-10 else "inconclusive",
    )


def _entries_overlap() -> tuple[ReconciliationEntry, ReconciliationEntry]:
    """The printed base display on self pairs, whose true base is 1, as one
    batch.  On an r-slice at fixed beta any r-dependence of the printed value
    is the argument's own error, prefactor-independent; on thermal self pairs
    the squeeze terms drop out of the argument, so the remaining error is the
    prefactor/normalization's."""
    beta = math.log(3.0)  # nbar = 0.5
    rs, nbars = (0.0, 0.4, 0.9), (0.2, 1.0, 2.0)
    selfs = ([state(0.0, r, beta=beta) for r in rs]
             + [state(0.0, 0.0, nbar=nbar) for nbar in (*nbars, 1e-6)])
    printed = closed_form([(s, s) for s in selfs], _NO_ORACLE).base.printed_value.tolist()
    by_r, by_nbar, printed_cold = printed[:3], printed[3:6], printed[6]
    argument = _entry(
        OVERLAP_ARGUMENT, [abs(v - by_r[0]) for v in by_r[1:]],
        [f"self pair r={r:g} beta={beta:.6g}" for r in rs[1:]],
        "a state's fidelity with itself is 1 for every squeeze, yet the "
        "printed argument makes the self-pair value vary with r "
        f"({', '.join(f'r={r:g}: {v:.6f}' for r, v in zip(rs, by_r))}); no "
        "prefactor can repair an argument with spurious r-dependence "
        "(its two cosh^2(r1+r2) terms and missing sinh^2 term are the "
        "structural suspects)",
    )
    prefactor = _entry(
        OVERLAP_PREFACTOR, [abs(v - 1.0) for v in by_nbar],
        [f"thermal self pair nbar={nbar:g}" for nbar in nbars],
        "thermal self-pairs should give exactly 1 but the printed value "
        f"is {', '.join(f'nbar={n:g}: {v:.6f}' for n, v in zip(nbars, by_nbar))} and "
        f"diverges toward the pure limit ({printed_cold:.4f} at "
        "nbar=1e-6), so the error is not a constant normalization "
        "convention; the exact base factor sidesteps the display "
        "entirely",
    )
    return argument, prefactor


# ---------------------------------------------------------------------------
# verification driver
# ---------------------------------------------------------------------------


def run_verification(
    preset: str = "full",
    tol: float = FidelityOptions.oracle_tol,
    ceiling: int = VERIFY_CEILING,
) -> ReconciliationReport:
    """Run the standard grids three ways and build the reconciliation report.

    preset "full" is the acceptance grid (81 pairs + 27 self points);
    "quick", for smoke testing, takes every 5th self point, every 3rd
    undisplaced pair and every 11th pair, each grid sliced here.  Exit
    semantics live in the CLI; here the report's ``passed`` summarizes the
    threshold checks.
    """
    if preset not in PRESETS:
        raise ValueError(f"unknown verification preset {preset!r}")
    quick = preset == "quick"
    opts = FidelityOptions(oracle_tol=tol, oracle_ceiling=ceiling)

    def oracle_batch(pairs: list) -> ClosedForm:
        """closed_form at the run's options.  A refused row's error names its
        point: a self pair by its state, as the self-fidelity checks do."""
        try:
            return closed_form(pairs, opts)
        except (ValueError, RuntimeError) as exc:
            if hasattr(exc, "row"):
                s1, s2 = pairs[exc.row]
                exc.args = (f"{_fmt_state(s1) if s1 == s2 else _fmt_pair(s1, s2)}: {exc}",)
            raise

    # Self-fidelity grid.
    selfs = self_grid()[::5 if quick else 1]
    cf = oracle_batch([(s, s) for s in selfs])
    labels = [_fmt_state(s) for s in selfs]
    checks = [
        _bound("self-fidelity-pipeline", np.abs(cf.value_matrix_pipeline - 1.0), labels, 1e-9),
        _bound("self-fidelity-oracle", np.abs(cf.value_oracle - 1.0), labels, 1e-8),
    ]

    # Equal-displacement subgrid: the ratio must be exactly 1 in log form.
    g0_grid = undisplaced_pair_grid()[::3 if quick else 1]
    devs = np.abs(closed_form(g0_grid, _NO_ORACLE).pipeline.ratio - 1.0)
    # reversed, so that the last of equal deviations is the one reported
    exact = _bound("equal-displacement-ratio-exact", devs[::-1],
                   [_fmt_pair(s1, s2) for s1, s2 in g0_grid][::-1], 0.0)
    checks.append(replace(exact, detail="ratio must equal 1.0 bit-exactly; " + exact.detail))

    # Main pair grid, three ways, with the oracle fidelity of each pair's
    # undisplaced pair: one batch of the distinct undisplaced (r, beta) pairs,
    # in order of first appearance.
    pairs = pair_grid()[::11 if quick else 1]
    grid = oracle_batch(pairs)
    keys = [tuple(sorted(((s1.r, s1.beta), (s2.r, s2.beta)))) for s1, s2 in pairs]
    distinct = list(dict.fromkeys(keys))
    g0 = oracle_batch([tuple(StateParams(0.0, *rb) for rb in key) for key in distinct])
    f0 = np.array([g0.oracle[distinct.index(key)].fidelity for key in keys])
    labels = [_fmt_pair(s1, s2) for s1, s2 in pairs]
    checks += [
        _bound("pipeline-vs-oracle", grid.flags["pipeline-vs-oracle"][1], labels,
               ORACLE_AGREEMENT),
        _bound("decomposition-identity",
               np.abs(grid.value_oracle / f0 - grid.pipeline.ratio), labels, ORACLE_AGREEMENT),
        _bound("annihilation-residual", grid.pipeline.annihilation_residual, labels, 1e-10),
    ]

    # Coherent pure-state limit.
    k2s = (0.5, 1.0)
    cf = oracle_batch([(state(0.0, 0.0, nbar=1e-6), state(k2, 0.0, nbar=1e-6)) for k2 in k2s])
    values = np.stack([cf.value_matrix_pipeline, cf.value_oracle,
                       cf.printed.ratio * cf.base.base], axis=1)
    devs = np.abs(values - np.array([[math.exp(-k2 * k2)] for k2 in k2s]))
    checks.append(_bound("coherent-limit", devs.ravel(),
                         [f"k2={k2:g} [{label}]" for k2 in k2s
                          for label in ("pipeline", "oracle", "printed-ratio-exact-base")],
                         1e-4))

    conv_entry, conv_check = _entry_difference_convention(oracle_batch)
    checks.append(conv_check)

    # The grid with both squeeze signs reversed, for both sign entries: delta1's
    # exponent reads only g, r2 and beta2, so state 1's flip leaves it alone,
    # and flipping both leaves r1 - r2, and so the denominator, alone.
    flipped = closed_form([(_flipped(s1), _flipped(s2)) for s1, s2 in pairs], _NO_ORACLE)
    entries = (
        conv_entry,
        _entry_flipped_sign(
            QUADRATIC_FORM, "log_delta1", grid, flipped, labels,
            "printed quadratic form equals the pipeline one with the squeeze "
            "sign reversed (flip residual <= {:.3e}); the sign itself is fixed "
            "by the Fock conjugation rule, which the pipeline matches and the "
            "print does not"),
        *_entries_matching_system(pairs, grid, labels),
        _entry_flipped_sign(
            RATIO_FORM, "log_ratio", grid, flipped, labels,
            "printed exponent (eps1 + eps2)/Delta equals the pipeline ratio "
            "with both squeeze signs reversed (flip residual <= {:.3e}): same "
            "single convention slip as the quadratic form, invisible wherever "
            "Re(g^2)*sinh(2r) = 0"),
        *_entries_overlap(),
    )
    return ReconciliationReport(
        entries=entries,
        checks=tuple(checks),
        preset=preset,
        pair_points=len(pairs),
        self_points=len(selfs),
    )

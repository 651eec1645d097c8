"""Small exact-matrix kit for single-mode Gaussian state algebra.

Everything here is 2x2: conjugating a linear form ``x = (a^dag, a) . v`` by a
squeeze or thermal operator maps ``v`` through one of the matrices below (a
displacement only shifts ``x`` by a scalar).  The module also carries the
state-parameter model (complex displacement, real squeeze factor, inverse
temperature) shared by the reduction pipeline and the Fock oracle.

All values are immutable after construction and every function is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "StateParams",
    "state",
    "squeeze_matrix",
    "thermal_matrix",
]

# Largest inverse temperature the model accepts: beyond ~745, exp(-beta)
# underflows to 0.0 and the derived mean photon number stops being a positive
# finite float.  Near-pure states stay reachable below the cap.
_BETA_MAX = 745.0


@dataclass(frozen=True)
class StateParams:
    """One displaced squeezed thermal state: (k, r, beta).

    Parameters
    ----------
    k : complex
        Displacement amplitude.
    r : float
        Squeeze factor (real; the squeeze phase is fixed at zero).
    beta : float
        Inverse temperature, strictly positive and finite.  The mean photon
        number is ``nbar = 1/(exp(beta) - 1)``.

    Either temperature convention works at the surface: construct with
    ``StateParams(k, r, beta)`` or ``state(k, r, nbar=nbar)``.  beta is what
    gets stored; the reduction formulas are written in it.
    """

    k: complex
    r: float
    beta: float

    def __post_init__(self):
        k = complex(self.k)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "r", float(self.r))
        object.__setattr__(self, "beta", float(self.beta))
        if not (math.isfinite(k.real) and math.isfinite(k.imag)):
            raise ValueError(f"displacement k must be finite, got {k!r}")
        if not math.isfinite(self.r):
            raise ValueError(f"squeeze factor r must be finite, got {self.r!r}")
        if self.beta >= _BETA_MAX:
            raise ValueError(
                "beta at or beyond the pure-state limit (requires beta < "
                f"{_BETA_MAX:g}, got {self.beta!r}); use a large finite beta"
            )
        if math.isnan(self.beta) or self.beta <= 0.0:
            raise ValueError(
                f"beta must be strictly positive (infinite-temperature "
                f"point beta <= 0 is excluded), got {self.beta!r}"
            )
        if not math.isfinite(self.nbar):
            raise ValueError(
                f"beta={self.beta!r} is below ~5.6e-309, where the mean photon "
                "number nbar = 1/expm1(beta) leaves double range"
            )

    @property
    def nbar(self) -> float:
        """Mean photon number 1/(exp(beta) - 1); past beta = 700, where
        exp(beta) nears overflow, it equals exp(-beta) to double precision."""
        if self.beta > 700.0:
            return math.exp(-self.beta)
        return 1.0 / math.expm1(self.beta)


def state(
    k: complex = 0.0,
    r: float = 0.0,
    beta: float | None = None,
    nbar: float | None = None,
) -> StateParams:
    """A state from exactly one of beta and nbar, nbar as beta = log1p(1/nbar),
    which is log1p(nbar) - log(nbar) where 1/nbar overflows (below ~5.56e-309)."""
    if (beta is None) == (nbar is None):
        raise ValueError("exactly one of beta or nbar must be given")
    if beta is not None:
        return StateParams(k, r, beta)
    nbar = float(nbar)
    if not math.isfinite(nbar) or nbar <= 0.0:
        raise ValueError(
            f"nbar must be a finite positive number, got {nbar!r} "
            "(nbar = 0 is the pure-state limit; use a large beta instead)"
        )
    inverse = 1.0 / nbar  # where it overflows, two terms >= 0, so nothing cancels
    beta = math.log1p(inverse) if math.isfinite(inverse) else math.log1p(nbar) - math.log(nbar)
    return StateParams(k, r, beta)


def squeeze_matrix(r: float) -> np.ndarray:
    """Coefficient matrix [[cosh r, -sinh r], [-sinh r, cosh r]] for a squeeze.

    One-parameter group: squeeze_matrix(r1) @ squeeze_matrix(r2) equals
    squeeze_matrix(r1 + r2); det = cosh^2 - sinh^2 = 1.
    """
    r = float(r)
    if not math.isfinite(r):
        raise ValueError(f"r must be finite, got {r!r}")
    ch, sh = math.cosh(r), math.sinh(r)
    return np.array([[ch, -sh], [-sh, ch]], dtype=complex)


def thermal_matrix(beta: float, power: float) -> np.ndarray:
    """diag(exp(-power*beta), exp(power*beta)): thermal conjugation to a power.

    The reduction only needs powers -1, -1/2, 1/2, 1, but any finite power is
    accepted (the group law thermal_matrix(b, p) @ thermal_matrix(b, q) ==
    thermal_matrix(b, p + q) needs p + q outside that set).  det = 1 always.
    """
    beta = float(beta)
    power = float(power)
    if not math.isfinite(beta) or beta <= 0.0:
        raise ValueError(f"beta must be finite and > 0, got {beta!r}")
    if not math.isfinite(power):
        raise ValueError(f"power must be finite, got {power!r}")
    e = math.exp(-power * beta)
    return np.array([[e, 0.0], [0.0, 1.0 / e]], dtype=complex)


# --- log-scaled sinh -------------------------------------------------------
#
# The reduction takes sinh b2 (delta1's exponent) and the printed display's
# sinh numerators as this logarithm, so nothing overflows toward the pure-state
# limit.  It is exact for all x > 0 (expm1 soaks up the tail), works
# elementwise on arrays and does not check its argument: the reduction passes
# values derived from validated states.

_LOG2 = math.log(2.0)


def _log_sinh(x):
    """log(sinh x) = x - log 2 + log(-expm1(-2x)); -inf at x = 0 (under
    np.errstate)."""
    return x - _LOG2 + np.log(-np.expm1(-2.0 * x))

"""Small exact-matrix kit for single-mode Gaussian state algebra.

Everything here is 2x2: conjugating a linear form ``x = (a^dag, a) . v`` by a
squeeze, thermal, or displacement operator maps ``v`` through one of the
matrices below.  The module also carries the state-parameter model (complex
displacement, real squeeze factor, inverse temperature) shared by the
reduction pipeline and the Fock oracle.

All values are immutable after construction and every function is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DegenerateInputError",
    "Mat2C",
    "PairVec",
    "SymplecticForm",
    "SIGMA",
    "StateParams",
    "state",
    "squeeze_matrix",
    "thermal_matrix",
    "check_symplectic",
    "pair_vec",
    "log_sinh",
    "log_cosh",
]

# 2x2 complex matrices and length-2 complex vectors are plain ndarrays; the
# aliases name the roles they play in signatures.
Mat2C = np.ndarray
PairVec = np.ndarray

# Largest inverse temperature the model accepts: beyond ~745, exp(-beta)
# underflows to 0.0 and the derived mean photon number stops being a positive
# finite float.  Near-pure states stay reachable below the cap.
_BETA_MAX = 745.0


class DegenerateInputError(ValueError):
    """Raised when parameters collapse a linear system we must invert."""


class SymplecticForm:
    """The antisymmetric form on (a^dag, a) coefficient pairs.

    ``matrix`` is [[0, 1], [-1, 0]]; it is antisymmetric and squares to
    minus the identity.  A 2x2 matrix A preserves it (A^T S A = S) exactly
    when det A = 1.
    """

    matrix = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    matrix.setflags(write=False)


SIGMA: Mat2C = SymplecticForm.matrix


def _require_finite(name: str, *values: complex) -> None:
    for v in values:
        if not (math.isfinite(v.real) and math.isfinite(v.imag)):
            raise ValueError(f"{name} must be finite, got {v!r}")


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
    ``StateParams(k, r, beta)`` or ``StateParams.from_nbar(k, r, nbar)``.
    beta is what gets stored; the reduction formulas are written in it.
    """

    k: complex
    r: float
    beta: float

    def __post_init__(self):
        k = complex(self.k)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "r", float(self.r))
        object.__setattr__(self, "beta", float(self.beta))
        _require_finite("displacement k", k)
        if not math.isfinite(self.r):
            raise ValueError(f"squeeze factor r must be finite, got {self.r!r}")
        if math.isinf(self.beta) or self.beta >= _BETA_MAX:
            raise ValueError(
                "beta at or beyond the pure-state limit (requires beta < "
                f"{_BETA_MAX:g}, got {self.beta!r}); use a large finite beta"
            )
        if math.isnan(self.beta) or self.beta <= 0.0:
            raise ValueError(
                f"beta must be strictly positive (infinite-temperature "
                f"point beta <= 0 is excluded), got {self.beta!r}"
            )

    @classmethod
    def from_nbar(cls, k: complex, r: float, nbar: float) -> "StateParams":
        """Build from the mean photon number instead of beta."""
        nbar = float(nbar)
        if not math.isfinite(nbar) or nbar <= 0.0:
            raise ValueError(
                f"nbar must be a finite positive number, got {nbar!r} "
                "(nbar = 0 is the pure-state limit; use a large beta instead)"
            )
        return cls(k, r, math.log1p(1.0 / nbar))

    @property
    def nbar(self) -> float:
        """Mean photon number 1/(exp(beta) - 1)."""
        return 1.0 / math.expm1(self.beta)


def state(
    k: complex = 0.0,
    r: float = 0.0,
    beta: float | None = None,
    nbar: float | None = None,
) -> StateParams:
    """Convenience constructor enforcing exactly one of beta/nbar."""
    if (beta is None) == (nbar is None):
        raise ValueError("exactly one of beta or nbar must be given")
    if beta is not None:
        return StateParams(k, r, beta)
    return StateParams.from_nbar(k, r, nbar)


def squeeze_matrix(r: float) -> Mat2C:
    """Coefficient matrix [[cosh r, -sinh r], [-sinh r, cosh r]] for a squeeze.

    One-parameter group: squeeze_matrix(r1) @ squeeze_matrix(r2) equals
    squeeze_matrix(r1 + r2); det = cosh^2 - sinh^2 = 1.
    """
    r = float(r)
    if not math.isfinite(r):
        raise ValueError(f"r must be finite, got {r!r}")
    ch, sh = math.cosh(r), math.sinh(r)
    return np.array([[ch, -sh], [-sh, ch]], dtype=complex)


def thermal_matrix(beta: float, power: float) -> Mat2C:
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


def check_symplectic(m: Mat2C, tol: float = 1e-12) -> bool:
    """True iff m^T Sigma m equals Sigma entrywise within tol (max norm)."""
    if tol <= 0:
        raise ValueError(f"tol must be > 0, got {tol!r}")
    m = np.asarray(m, dtype=complex)
    dev = m.T @ SIGMA @ m - SIGMA
    return float(np.max(np.abs(dev))) <= tol


def pair_vec(g: complex) -> PairVec:
    """Column (g, -conj(g)) — the conjugate-pair form every displacement
    amplitude, mismatch, and solved multiplier takes in the reduction."""
    g = complex(g)
    _require_finite("g", g)
    return np.array([g, -g.conjugate()], dtype=complex)


def is_pair_vec(v: PairVec, tol: float = 1e-10) -> bool:
    """Check the conjugate-pair invariant v[1] == -conj(v[0]) within tol."""
    v = np.asarray(v, dtype=complex)
    scale = max(1.0, abs(v[0]))
    return abs(v[1] + v[0].conjugate()) <= tol * scale


# --- log-scaled hyperbolics -------------------------------------------------
#
# For beta > 30 the reduction assembles products like sinh(b1) sinh(b2) / Delta
# from logarithms instead of raw floats, per the overflow policy.  These forms
# are exact for all x > 0 (log1p/expm1 soak up the tail), not just asymptotically.


def log_sinh(x: float) -> float:
    """log(sinh x) for x > 0 without overflow: x - log 2 + log(-expm1(-2x))."""
    if x <= 0.0:
        raise ValueError(f"log_sinh needs x > 0, got {x!r}")
    return x - math.log(2.0) + math.log(-math.expm1(-2.0 * x))


def log_cosh(x: float) -> float:
    """log(cosh x) for x >= 0 without overflow: x - log 2 + log1p(exp(-2x))."""
    if x < 0.0:
        raise ValueError(f"log_cosh needs x >= 0, got {x!r}")
    return x - math.log(2.0) + math.log1p(math.exp(-2.0 * x))

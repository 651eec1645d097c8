"""Brute-force oracle in a truncated number basis.

Each state is rho = U rho_th U^dag with U = D(k) S(r) and rho_th the
diagonal thermal state with populations p.  D and S are the exponentials of
their generators truncated at cutoff N; each generator is a phase
conjugation of a real symmetric tridiagonal matrix (a + a^dag for D, and
a^2 + a^dag^2 on each parity for S), so it is exponentiated through that
matrix's eigenbasis rather than by a dense matrix exponential.

One rung of the oracle evaluates the Uhlmann/Bures fidelity
F = (tr sqrt(sqrt(rho1) rho2 sqrt(rho1)))^2 at one cutoff without forming
either density matrix: F_N is the squared sum of the singular values of
diag(sqrt p1) U1^dag U2 diag(sqrt p2).  An adaptive cutoff ladder (grow by
x1.5 until two successive values agree) certifies convergence.
uhlmann_fidelity keeps the density-matrix route for matrices that callers
supply.

The oracle is deliberately independent of the 2x2 reduction: it never touches
the conjugation matrices, and it builds D(k1) and D(k2) as separate factors
rather than assuming the displacement difference, so agreement between the
two is evidence, not circularity.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .algebra import StateParams

__all__ = [
    "ConvergenceError",
    "ContractViolationError",
    "FockMatrix",
    "OracleResult",
    "annihilation",
    "matrix_exp",
    "displacement_op",
    "squeeze_op",
    "thermal_weights",
    "thermal_state",
    "dst_state",
    "uhlmann_fidelity",
    "rung_fidelity",
    "fidelity_oracle",
    "DEFAULT_CUTOFF_CEILING",
]

# Dense complex square matrix over the truncated number basis; the cutoff is
# its dimension.
FockMatrix = np.ndarray

DEFAULT_CUTOFF_CEILING = 1024

# How hermitian / normalized a density matrix must be before we trust it.
_HERMITICITY_TOL = 1e-10
_TRACE_TOL = 1e-8

# exp(-beta * N) <= 1e-12 keeps the truncated thermal tail (and hence the
# trace deficit) below 1e-12.
_THERMAL_TAIL_LOG = 12.0 * math.log(10.0)


class ConvergenceError(RuntimeError):
    """Cutoff ladder hit its ceiling before successive fidelities agreed."""

    def __init__(self, message: str, gaps: list[tuple[int, float]]):
        super().__init__(message)
        self.gaps = gaps


class ContractViolationError(ValueError):
    """An input that was promised to be a density matrix is not one."""


def _check_cutoff(cutoff: int) -> None:
    if cutoff < 2:
        raise ValueError(f"cutoff must be >= 2, got {cutoff!r}")


def annihilation(cutoff: int) -> FockMatrix:
    """Ladder operator a with entries a[n-1, n] = sqrt(n), zero elsewhere."""
    _check_cutoff(cutoff)
    return np.diagflat(np.sqrt(np.arange(1, cutoff, dtype=float)), 1).astype(complex)


def matrix_exp(m: FockMatrix) -> FockMatrix:
    """Dense matrix exponential (scaling-and-squaring core).

    Inputs must be finite; a result that overflows double precision raises
    instead of returning infs.
    """
    m = np.asarray(m, dtype=complex)
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix_exp requires finite entries")
    out = scipy.linalg.expm(m)
    if not np.all(np.isfinite(out)):
        raise OverflowError(
            "matrix exponential overflowed double precision; the generator's "
            "norm is too large for this scaling"
        )
    return out


# i**n for n mod 4, exact.
_I_POWERS = np.array([1.0, 1.0j, -1.0, -1.0j])


def _zero_diagonal_eigh(off: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs (w, V) of the real symmetric tridiagonal matrix with zero
    diagonal and the given off-diagonal."""
    return scipy.linalg.eigh_tridiagonal(np.zeros(off.size + 1), off)


def _real_eigenbasis_exp(v: np.ndarray, theta: np.ndarray) -> FockMatrix:
    """V diag(exp(i theta)) V^T for real V, as two real products."""
    return (v * np.cos(theta)) @ v.T + 1j * ((v * np.sin(theta)) @ v.T)


# Eigenpairs of the real tridiagonal generators at one cutoff: (x, V) of
# X = a + a^dag, and (levels, y, V) of Y = a^2 + a^dag^2 on each parity.
_XPairs = tuple[np.ndarray, np.ndarray]
_YPairs = list[tuple[np.ndarray, np.ndarray, np.ndarray]]


def _x_eigenpairs(cutoff: int) -> _XPairs:
    return _zero_diagonal_eigh(np.sqrt(np.arange(1, cutoff, dtype=float)))


def _y_eigenpairs(cutoff: int) -> _YPairs:
    blocks = []
    for parity in (0, 1):
        m = np.arange(parity, cutoff, 2)
        blocks.append((m, *_zero_diagonal_eigh(np.sqrt((m[:-1] + 1.0) * (m[:-1] + 2.0)))))
    return blocks


def _displacement(k: complex, x_pairs: _XPairs) -> FockMatrix:
    x, v = x_pairs
    n = np.arange(x.size)
    k = complex(k)
    phase = _I_POWERS[n % 4] * np.exp(1j * cmath.phase(k) * n)
    return phase[:, None] * _real_eigenbasis_exp(v, -abs(k) * x) * phase.conj()


def _squeeze(r: float, y_pairs: _YPairs) -> FockMatrix:
    half_r = 0.5 * float(r)
    cutoff = sum(m.size for m, _, _ in y_pairs)
    out = np.zeros((cutoff, cutoff), dtype=complex)
    for m, y, v in y_pairs:
        phase = _I_POWERS[np.arange(m.size) % 4]
        out[np.ix_(m, m)] = (
            phase[:, None] * _real_eigenbasis_exp(v, half_r * y) * phase.conj()
        )
    return out


def displacement_op(k: complex, cutoff: int) -> FockMatrix:
    """D(k) = exp(k a^dag - conj(k) a) of the truncated generator; unitary.

    With k = |k| e^{i phi} the generator is -i|k| B X B^dag, where
    X = a + a^dag is real symmetric tridiagonal and
    B = diag(e^{i phi n}) diag(i^n), so D(k) = B V diag(e^{-i|k|x}) V^T B^dag
    from the eigenpairs (x, V) of X.
    """
    _check_cutoff(cutoff)
    return _displacement(k, _x_eigenpairs(cutoff))


def squeeze_op(r: float, cutoff: int) -> FockMatrix:
    """S(r) = exp((r/2)(a^2 - a^dag^2)) of the truncated generator; unitary.

    a^2 - a^dag^2 = i B' Y B'^dag with Y = a^2 + a^dag^2 and
    B' = diag(e^{i pi n/4}).  Y couples only levels of equal parity, and on
    each parity it is real symmetric tridiagonal with off-diagonal
    sqrt((m+1)(m+2)), so S(r) = B' V diag(e^{i r y/2}) V^T B'^dag block by
    block.  Within a block the phases differ by powers of i.
    """
    _check_cutoff(cutoff)
    return _squeeze(r, _y_eigenpairs(cutoff))


def thermal_cutoff_requirement(beta: float) -> int:
    """Smallest cutoff keeping the truncated thermal tail below 1e-12."""
    return max(2, math.ceil(_THERMAL_TAIL_LOG / beta))


def thermal_weights(beta: float, cutoff: int) -> np.ndarray:
    """Thermal populations (1 - e^-beta) e^-beta*n for n < cutoff.

    The cutoff must keep the discarded tail (= trace deficit) below 1e-12;
    otherwise the call refuses and names the cutoff that would suffice.
    """
    beta = float(beta)
    if not math.isfinite(beta) or beta <= 0.0:
        raise ValueError(f"beta must be finite and > 0, got {beta!r}")
    needed = thermal_cutoff_requirement(beta)
    if cutoff < needed:
        raise ValueError(
            f"cutoff {cutoff} leaves a thermal tail above 1e-12 at beta="
            f"{beta:g}; need at least {needed}"
        )
    n = np.arange(cutoff, dtype=float)
    return -math.expm1(-beta) * np.exp(-beta * n)


def thermal_state(beta: float, cutoff: int) -> FockMatrix:
    """Normalized thermal state diag(thermal_weights(beta, cutoff))."""
    return np.diag(thermal_weights(beta, cutoff)).astype(complex)


def dst_state(s: StateParams, cutoff: int) -> FockMatrix:
    """rho = D S rho_thermal S^dag D^dag at the given cutoff."""
    pops = thermal_weights(s.beta, cutoff)
    u = displacement_op(s.k, cutoff) @ squeeze_op(s.r, cutoff)
    return (u * pops) @ u.conj().T


def _check_density(rho: FockMatrix, name: str) -> None:
    herm = float(np.max(np.abs(rho - rho.conj().T)))
    if herm > _HERMITICITY_TOL:
        raise ContractViolationError(
            f"{name} is not Hermitian within {_HERMITICITY_TOL:g} "
            f"(max deviation {herm:.3e})"
        )
    tr = float(np.real(np.trace(rho)))
    if abs(tr - 1.0) > _TRACE_TOL:
        raise ContractViolationError(
            f"{name} has trace {tr!r}, more than {_TRACE_TOL:g} away from 1"
        )


def _psd_sqrt(rho: FockMatrix) -> FockMatrix:
    """Hermitian square root via eigendecomposition; negative eigenvalues
    (rounding of a PSD input) are clamped to zero before the square root."""
    vals, vecs = np.linalg.eigh(rho)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def uhlmann_fidelity(rho1: FockMatrix, rho2: FockMatrix) -> float:
    """F = (tr sqrt(sqrt(rho1) rho2 sqrt(rho1)))^2 for two density matrices."""
    rho1 = np.asarray(rho1, dtype=complex)
    rho2 = np.asarray(rho2, dtype=complex)
    _check_density(rho1, "rho1")
    _check_density(rho2, "rho2")
    root1 = _psd_sqrt(rho1)
    inner = root1 @ rho2 @ root1
    # inner is Hermitian PSD up to rounding; evaluate tr sqrt by eigenvalues.
    vals = np.linalg.eigvalsh(0.5 * (inner + inner.conj().T))
    vals = np.clip(vals, 0.0, None)
    return float(np.sum(np.sqrt(vals)) ** 2)


def rung_fidelity(s1: StateParams, s2: StateParams, cutoff: int) -> float:
    """Uhlmann fidelity of the two states truncated at one cutoff: one rung
    of the oracle's ladder, without forming either density matrix.

    rho_i = U_i diag(p_i) U_i^dag with U_i = D(k_i) S(r_i) unitary, so
    sqrt(rho1) rho2 sqrt(rho1) = U1 M M^dag U1^dag for
    M = diag(sqrt p1) U1^dag U2 diag(sqrt p2), and F is the squared sum of
    the singular values of M.  Equal to uhlmann_fidelity(dst_state(s1, N),
    dst_state(s2, N)) up to rounding.
    """
    root1 = np.sqrt(thermal_weights(s1.beta, cutoff))
    root2 = np.sqrt(thermal_weights(s2.beta, cutoff))
    # Both states share the generators' eigenpairs at this cutoff.
    x_pairs, y_pairs = _x_eigenpairs(cutoff), _y_eigenpairs(cutoff)
    u1 = _displacement(s1.k, x_pairs) @ _squeeze(s1.r, y_pairs)
    u2 = _displacement(s2.k, x_pairs) @ _squeeze(s2.r, y_pairs)
    overlap = u1.conj().T @ u2
    sv = scipy.linalg.svdvals(root1[:, None] * overlap * root2)
    return float(np.sum(sv) ** 2)


@dataclass(frozen=True)
class OracleResult:
    """Converged brute-force fidelity plus how it converged."""

    fidelity: float
    cutoff_used: int
    convergence_gap: float


def _starting_cutoff(s1: StateParams, s2: StateParams) -> int:
    """Heuristic first rung: covers displacement, squeeze, and thermal spread,
    bumped so the thermal-tail contract holds on the first try."""
    spread = math.ceil(
        30.0
        + 8.0 * (abs(s1.k) ** 2 + abs(s2.k) ** 2)
        + 10.0 * math.sinh(max(abs(s1.r), abs(s2.r))) ** 2
        + 10.0 * max(s1.nbar, s2.nbar)
    )
    return max(
        spread,
        thermal_cutoff_requirement(s1.beta),
        thermal_cutoff_requirement(s2.beta),
    )


def fidelity_oracle(
    s1: StateParams,
    s2: StateParams,
    tol: float = 1e-8,
    ceiling: int = DEFAULT_CUTOFF_CEILING,
) -> OracleResult:
    """Adaptive-cutoff Uhlmann fidelity between two parameterized states.

    Evaluates at a starting cutoff, grows by x1.5 (rounded) and stops when two
    successive fidelities differ by at most tol.  Raises ConvergenceError
    with the gap trace if the ceiling is reached first, and ValueError for a
    tol below 1e-10 or a ceiling below the smallest cutoff, 2.
    """
    if not tol >= 1e-10:  # NaN too: no gap would ever be <= it
        raise ValueError(f"tol must be >= 1e-10, got {tol!r}")
    if ceiling < 2:
        raise ValueError(f"ceiling must be >= 2 (the smallest cutoff), got {ceiling!r}")
    cutoff = min(_starting_cutoff(s1, s2), ceiling)

    gaps: list[tuple[int, float]] = []
    prev: float | None = None
    while True:
        fid = rung_fidelity(s1, s2, cutoff)
        if prev is not None:
            gap = abs(fid - prev)
            gaps.append((cutoff, gap))
            if gap <= tol:
                return OracleResult(fid, cutoff, gap)
        prev = fid
        if cutoff >= ceiling:
            trace = ", ".join(f"N={n}: {g:.3e}" for n, g in gaps) or "no rungs"
            raise ConvergenceError(
                f"fidelity did not stabilize to {tol:g} by cutoff {ceiling} "
                f"(gap trace: {trace})",
                gaps,
            )
        cutoff = min(ceiling, int(round(cutoff * 1.5)))

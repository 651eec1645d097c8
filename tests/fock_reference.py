"""The density-matrix route of the Fock oracle (test reference).

The oracle evaluates each cutoff rung without forming a density matrix (see
`dstfid.fock.rung_fidelity`).  The tests check it against the plain routes
kept here: the ladder operator, the thermal state as a matrix, the Uhlmann
fidelity of two density matrices, each checked to be one, and the full-size
rung, which keeps every level and multiplies the full operators.
"""

from __future__ import annotations

import numpy as np

from dstfid.algebra import StateParams
from dstfid.fock import FockMatrix, _check_cutoff, displacement_op, squeeze_op, thermal_weights

__all__ = ["ContractViolationError", "annihilation", "full_rung_fidelity", "thermal_state", "uhlmann_fidelity"]

# How hermitian / normalized a density matrix must be before we trust it.
_HERMITICITY_TOL = 1e-10
_TRACE_TOL = 1e-8


class ContractViolationError(ValueError):
    """An input that was promised to be a density matrix is not one."""


def annihilation(cutoff: int) -> FockMatrix:
    """Ladder operator a with entries a[n-1, n] = sqrt(n), zero elsewhere."""
    _check_cutoff(cutoff)
    return np.diagflat(np.sqrt(np.arange(1, cutoff, dtype=float)), 1).astype(complex)


def thermal_state(beta: float, cutoff: int) -> FockMatrix:
    """Normalized thermal state diag(thermal_weights(beta, cutoff))."""
    return np.diag(thermal_weights(beta, cutoff)).astype(complex)


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
    """F = (tr sqrt(sqrt(rho1) rho2 sqrt(rho1)))^2 for two density matrices,
    evaluated as the squared nuclear norm ||sqrt(rho1) sqrt(rho2)||_1^2: the
    sum of singular values, which swapping the states only conjugates, so the
    value is symmetric to rounding (the eigenvalues of the sandwich are not:
    their square roots amplify rounding in the tiny ones)."""
    rho1 = np.asarray(rho1, dtype=complex)
    rho2 = np.asarray(rho2, dtype=complex)
    _check_density(rho1, "rho1")
    _check_density(rho2, "rho2")
    sv = np.linalg.svd(_psd_sqrt(rho1) @ _psd_sqrt(rho2), compute_uv=False)
    return float(np.sum(sv) ** 2)


def full_rung_fidelity(s1: StateParams, s2: StateParams, cutoff: int) -> float:
    """(sum svdvals(sqrt(L1) U1^dag U2 sqrt(L2)))^2 with U_i = D(k_i) S(r_i):
    one rung at full size, every level kept and each U_i a full matrix."""
    root1, root2 = (np.sqrt(thermal_weights(s.beta, cutoff)) for s in (s1, s2))
    u1, u2 = (displacement_op(s.k, cutoff) @ squeeze_op(s.r, cutoff) for s in (s1, s2))
    sv = np.linalg.svd(root1[:, None] * (u1.conj().T @ u2) * root2, compute_uv=False)
    return float(np.sum(sv) ** 2)

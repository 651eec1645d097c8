"""The density-matrix route of the Fock oracle (test reference).

The oracle evaluates each cutoff rung without forming a density matrix, as
`dstfid.fock._svd_fidelity(_rung_matrix(...))`.  The tests check it against
the plain routes kept here: the ladder operator, the full operators D(k) and
S(r) built from the oracle's own factors, the thermal state as a matrix, the
Uhlmann fidelity of two density matrices, each checked to be one, and the
full-size rung, which keeps every level and multiplies the full operators.
Every matrix is dense and complex over the truncated number basis; the
cutoff is its dimension.
"""

from __future__ import annotations

import numpy as np

from dstfid.algebra import StateParams
from dstfid.fock import _chain_exp, _displacement_overlap, _generator_chains, thermal_weights

__all__ = [
    "ContractViolationError", "annihilation", "displacement_op", "full_size_rung",
    "squeeze_op", "thermal_state", "uhlmann_fidelity",
]

# How hermitian / normalized a density matrix must be before we trust it.
_HERMITICITY_TOL = 1e-10
_TRACE_TOL = 1e-8


class ContractViolationError(ValueError):
    """An input that was promised to be a density matrix is not one."""


def _check_cutoff(cutoff: int) -> None:
    if cutoff < 2:
        raise ValueError(f"cutoff must be >= 2, got {cutoff!r}")


def annihilation(cutoff: int) -> np.ndarray:
    """Ladder operator a with entries a[n-1, n] = sqrt(n), zero elsewhere."""
    _check_cutoff(cutoff)
    return np.diagflat(np.sqrt(np.arange(1, cutoff, dtype=float)), 1).astype(complex)


def displacement_op(k: complex, cutoff: int) -> np.ndarray:
    """D(k) = exp(k a^dag - conj(k) a) of the truncated generator; unitary.

    With k = t e^{i phi} (t real), D(k) = R exp(t (a^dag - a)) R^dag for
    R = diag(e^{i phi n}), and exp(t (a^dag - a)) is real orthogonal.
    """
    _check_cutoff(cutoff)
    return _displacement_overlap(0, k, _generator_chains(cutoff)[0])


def squeeze_op(r: float, cutoff: int) -> np.ndarray:
    """S(r) = exp((r/2)(a^2 - a^dag^2)) of the truncated generator; unitary.

    a^2 - a^dag^2 couples only levels of equal parity, so S(r) is real
    orthogonal with one block on the even levels and one on the odd.
    """
    _check_cutoff(cutoff)
    out = np.zeros((cutoff, cutoff), dtype=complex)
    for parity, chain in enumerate(_generator_chains(cutoff)[1:]):
        out[parity::2, parity::2] = _chain_exp(chain, 0.5 * float(r))
    return out


def thermal_state(beta: float, cutoff: int) -> np.ndarray:
    """Normalized thermal state diag(thermal_weights(beta, cutoff))."""
    return np.diag(thermal_weights(beta, cutoff)).astype(complex)


def _check_density(rho: np.ndarray, name: str) -> None:
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


def _psd_sqrt(rho: np.ndarray) -> np.ndarray:
    """Hermitian square root via eigendecomposition; negative eigenvalues
    (rounding of a PSD input) are clamped to zero before the square root."""
    vals, vecs = np.linalg.eigh(rho)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def uhlmann_fidelity(rho1: np.ndarray, rho2: np.ndarray) -> float:
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


def full_size_rung(s1: StateParams, s2: StateParams, cutoff: int) -> float:
    """(sum svdvals(sqrt(L1) U1^dag U2 sqrt(L2)))^2 with U_i = D(k_i) S(r_i):
    one rung at full size, every level kept and each U_i a full matrix."""
    root1, root2 = (np.sqrt(thermal_weights(s.beta, cutoff)) for s in (s1, s2))
    u1, u2 = (displacement_op(s.k, cutoff) @ squeeze_op(s.r, cutoff) for s in (s1, s2))
    sv = np.linalg.svd(root1[:, None] * (u1.conj().T @ u2) * root2, compute_uv=False)
    return float(np.sum(sv) ** 2)

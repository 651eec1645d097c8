"""The density-matrix route of the Fock oracle (test reference).

The oracle evaluates each cutoff rung without forming a density matrix, as
`dstfid.fock._svd_fidelity(_rung_matrix(...))`.  The tests check it against
the plain routes kept here: the ladder operator, the full operators D(k) and
S(r) built from the oracle's own factors, the thermal state as a matrix, the
Uhlmann fidelity of two density matrices, each checked to be one, and the
full-size rung, which keeps every level and multiplies the full operators.
Every matrix is dense and complex over the truncated number basis; the
cutoff is its dimension.  full_size_rung builds D(k1) and D(k2) as separate
factors, so a test that holds the oracle's framed rung to it at k1 != 0
checks the Weyl relation the frame (fock._ladder_frame) assumes: D(-k1)
D(k2) is D(k2 - k1) times a phase.  level_order_rung forms the whole
level-order D(k2) of a framed pair, state 1 at k = 0, and sandwiches its
strided parity blocks, the route the oracle's rung must equal bit for bit.
"""

from __future__ import annotations

import numpy as np

from dstfid.algebra import StateParams
from dstfid.fock import (
    _assembled,
    _chain_blocks,
    _chain_exp,
    _displacement_blocks,
    _generator_chains,
    _kept_levels,
    _polar,
    _sandwich,
    thermal_weights,
)

__all__ = [
    "ContractViolationError", "annihilation", "displacement_op", "full_size_rung",
    "level_order_displacement", "level_order_rung", "squeeze_op", "thermal_state",
    "uhlmann_fidelity",
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
    R = diag(e^{i phi n}), and exp(t (a^dag - a)) is real orthogonal.  It is
    assembled from the oracle's _displacement_blocks, the parity blocks a
    rung sandwiches.
    """
    _check_cutoff(cutoff)
    blocks = _displacement_blocks(k, _generator_chains(cutoff)[0])
    return _assembled(blocks, (cutoff, cutoff), complex)


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


def level_order_displacement(k: complex, cutoff: int) -> np.ndarray:
    """D(k) formed whole in level order and phased whole, written out of
    place: R(phi) Q(t) R(phi)^dag."""
    t, phi = _polar(k)
    levels = np.arange(cutoff)
    product = _chain_exp(_generator_chains(cutoff)[0], t).astype(complex)
    return np.exp(1j * phi * levels)[:, None] * product * np.exp(-1j * phi * levels)


def level_order_rung(s1: StateParams, s2: StateParams, cutoff: int) -> np.ndarray:
    """The oracle's rung matrix M of an undisplaced state 1 by the
    level-order route, then the same two-stage trim.  A squeezed state 1:
    both states' squeeze factors stacked per parity, the whole
    level_order_displacement of k2, its strided parity blocks sandwiched.  A
    thermal state 1: the real Q(t) of k2 = t e^{i phi} on its first n1
    rows in level order (assembled from the blocks _chain_blocks makes of
    those rows: a threaded BLAS may round a product of fewer rows apart from
    the whole one's), its strided parity blocks times state 2's squeeze
    factor phased by R^dag = diag(e^{-i phi n}), on its kept columns."""
    if s1.k:
        raise ValueError(f"state 1 must be undisplaced (fock._ladder_frame), got k1 = {s1.k!r}")
    p1, p2 = thermal_weights(s1.beta, cutoff), thermal_weights(s2.beta, cutoff)
    root1, root2 = np.sqrt(p1), np.sqrt(p2)
    n1, n2 = _kept_levels(root1), _kept_levels(root2)
    chains = _generator_chains(cutoff)
    w = np.empty((n1, n2), dtype=complex)
    if s1.r:
        sq = [_chain_exp(chain, (0.5 * s1.r, 0.5 * s2.r)) for chain in chains[1:]]
        disp = level_order_displacement(s2.k, cutoff)
        for p in (0, 1):
            for q in (0, 1):
                left = sq[p][0, :, : (n1 - p + 1) // 2]
                right = sq[q][1, :, : (n2 - q + 1) // 2]
                w[p::2, q::2] = _sandwich(left, disp[p::2, q::2], right)
    else:
        t, phi = _polar(s2.k)
        rows = _assembled(_chain_blocks(chains[0], t, n1), (n1, cutoff), float)
        for q, chain in enumerate(chains[1:]):
            right = (_chain_exp(chain, 0.5 * s2.r)[:, : (n2 - q + 1) // 2]
                     * np.exp(-1j * phi * np.arange(q, cutoff, 2))[:, None])
            for p in (0, 1):
                w[p::2, q::2] = (rows[p::2, q::2] @ right.view(float)).view(complex)
    w2 = w.real**2 + w.imag**2
    m1 = _kept_levels(root1[:n1] * np.sqrt(w2 @ p2[:n2]), float(np.sum(root1[n1:])))
    m2 = _kept_levels(np.sqrt(p1[:m1] @ w2[:m1]) * root2[:n2], float(np.sum(root2[n2:])))
    return root1[:m1, None] * w[:m1, :m2] * root2[:m2]

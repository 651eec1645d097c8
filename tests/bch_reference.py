"""Exact merging of exponentials of ladder-linear operators (test reference).

An operator of the form Omega = (a^dag, a) . N . z is linear in a and a^dag,
so the commutator of two of them is a plain scalar and the product of their
exponentials collapses exactly (no series truncation):

    exp(Omega1) exp(Omega2) = exp([Omega1, Omega2]/2) exp(Omega1 + Omega2)

The guard against non-scalar commutators is structural: LinExpOp can only
represent ladder-linear exponents, so the precondition holds by construction.

The package uses one consequence only: D(k1)^dag D(k2) is D(k2 - k1) times a
phase, so the fidelity sees the displacements through g = k2 - k1.  The tests
check the merge rule, and that consequence, against dense truncated-space
exponentials.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from algebra_reference import Mat2C

__all__ = ["LinExpOp", "MergeResult", "commutator_scalar", "bch_merge"]


def _as_finite(arr, shape, name: str) -> np.ndarray:
    out = np.asarray(arr, dtype=complex)
    if out.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {out.shape}")
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{name} must be finite")
    return out


@dataclass(frozen=True, eq=False)
class LinExpOp:
    """exp(log_scalar) * exp[(a^dag, a) . coeff . vec].

    Only the product coeff @ vec matters for the operator; log_scalar rides
    along so phases never leave log form.
    """

    log_scalar: complex
    coeff: Mat2C
    vec: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "log_scalar", complex(self.log_scalar))
        if not (np.isfinite(self.log_scalar.real) and np.isfinite(self.log_scalar.imag)):
            raise ValueError("log_scalar must be finite")
        coeff = _as_finite(self.coeff, (2, 2), "coeff")
        vec = _as_finite(self.vec, (2,), "vec")
        coeff.setflags(write=False)
        vec.setflags(write=False)
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "vec", vec)

    @property
    def exponent_vec(self) -> np.ndarray:
        """The effective column w = coeff @ vec, i.e. Omega = w0 a^dag + w1 a."""
        return self.coeff @ self.vec


@dataclass(frozen=True, eq=False)
class MergeResult:
    """Collapsed product: exp(scalar_log) * exp[(a^dag, a) . combined_vec]."""

    scalar_log: complex
    combined_vec: np.ndarray


def commutator_scalar(n1: Mat2C, v1, n2: Mat2C, v2) -> complex:
    """Scalar value of [Omega1, Omega2] for Omega_i = (a^dag, a) . n_i . v_i.

    Writing u = n1 @ v1 and w = n2 @ v2, the only surviving commutator is
    [a, a^dag] = 1, giving u1*w0 - u0*w1.  Evaluated in exactly that form so
    swapping the operands flips the sign bit-for-bit.
    """
    u = _as_finite(n1, (2, 2), "n1") @ _as_finite(v1, (2,), "v1")
    w = _as_finite(n2, (2, 2), "n2") @ _as_finite(v2, (2,), "v2")
    return complex(u[1] * w[0] - u[0] * w[1])


def bch_merge(op1: LinExpOp, op2: LinExpOp) -> MergeResult:
    """Collapse exp(Omega1) exp(Omega2) into a single exponential, exactly.

    scalar_log picks up half the scalar commutator; combined_vec is the sum
    of the effective columns.
    """
    half_comm = 0.5 * commutator_scalar(op1.coeff, op1.vec, op2.coeff, op2.vec)
    return MergeResult(
        scalar_log=op1.log_scalar + op2.log_scalar + half_comm,
        combined_vec=op1.exponent_vec + op2.exponent_vec,
    )


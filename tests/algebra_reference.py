"""Test-side names for the 2x2 algebra kit (the package does not use them).

Mat2C names the role a plain 2x2 complex ndarray plays in a signature; SIGMA
is the antisymmetric form on (a^dag, a) coefficient pairs; check_symplectic
tests a 2x2 factor against it; pair_vec builds the conjugate-pair column that
displacement amplitudes take in the (a^dag, a) basis; log_sinh is the
package's unchecked log-sinh with its domain checked.
"""

from __future__ import annotations

import cmath

import numpy as np

from dstfid.algebra import _log_sinh

__all__ = ["Mat2C", "SIGMA", "check_symplectic", "pair_vec", "log_sinh"]

Mat2C = np.ndarray

# The antisymmetric form on (a^dag, a) coefficient pairs: it squares to minus
# the identity, and a 2x2 matrix A preserves it (A^T SIGMA A = SIGMA) exactly
# when det A = 1.
SIGMA: Mat2C = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
SIGMA.setflags(write=False)


def check_symplectic(m: Mat2C, tol: float = 1e-12) -> bool:
    """True iff m^T Sigma m equals Sigma entrywise within tol (max norm)."""
    if tol <= 0:
        raise ValueError(f"tol must be > 0, got {tol!r}")
    m = np.asarray(m, dtype=complex)
    dev = m.T @ SIGMA @ m - SIGMA
    return float(np.max(np.abs(dev))) <= tol


def pair_vec(g: complex) -> np.ndarray:
    """Column (g, -conj(g)): the conjugate-pair form every displacement
    amplitude and mismatch takes in the (a^dag, a) basis."""
    g = complex(g)
    if not cmath.isfinite(g):
        raise ValueError(f"g must be finite, got {g!r}")
    return np.array([g, -g.conjugate()], dtype=complex)


def log_sinh(x):
    """log(sinh x) for x > 0 without overflow: x - log 2 + log(-expm1(-2x))."""
    if not np.greater(x, 0.0).all():
        raise ValueError(f"log_sinh needs x > 0, got {x!r}")
    return _log_sinh(x)

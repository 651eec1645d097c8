"""The exact single-mode Gaussian fidelity at many digits (test reference).

F = F0 exp(-d^T (V1+V2)^{-1} d) from the quadrature covariance matrices and
the mean difference of the two states (Scutaru 1998, Twamley 1996), in
mpmath: the closed form and the oracle are held to it, and it reads nothing
of the package.
"""

from __future__ import annotations

import mpmath as mp

__all__ = ["gaussian_reference", "log_fidelity_reference"]


def _gaussian(r1, beta1, r2, beta2, g):
    """(F0, log(F/F0)) at the working precision from the quadrature covariance
    matrices V = coth(beta/2) diag(e^{-2r}, e^{2r}) (vacuum = identity) and
    the mean difference d = sqrt(2) (Re g, Im g):
    F = 2 (sqrt(a + delta) + sqrt(delta))/a exp(-d^T (V1+V2)^{-1} d), with
    a = det(V1+V2) and delta = (det V1 - 1)(det V2 - 1).  That is
    2/(sqrt(a + delta) - sqrt(delta)) rationalised: the difference cancels
    over hundreds of digits for hot states, the sum does not."""
    r1, beta1, r2, beta2 = (mp.mpf(x) for x in (r1, beta1, r2, beta2))
    c1, c2 = mp.coth(beta1 / 2), mp.coth(beta2 / 2)
    sx = c1 * mp.exp(-2 * r1) + c2 * mp.exp(-2 * r2)
    sp = c1 * mp.exp(2 * r1) + c2 * mp.exp(2 * r2)
    a = sx * sp
    delta = 1 / (mp.sinh(beta1 / 2) * mp.sinh(beta2 / 2)) ** 2
    f0 = 2 * (mp.sqrt(a + delta) + mp.sqrt(delta)) / a
    return f0, -2 * mp.mpf(g.real) ** 2 / sx - 2 * mp.mpf(g.imag) ** 2 / sp


def gaussian_reference(r1, beta1, r2, beta2, g=0j, dps=50):
    """(F0, F, log(F/F0)) at dps digits (see _gaussian)."""
    with mp.workdps(dps):
        f0, expo = _gaussian(r1, beta1, r2, beta2, g)
        return float(f0), float(f0 * mp.exp(expo)), float(expo)


def log_fidelity_reference(r1, beta1, r2, beta2, g, dps=60):
    """log F at dps digits (see _gaussian), defined where F underflows."""
    with mp.workdps(dps):
        f0, expo = _gaussian(r1, beta1, r2, beta2, g)
        return float(mp.log(f0) + expo)

"""Independent correctness reference: the single-mode Gaussian fidelity.

For the displaced squeezed thermal state (k, r, nbar) the quadrature
covariance matrix is V = (2 nbar + 1) diag(e^{-2r}, e^{2r}) (vacuum = identity)
and the mean-quadrature difference of a pair is d = sqrt(2) (Re g, Im g) with
g = k2 - k1.  Then

    F = 2 / (sqrt(Delta + delta) - sqrt(delta)) * exp(-d^T (V1 + V2)^{-1} d)

with Delta = det(V1 + V2) and delta = (det V1 - 1)(det V2 - 1).

Plain `math`, nothing from dstfid: the reference never feeds the program, so
the program's own oracle stays an independent check of its pipeline.
"""

from __future__ import annotations

import math

from inputs import Pair

# A reported fidelity further than this from the reference counts as failed.
TOLERANCE = 1e-6


def gaussian_fidelity(p: Pair) -> float:
    g = p.k2 - p.k1
    v1 = ((2.0 * p.nbar1 + 1.0) * math.exp(-2.0 * p.r1), (2.0 * p.nbar1 + 1.0) * math.exp(2.0 * p.r1))
    v2 = ((2.0 * p.nbar2 + 1.0) * math.exp(-2.0 * p.r2), (2.0 * p.nbar2 + 1.0) * math.exp(2.0 * p.r2))
    sx, sp = v1[0] + v2[0], v1[1] + v2[1]
    big = sx * sp
    small = (v1[0] * v1[1] - 1.0) * (v2[0] * v2[1] - 1.0)
    dx, dp = math.sqrt(2.0) * g.real, math.sqrt(2.0) * g.imag
    return 2.0 / (math.sqrt(big + small) - math.sqrt(small)) * math.exp(-(dx * dx / sx + dp * dp / sp))

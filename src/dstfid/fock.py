"""Brute-force oracle in a truncated number basis.

Each state is rho = U rho_th U^dag with U = D(k) S(r) and rho_th the
diagonal thermal state with populations p.  D and S are the exponentials of
their generators truncated at cutoff N.  Both a^dag - a and each parity block
of a^2 - a^dag^2 are real antisymmetric tridiagonal matrices that couple even
sites to odd sites only, so one SVD of the half-size even-odd block gives
their exponentials as real orthogonal matrices in closed form (_chain_exp,
the one builder, stacks them over an array of t: one call per chain builds
both states' factors); a complex k enters through the diagonal phase R =
diag(e^{i phi n}), D(k) = R D(|k|) R^dag.  Every factor is in level order,
the squeeze's parity blocks on the strided levels p::2.  No dense matrix
exponential and no scipy: numpy alone runs the oracle, and only matrix_exp,
the dense reference the tests compare the factors against, imports scipy.
The full operators D(k) and S(r) and the density-matrix route the tests
check a rung against (uhlmann_fidelity) live with the tests, in
fock_reference.

One rung of the oracle evaluates the Uhlmann/Bures fidelity
F = (tr sqrt(sqrt(rho1) rho2 sqrt(rho1)))^2 at one cutoff without forming
either density matrix: F_N is the squared sum of the singular values of
diag(sqrt p1) U1^dag U2 diag(sqrt p2).  Its rows and columns are trimmed
in two stages, first at the level from which a state's sqrt p sum to at
most 2.5e-14, then by M's measured row and column norms within what is left
of that budget; together they move F_N by at most 1e-13, a thousandth of
the smallest oracle tolerance.  The generator SVDs depend on the cutoff
alone and are computed once per cutoff (a bounded cache of 32).  An
adaptive cutoff ladder certifies convergence: it climbs one fixed sequence
of cutoffs, 2, 3, 4, 6, 9, ..., each x1.5 (rounded) of the one before, from
the first member at or above a per-pair starting cutoff, until two
successive values agree.  Every pair's rungs are then members of that one
sequence, so they share the cached SVDs.  A rung's SVD runs only where its
value is needed: where twice a bound on the nuclear norm of the change in
M already certifies the gap, the ladder stops with the last rung's SVD
alone and reports that bound as its gap.

The whole ladder runs on the pair mapped by a joint squeeze S(s), which
leaves F as it is: S(s) D(k) S(s)^dag = D(k') with k' = e^{-s} Re k +
i e^{s} Im k and S(s) S(r) = S(r + s), so a state goes to (k', r + s, beta).
s minimises the larger mean photon number, so squeezes that nearly cancel
climb from a small cutoff however large the squeeze they share.

The oracle is deliberately independent of the 2x2 reduction: it never touches
the conjugation matrices, and it builds D(k1) and D(k2) as separate factors
rather than assuming the displacement difference, so agreement between the
two is evidence, not circularity.
"""

from __future__ import annotations

import cmath
import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .algebra import StateParams

__all__ = [
    "ConvergenceError",
    "OracleResult",
    "matrix_exp",
    "thermal_weights",
    "dst_state",
    "fidelity_oracle",
    "DEFAULT_CUTOFF_CEILING",
    "DEFAULT_ORACLE_TOL",
]

DEFAULT_CUTOFF_CEILING = 1024
DEFAULT_ORACLE_TOL = 1e-8

# exp(-beta * N) <= 1e-12 keeps the truncated thermal tail (and hence the
# trace deficit) below 1e-12.
_THERMAL_TAIL_LOG = 12.0 * math.log(10.0)

# Each side of a rung's M drops rows (columns) whose norm bounds sum to at
# most this, which moves F by at most 1e-13 (_rung_matrix).
_TRIM_TAIL = 2.5e-14


class ConvergenceError(RuntimeError):
    """Cutoff ladder hit its ceiling before successive fidelities agreed."""

    def __init__(self, message: str, gaps: list[tuple[int, float]]):
        super().__init__(message)
        self.gaps = gaps


def _check_oracle_options(tol: float, ceiling: int) -> None:
    """Refuse a tol below 1e-10 or infinite, or a ceiling below 2, the
    smallest cutoff (FidelityOptions too, so whether or not the oracle runs)."""
    if not tol >= 1e-10:  # NaN too: no gap would ever be <= it
        raise ValueError(f"oracle tolerance must be >= 1e-10, got {tol!r}")
    if tol == math.inf:  # every gap is <= it: the second rung would stop the ladder
        raise ValueError(f"oracle tolerance must be finite, got {tol!r}")
    if ceiling < 2:
        raise ValueError(f"ceiling must be >= 2 (the smallest cutoff), got {ceiling!r}")


def matrix_exp(m: np.ndarray) -> np.ndarray:
    """Dense matrix exponential (scaling-and-squaring core), the reference
    the tests check the oracle's factors against; it needs scipy, which
    the test extra (dstfid[test]) installs.

    Inputs must be finite; a result that overflows double precision raises
    instead of returning infs.
    """
    import scipy.linalg  # only this dense reference needs scipy

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


# Both generators are real antisymmetric tridiagonal matrices A with
# A[j, j+1] = c[j] = -A[j+1, j]: a^dag - a with c[n] = -sqrt(n+1), and
# a^2 - a^dag^2 on the levels m of one parity with c = sqrt((m+1)(m+2)).
# Such an A couples even j to odd j only, so with L = A[even, odd] =
# U diag(s) V^T (a full SVD; U has one more column than V when A has odd
# size), exp(tA) over (even j, odd j) is
#
#     [[ U cos(ts) U^T, U sin(ts) V^T],
#      [-V sin(ts) U^T, V cos(ts) V^T]]
#
# with cos padded by 1 on U's unpartnered column: real and orthogonal.
_Chain = tuple[np.ndarray, np.ndarray, np.ndarray]  # (U, s, V^T) of L


def _chain(c: np.ndarray) -> _Chain:
    ne, no = (c.size + 2) // 2, (c.size + 1) // 2
    link = np.zeros((ne, no))
    link[np.arange(no), np.arange(no)] = c[0::2]
    link[np.arange(1, ne), np.arange(ne - 1)] = -c[1::2]
    return np.linalg.svd(link)


def _chain_exp(chain: _Chain, t: float | tuple[float, ...]) -> np.ndarray:
    """exp(tA) in site order, one per entry of t stacked on a leading axis."""
    u, s, vt = chain
    ts = np.multiply.outer(t, s)[..., None, :]  # broadcasts over a factor's rows
    cos = np.ones(ts.shape[:-1] + u.shape[:1])
    cos[..., : s.size] = np.cos(ts)
    even_odd = (u[:, : s.size] * np.sin(ts)) @ vt
    out = np.empty(ts.shape[:-2] + (u.shape[0] + vt.shape[0],) * 2)
    out[..., 0::2, 0::2] = (u * cos) @ u.T
    out[..., 0::2, 1::2] = even_odd
    out[..., 1::2, 0::2] = -np.swapaxes(even_odd, -1, -2)
    out[..., 1::2, 1::2] = (vt.T * cos[..., : s.size]) @ vt
    return out


@functools.lru_cache(maxsize=32)
def _generator_chains(cutoff: int) -> tuple[_Chain, _Chain, _Chain]:
    """The displacement chain and the even and odd squeeze chains at one
    cutoff: the generator SVDs, the part of a rung that depends on the
    cutoff alone.  Computed once per cutoff and shared, so every array is
    made read-only.

    An entry holds the three chains' U and V^T, ~6 N^2 bytes: ~1.6 MB at
    N = 512 and ~6.3 MB at N = 1024.  The oracle's rungs are members of
    cutoff_ladder's fixed sequence or a ceiling: its 16 members below 1024
    plus a ceiling of 1024 hold ~13.5 MB.  The bound of 32 entries still
    covers arbitrary ceilings and direct callers: at most ~50 MB under a
    ceiling of 512 and ~200 MB under 1024.
    """
    levels = (np.arange(parity, cutoff, 2.0)[:-1] for parity in (0, 1))
    squeeze = (_chain(np.sqrt((m + 1.0) * (m + 2.0))) for m in levels)
    chains = (_chain(-np.sqrt(np.arange(1.0, cutoff))), *squeeze)
    for chain in chains:
        for part in chain:
            part.setflags(write=False)
    return chains


def _polar(k: complex) -> tuple[float, float]:
    """(t, phi) with k = t e^{i phi} and |phi| <= pi/2, so phi = 0 exactly
    for a real k and D(k) is real."""
    k = complex(k)
    if k.real < 0.0:
        return -abs(k), cmath.phase(-k)
    return abs(k), cmath.phase(k)


def _displacement_overlap(k1: complex, k2: complex, chain: _Chain) -> np.ndarray:
    """D(k1)^dag D(k2) in level order, each factor built on its own from the
    displacement chain at that cutoff.

    D(k) = R(phi) Q(t) R(phi)^dag with Q(t) real orthogonal and R diagonal,
    so the product is R(phi1) Q(-t1) R(phi2 - phi1) Q(t2) R(phi2)^dag.  A
    zero k1 is the identity: that factor is neither built nor multiplied.
    The oracle-stream benchmark has k1 = 0 on every pair, where this runs
    about 10% more pairs per second than the product.
    """
    (t1, phi1), (t2, phi2) = _polar(k1), _polar(k2)
    if k1 == 0:
        phi1, out = phi2, _chain_exp(chain, t2)
    else:
        left, out = _chain_exp(chain, (-t1, t2))
        turn = (phi2 - phi1) * np.arange(out.shape[0])
        out = (left * np.cos(turn)) @ out + 1j * ((left * np.sin(turn)) @ out)
    levels = np.arange(out.shape[0])
    return np.exp(1j * phi1 * levels)[:, None] * out * np.exp(-1j * phi2 * levels)


def thermal_cutoff_requirement(beta: float) -> float:
    """Smallest cutoff keeping the truncated thermal tail below 1e-12; inf
    for a beta so small (subnormal) that no cutoff in double range would."""
    needed = _THERMAL_TAIL_LOG / beta
    return max(2, math.ceil(needed)) if math.isfinite(needed) else math.inf


def _check_thermal_tail(beta: float, cutoff: int) -> None:
    needed = thermal_cutoff_requirement(beta)
    if cutoff < needed:
        raise ValueError(
            f"cutoff {cutoff} leaves a thermal tail above 1e-12 at beta="
            f"{beta:g}; need at least {needed}"
        )


def thermal_weights(beta: float, cutoff: int) -> np.ndarray:
    """Thermal populations (1 - e^-beta) e^-beta*n for n < cutoff.

    The cutoff must keep the discarded tail (= trace deficit) below 1e-12;
    otherwise the call refuses and names the cutoff that would suffice.
    """
    beta = float(beta)
    if not math.isfinite(beta) or beta <= 0.0:
        raise ValueError(f"beta must be finite and > 0, got {beta!r}")
    _check_thermal_tail(beta, cutoff)
    n = np.arange(cutoff, dtype=float)
    return -math.expm1(-beta) * np.exp(-beta * n)


def dst_state(s: StateParams, cutoff: int) -> np.ndarray:
    """rho = U rho_thermal U^dag with U = D(k) S(r) at the given cutoff, U
    built from the rung's own factors."""
    pops = thermal_weights(s.beta, cutoff)
    chains = _generator_chains(cutoff)
    u = _displacement_overlap(0, s.k, chains[0])
    for p, chain in enumerate(chains[1:]):
        u[:, p::2] = u[:, p::2] @ _chain_exp(chain, 0.5 * s.r)
    return (u * pops) @ u.conj().T


def _sandwich(a: np.ndarray, x: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a^T x b for real a and b, as real products on the parts of x."""
    return a.T @ x.real @ b + 1j * (a.T @ x.imag @ b)


def _kept_levels(bound: np.ndarray, spent: float = 0.0) -> int:
    """How many leading rows (or columns) a rung keeps, given a bound on
    each one's norm: index n is dropped when bound[n:] sums to at most
    _TRIM_TAIL - spent, where spent is what an earlier trim on the same
    side already dropped."""
    tail = np.cumsum(bound[::-1])[::-1]
    return int(np.count_nonzero(tail > _TRIM_TAIL - spent))


def _rung_matrix(s1: StateParams, s2: StateParams, cutoff: int) -> np.ndarray:
    """M = diag(sqrt p1) W diag(sqrt p2) at one cutoff, trimmed to what it
    carries.  One rung of the oracle's ladder, the Uhlmann fidelity of the
    states truncated at that cutoff, is _svd_fidelity(M) to <= 1e-13 plus
    rounding, without forming either density matrix.

    rho_i = U_i diag(p_i) U_i^dag with U_i = D(k_i) S(r_i) unitary, so
    sqrt(rho1) rho2 sqrt(rho1) = U1 M M^dag U1^dag for W = U1^dag U2 =
    S1^T D(k1)^dag D(k2) S2.

    A dropped row or column moves the sum of the singular values by at most
    its norm, and the trim runs in two stages per side.  W is unitary, so a
    row (column) of the full M has norm at most its sqrt p: first the
    levels _kept_levels(sqrt p_i) are kept, n1 rows and n2 columns.  Then,
    with W filled, M's measured row norms sqrt p1 sqrt(|W|^2 @ p2) trim
    the trailing rows whose norms sum to at most _TRIM_TAIL less the sqrt p
    tail already dropped, and the row-trimmed M's column norms trim its
    columns the same way.  Each side drops at most _TRIM_TAIL in all, so
    the sum moves by at most 2 * _TRIM_TAIL and F by at most 1e-13.

    S_i acts on the levels of each parity, p::2, on its own, so W is filled
    a parity block at a time on those strided views.
    """
    p1, p2 = thermal_weights(s1.beta, cutoff), thermal_weights(s2.beta, cutoff)
    root1, root2 = np.sqrt(p1), np.sqrt(p2)
    n1, n2 = _kept_levels(root1), _kept_levels(root2)
    chains = _generator_chains(cutoff)
    sq = [_chain_exp(chain, (0.5 * s1.r, 0.5 * s2.r)) for chain in chains[1:]]
    overlap = _displacement_overlap(s1.k, s2.k, chains[0])

    w = np.empty((n1, n2), dtype=complex)
    for p in (0, 1):
        for q in (0, 1):
            # Only the kept levels' columns of S1 and S2 enter the sandwich.
            left = sq[p][0, :, : (n1 - p + 1) // 2]
            right = sq[q][1, :, : (n2 - q + 1) // 2]
            w[p::2, q::2] = _sandwich(left, overlap[p::2, q::2], right)
    w2 = w.real**2 + w.imag**2
    m1 = _kept_levels(root1[:n1] * np.sqrt(w2 @ p2[:n2]), float(np.sum(root1[n1:])))
    m2 = _kept_levels(np.sqrt(p1[:m1] @ w2[:m1]) * root2[:n2], float(np.sum(root2[n2:])))
    return root1[:m1, None] * w[:m1, :m2] * root2[:m2]


def _svd_fidelity(m: np.ndarray) -> float:
    """The squared sum of the singular values of a rung's M."""
    return float(np.sum(np.linalg.svd(m, compute_uv=False)) ** 2)


def _nuclear_bound(a: np.ndarray, b: np.ndarray) -> float:
    """An upper bound on the nuclear norm of a - b, both zero-padded to the
    larger shape: the smaller of the sums of its row norms and of its column
    norms.  It bounds |sum svdvals(a) - sum svdvals(b)| too, by the triangle
    inequality of the nuclear norm."""
    rows, cols = max(a.shape[0], b.shape[0]), max(a.shape[1], b.shape[1])
    diff = np.zeros((rows, cols), dtype=complex)
    diff[: a.shape[0], : a.shape[1]] = a
    diff[: b.shape[0], : b.shape[1]] -= b
    d2 = diff.real**2 + diff.imag**2
    return float(min(np.sum(np.sqrt(d2.sum(axis=1))), np.sum(np.sqrt(d2.sum(axis=0)))))


@dataclass(frozen=True)
class OracleResult:
    """Converged brute-force fidelity plus how it converged."""

    fidelity: float
    cutoff_used: int
    convergence_gap: float
    frame_shift: float  # the joint squeeze s the ladder ran in (joint_squeeze_frame)


@np.errstate(all="ignore")  # a squeeze near 1e308 overflows a log: that shift is never the least
def joint_squeeze_frame(s1: StateParams,
                        s2: StateParams) -> tuple[StateParams, StateParams, float]:
    """The pair in the joint squeeze frame, and its s: 0, the pair as given,
    where no shift lowers the larger mean photon number or a framed
    displacement leaves double range.

    A framed state's mean photon number is a e^{2s} + b e^{-2s} - 1/2, with
    a = (nbar + 1/2) e^{2r}/2 + (Im k)^2 and b = (nbar + 1/2) e^{-2r}/2 +
    (Re k)^2.  The larger of the two is convex in s: its minimiser is 0, a
    state's own log(b/a)/4 or the crossing e^{4s} = (b2 - b1)/(a1 - a2),
    found in logs so that |r| near 355 does not overflow.
    """
    def scaled(x: float, t: float) -> float:  # x e^t, where e^t alone may overflow
        return x and math.copysign(math.exp(math.log(abs(x)) + t), x)

    (a1, b1), (a2, b2) = sorted((
        [np.logaddexp(math.log(0.5 * s.nbar + 0.25) + 2.0 * r,
                      2.0 * math.log(abs(x)) if x else -math.inf)
         for r, x in ((s.r, s.k.imag), (-s.r, s.k.real))] for s in (s1, s2)), reverse=True)
    shifts = [0.0, (b1 - a1) / 4.0, (b2 - a2) / 4.0]
    if a1 > a2 and b2 > b1:  # a1 >= a2 by the sort
        shifts.append((b2 - a1 + math.log(math.expm1(b1 - b2) / math.expm1(a2 - a1))) / 4.0)
    s = float(min(shifts, key=lambda t: max(np.logaddexp(a1 + 2 * t, b1 - 2 * t),
                                            np.logaddexp(a2 + 2 * t, b2 - 2 * t))))
    try:
        f1, f2 = (StateParams(complex(scaled(x.k.real, -s), scaled(x.k.imag, s)), x.r + s, x.beta)
                  for x in (s1, s2))
    except OverflowError:
        return s1, s2, 0.0
    return f1, f2, s


def _starting_cutoff(s1: StateParams, s2: StateParams) -> float:
    """Heuristic first rung: covers displacement, squeeze, and thermal spread,
    bumped so the thermal-tail contract holds on the first try.  A spread
    past double range (a squeeze beyond |r| ~ 355) is inf, above any
    ceiling."""
    try:
        spread = math.ceil(
            30.0
            + 8.0 * (abs(s1.k) ** 2 + abs(s2.k) ** 2)
            + 10.0 * math.sinh(max(abs(s1.r), abs(s2.r))) ** 2
            + 10.0 * max(s1.nbar, s2.nbar)
        )
    except OverflowError:
        return math.inf
    return max(
        spread,
        thermal_cutoff_requirement(s1.beta),
        thermal_cutoff_requirement(s2.beta),
    )


def cutoff_ladder(start: float, ceiling: float = math.inf) -> Iterator[int]:
    """The oracle's cutoffs from start: the members of the fixed sequence
    2, 3, 4, 6, 9, 14, 21, 32, 48, 72, 108, 162, 243, 364, 546, 819, ...
    (each int(round(1.5 N)) of the one before) from the first one >= start,
    the last clamped to the ceiling.  Every ladder climbs the same sequence,
    so its rungs share the cached generator SVDs.

    Empty when start >= ceiling (an inf start included); start, ceiling when
    the first member already reaches the ceiling.
    """
    if start >= ceiling:
        return
    cutoff = 2
    while cutoff < start:
        cutoff = int(round(cutoff * 1.5))
    if cutoff >= ceiling:
        cutoff = start  # 1.5 start is past the ceiling too
    while cutoff < ceiling:
        yield cutoff
        cutoff = int(round(cutoff * 1.5))
    yield ceiling


def fidelity_oracle(
    s1: StateParams,
    s2: StateParams,
    tol: float = DEFAULT_ORACLE_TOL,
    ceiling: int = DEFAULT_CUTOFF_CEILING,
) -> OracleResult:
    """Adaptive-cutoff Uhlmann fidelity between two parameterized states.

    Runs on the pair in the joint squeeze frame (joint_squeeze_frame), and
    climbs cutoff_ladder from a starting cutoff (the first member of the
    fixed x1.5 sequence at or above _starting_cutoff) and stops when two
    successive fidelities differ by at most tol.  The reported
    convergence_gap is an upper bound on the last gap: 2 _nuclear_bound of
    the two rungs' M where that is already <= tol (only the last rung's SVD
    then runs), the exact difference of the two values otherwise, so the
    ladder stops where an exact-gap ladder would.  Raises ConvergenceError
    with the exact gap trace if the ceiling is reached first (at once,
    computing no rung and naming the starting cutoff, when that already
    reaches it: a lone rung has nothing to agree with), and ValueError for
    an infinite tol or one below 1e-10, a ceiling below the smallest cutoff,
    2, or a ceiling that truncates more than 1e-12 of either thermal weight
    (the starting cutoff keeps both, so only a ceiling at or below it can).
    """
    _check_oracle_options(tol, ceiling)
    for s in (s1, s2):
        _check_thermal_tail(s.beta, ceiling)
    s1, s2, shift = joint_squeeze_frame(s1, s2)
    gaps: list[tuple[int, float]] = []
    prev: tuple[np.ndarray, float | None] | None = None  # the last rung's M and F, once known
    start = _starting_cutoff(s1, s2)
    for cutoff in cutoff_ladder(start, ceiling):
        m, fid = _rung_matrix(s1, s2, cutoff), None
        if prev is not None:
            prev_m, prev_fid = prev
            # F = (sum svdvals M)^2 and each sum is at most |sqrt p1| |sqrt p2|
            # <= 1, so |F - F_prev| <= 2 |sum - sum_prev| <= 2 _nuclear_bound.
            gap = 2.0 * _nuclear_bound(m, prev_m)
            if gap > tol:
                prev_fid = _svd_fidelity(prev_m) if prev_fid is None else prev_fid
                fid = _svd_fidelity(m)
                gap = abs(fid - prev_fid)
                gaps.append((cutoff, gap))
            if gap <= tol:
                return OracleResult(_svd_fidelity(m) if fid is None else fid, cutoff, gap, shift)
        prev = m, fid
    trace = ", ".join(f"N={n}: {g:.3e}" for n, g in gaps) or "no rungs"
    past = f"; the ladder starts at cutoff {start:g}, so the ceiling must exceed it"
    raise ConvergenceError(
        f"fidelity did not stabilize to {tol:g} by cutoff {ceiling} "
        f"(gap trace: {trace})" + (past if start >= ceiling else ""),
        gaps,
    )

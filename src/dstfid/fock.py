"""Brute-force oracle in a truncated number basis.

Each state is rho = U rho_th U^dag with U = D(k) S(r) and rho_th the
diagonal thermal state with populations p.  D and S are the exponentials of
their generators truncated at cutoff N.  Both a^dag - a and each parity block
of a^2 - a^dag^2 are real antisymmetric tridiagonal matrices that couple even
sites to odd sites only, so one SVD of the half-size even-odd block gives
their exponentials as real orthogonal matrices in closed form.  One builder,
_chain_blocks, makes their four parity blocks (p::2, q::2), stacked over an
array of t if one is given or on the first rows alone, and one loop,
_assembled, sets them in level order: _chain_exp's factor per entry and
dst_state's D(k).  A complex k enters through the diagonal phase
R = diag(e^{i phi n}), D(k) = R D(|k|) R^dag.  No dense matrix exponential
and no scipy: numpy alone runs the oracle, and only matrix_exp, the dense
reference the tests compare the factors against, imports scipy.  The full
operators D(k) and S(r) and the density-matrix route the tests check a rung
against (uhlmann_fidelity) live with the tests, in fock_reference.

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
alone and reports that bound as its gap.  Its result (or ConvergenceError)
carries the ladder as it ran, one Rung per cutoff.

The whole ladder runs on the pair mapped by two joint Gaussian unitaries,
each of which leaves F as it is.  First D(-k1): D(-k1) D(k) = D(k - k1)
times a phase, which rho cancels, so the pair goes to (0, r1, beta1),
(k2 - k1, r2, beta2).  Then a joint squeeze S(s): S(s) D(k) S(s)^dag = D(k')
with k' = e^{-s} Re k + i e^{s} Im k and S(s) S(r) = S(r + s), so a state
goes to (k', r + s, beta).  s = -r1 takes state 1 to its Williamson form,
thermal, so that a rung builds one squeeze factor and only the rows of
D(k2) that state 1 keeps.  Where that frame starts the ladder at its
ceiling (or k' leaves double range), s minimises the larger mean photon
number instead, and a rung sandwiches D(k2) between both squeeze factors.

The oracle is deliberately independent of the 2x2 reduction: it never touches
the conjugation matrices, and it forms its own k2 - k1 and k', in its own
frame, so a wrong g in the reduction does not reach it and agreement between
the two is evidence, not circularity.  The Weyl relation its frame assumes,
D(a) D(b) = D(a + b) times a phase, is held by the test reference, which
builds D(k1) and D(k2) as separate factors.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from .algebra import StateParams, _check_real

__all__ = [
    "ConvergenceError",
    "OracleResult",
    "Rung",
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

# Past 2**53 a needed cutoff is the ceiling of a double whose trailing
# digits carry nothing (and a rung of that size no memory holds): a
# refusal names it as %g, as the ladder's start is named.
_EXACT_CUTOFF = 2**53

# Each side of a rung's M drops rows (columns) whose norm bounds sum to at
# most this, which moves F by at most 1e-13 (_rung_matrix).
_TRIM_TAIL = 2.5e-14


class ConvergenceError(RuntimeError):
    """Cutoff ladder hit its ceiling before successive fidelities agreed:
    rungs is its climb."""

    def __init__(self, message: str, rungs: tuple[Rung, ...]):
        super().__init__(message)
        self.rungs = rungs


def _check_oracle_options(tol: float, ceiling: int) -> None:
    """Refuse a tol that is no real number or lies outside [1e-10, 1), or a
    ceiling that is not an integer (a numpy one is) or is below 2, the
    smallest cutoff (FidelityOptions too, whether or not the oracle runs)."""
    _check_real("oracle tolerance", tol)
    if not 1e-10 <= tol < 1.0:  # NaN too; a gap is <= 1, so tol >= 1 stops at rung 2
        raise ValueError(f"oracle tolerance must be >= 1e-10 and < 1, got {tol!r}")
    try:  # a float is refused: inf would leave the ladder no top
        operator.index(ceiling)
    except TypeError:
        raise ValueError(f"ceiling must be an integer, got {ceiling!r}") from None
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


_Blocks = Iterator[tuple[int, int, np.ndarray]]  # (p, q, block [p::2, q::2]) in parity order


def _chain_blocks(chain: _Chain, t: float | tuple[float, ...], rows: int | None = None) -> _Blocks:
    """exp(tA)'s parity blocks (p, q, block [p::2, q::2]) in the order (0, 0),
    (0, 1), (1, 0), (1, 1), one per entry of t stacked on a leading axis,
    on the rows of the first `rows` sites alone where given, each C-ordered.
    U sin V^T is kept whole from block (0, 1) to its negated transpose,
    block (1, 0)."""
    u, s, vt = chain
    even, odd = (u, vt.T) if rows is None else (u[: (rows + 1) // 2], vt.T[: rows // 2])
    ts = np.multiply.outer(t, s)[..., None, :]  # broadcasts over a factor's rows
    cos = np.ones(ts.shape[:-1] + u.shape[:1])
    cos[..., : s.size] = np.cos(ts)
    yield 0, 0, (even * cos) @ u.T
    even_odd = (u[:, : s.size] * np.sin(ts)) @ vt
    yield 0, 1, even_odd[..., : even.shape[0], :]
    yield 1, 0, np.negative(np.swapaxes(even_odd[..., : odd.shape[0]], -1, -2), order="C")
    yield 1, 1, (odd * cos[..., : s.size]) @ vt


def _assembled(blocks: _Blocks, shape: tuple[int, ...], dtype: type) -> np.ndarray:
    """The array of that shape with each (p, q, block) at [..., p::2, q::2]."""
    out = np.empty(shape, dtype=dtype)
    for p, q, block in blocks:
        out[..., p::2, q::2] = block
    return out


def _chain_exp(chain: _Chain, t: float | tuple[float, ...]) -> np.ndarray:
    """exp(tA) in site order, one per entry of t stacked on a leading axis."""
    n = chain[0].shape[0] + chain[2].shape[0]
    return _assembled(_chain_blocks(chain, t), np.shape(t) + (n, n), float)


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


def _displacement_blocks(k: complex, chain: _Chain) -> _Blocks:
    """D(k)'s parity blocks (p, q, block [p::2, q::2]) in _chain_blocks'
    order, each a new C-ordered complex array: Q(t)'s block, made complex
    and multiplied in place by the strided diagonals of R and R^dag.  Only
    one block is held at a time.  Each is that block of R Q(t) R^dag formed
    and phased whole, bit for bit, but for a lone element (the 1 x 1 block
    of cutoffs 2 and 3, which no ladder runs), which numpy multiplies in
    place on another loop that rounds differently."""
    t, phi = _polar(k)
    levels = np.arange(chain[0].shape[0] + chain[2].shape[0])
    rows, cols = np.exp(1j * phi * levels), np.exp(-1j * phi * levels)
    for p, q, block in _chain_blocks(chain, t):
        x = block.astype(complex, order="C")
        del block
        np.multiply(rows[p::2, None], x, out=x)
        yield p, q, np.multiply(x, cols[q::2], out=x)
        del x


def thermal_cutoff_requirement(beta: float) -> float:
    """Smallest cutoff keeping the truncated thermal tail below 1e-12; inf
    for a beta so small (subnormal) that no cutoff in double range would."""
    needed = _THERMAL_TAIL_LOG / beta
    return max(2, math.ceil(needed)) if math.isfinite(needed) else math.inf


def _check_thermal_tail(beta: float, cutoff: int) -> None:
    needed = thermal_cutoff_requirement(beta)
    if cutoff < needed:
        shown = needed if needed <= _EXACT_CUTOFF else f"{needed:g}"
        raise ValueError(
            f"cutoff {cutoff} leaves a thermal tail above 1e-12 at beta="
            f"{beta:g}; need at least {shown}"
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
    built from the rung's own factors: D(k) assembled from the parity blocks
    a rung sandwiches."""
    pops = thermal_weights(s.beta, cutoff)
    chains = _generator_chains(cutoff)
    u = _assembled(_displacement_blocks(s.k, chains[0]), (cutoff, cutoff), complex)
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

    State 1 comes undisplaced from the oracle's frame (_ladder_frame); a
    displaced one is refused.  rho_i = U_i diag(p_i) U_i^dag with U1 =
    S(r1) and U2 = D(k2) S(r2) unitary, so sqrt(rho1) rho2 sqrt(rho1) =
    U1 M M^dag U1^dag for W = U1^dag U2 = S1^T D(k2) S2.  Where r1 = 0, W =
    R Q(t) R^dag S2 (k2 = t e^{i phi}) and R commutes with diag(sqrt p1), so
    M's singular values and |W| hold with W = Q(t) R^dag S2: its kept rows
    are those of Q(t), times S2 phased by R^dag, one product per block.

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
    a parity block at a time on those strided views.  The N x N operator
    D(k2) is never formed: its parity blocks come one at a time from
    _displacement_blocks, each dropped once sandwiched (where r1 = 0, from
    _chain_blocks on state 1's kept rows).  Both states' squeeze factors of
    a parity come from one stacked _chain_exp call (state 2's alone where
    r1 = 0).
    """
    if s1.k:
        raise ValueError(f"state 1 must come undisplaced (_ladder_frame), got k1 = {s1.k!r}")
    p1, p2 = thermal_weights(s1.beta, cutoff), thermal_weights(s2.beta, cutoff)
    root1, root2 = np.sqrt(p1), np.sqrt(p2)
    n1, n2 = _kept_levels(root1), _kept_levels(root2)
    chains = _generator_chains(cutoff)
    w = np.empty((n1, n2), dtype=complex)
    if s1.r:
        squeeze = [_chain_exp(chain, (0.5 * s1.r, 0.5 * s2.r)) for chain in chains[1:]]
        for p, q, x in _displacement_blocks(s2.k, chains[0]):
            # Only the kept levels' columns of S1 and S2 enter the sandwich.
            w[p::2, q::2] = _sandwich(squeeze[p][0, :, : (n1 - p + 1) // 2], x,
                                      squeeze[q][1, :, : (n2 - q + 1) // 2])
            del x
        del squeeze
    else:  # state 1 thermal: W = D(k2) S2 on state 1's kept rows, less D's left phase R
        t, phi = _polar(s2.k)
        phased = [_chain_exp(chain, 0.5 * s2.r)[:, : (n2 - q + 1) // 2]
                  * np.exp(-1j * phi * np.arange(q, cutoff, 2))[:, None]
                  for q, chain in enumerate(chains[1:])]
        for p, q, x in _chain_blocks(chains[0], t, rows=n1):
            w[p::2, q::2] = (x @ phased[q].view(float)).view(complex)
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
class Rung:
    """One rung of the oracle's ladder as it ran: its cutoff, its trimmed
    M's shape, its fidelity (None where the gap bound made its SVD unneeded)
    and its gap to the rung before (None on the first), exact (the change
    of fidelity) or not (twice the nuclear-norm bound of the change in M)."""

    cutoff: int
    kept: tuple[int, int]
    fidelity: float | None
    gap: float | None
    exact: bool


@dataclass(frozen=True)
class OracleResult:
    """Converged brute-force fidelity plus how it converged: rungs is the
    ladder as it ran, one Rung per cutoff, the last one the result's."""

    fidelity: float
    cutoff_used: int
    convergence_gap: float
    frame_shift: float  # the joint squeeze s the ladder ran in: -r1, or joint_squeeze_frame's
    rungs: tuple[Rung, ...]


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
    if not s:  # scaled(x, 0) rounds x through exp(log|x|)
        return s1, s2, 0.0
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


def _ladder_frame(s1: StateParams, s2: StateParams,
                  ceiling: int) -> tuple[StateParams, StateParams, float, float]:
    """The pair the oracle's ladder runs on, its joint squeeze s and its
    starting cutoff.  D(-k1) then S(-r1) take state 1 to its Williamson
    form (0, 0, beta1) and state 2 to (k', r2 - r1, beta2), k' = e^{r1}
    Re(k2 - k1) + i e^{-r1} Im(k2 - k1), and the start is _starting_cutoff
    of that pair.  Where that start reaches the ceiling or k' leaves double
    range, the pair goes to (0, r1, beta1), (k2 - k1, r2, beta2) and
    joint_squeeze_frame maps that, from the lower of its framed start and
    that of the pair as given in its own squeeze frame: D(-k1) can double
    the |k|^2 the start allows for (at k2 = -k1)."""
    g = s2.k - s1.k
    try:  # a k' past double range falls back; a k2 - k1 past it is refused there
        framed = (StateParams(0j, 0.0, s1.beta), StateParams(
            complex(math.exp(s1.r) * g.real, math.exp(-s1.r) * g.imag), s2.r - s1.r, s2.beta))
        if (start := _starting_cutoff(*framed)) < ceiling:
            return *framed, 0.0 - s1.r, start  # 0.0 - r1: no -0.0 shift
    except (OverflowError, ValueError):
        pass
    start = math.inf
    if s1.k:
        start = _starting_cutoff(*joint_squeeze_frame(s1, s2)[:2])
        s1, s2 = replace(s1, k=0j), replace(s2, k=g)
    s1, s2, shift = joint_squeeze_frame(s1, s2)
    return s1, s2, shift, min(start, _starting_cutoff(s1, s2))


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

    Runs on the pair _ladder_frame maps state 1 to its Williamson form in
    (or to k = 0 in the joint squeeze frame), and climbs cutoff_ladder from
    its start (the first member of the fixed x1.5 sequence at or above it)
    until two successive fidelities differ by at most tol.  The reported
    convergence_gap is an upper bound on the last gap: 2 _nuclear_bound of
    the two rungs' M plus the SVDs' rounding where that is already <= tol
    (only the last rung's SVD then runs), the exact difference of the two
    values otherwise, so the ladder stops where an exact-gap ladder would.
    Raises ConvergenceError with its rungs and exact gap trace if the
    ceiling is reached first (at once, computing no rung and naming the
    starting cutoff, when that already reaches it: a lone rung has nothing
    to agree with), and ValueError for a tol or ceiling
    _check_oracle_options refuses and for a ceiling that truncates more than
    1e-12 of either thermal weight (only one at or below the starting cutoff
    can) or a k2 - k1 past double range.
    """
    _check_oracle_options(tol, ceiling)
    for s in (s1, s2):
        _check_thermal_tail(s.beta, ceiling)
    s1, s2, shift, start = _ladder_frame(s1, s2, ceiling)
    rungs: list[Rung] = []
    for cutoff in cutoff_ladder(start, ceiling):
        m, fid, gap, exact = _rung_matrix(s1, s2, cutoff), None, None, False
        if rungs:
            # F = (sum svdvals M)^2 and each sum is at most |sqrt p1| |sqrt p2|
            # <= 1, so |F - F_prev| <= 2 |sum - sum_prev| <= 2 _nuclear_bound,
            # plus the rounding of each computed sum: r eps for r values (its
            # worst measured is 0.14 r eps, on rungs equal but for rounding),
            # and eps for the square.  The bound is rounded up to a multiple of
            # that, so a threaded BLAS's last-bit noise in M misses its digits.
            rounding = np.finfo(float).eps * (min(m.shape) + min(prev_m.shape) + 1)
            gap = 2.0 * rounding * (math.ceil(_nuclear_bound(m, prev_m) / rounding) + 1)
            if gap > tol:
                if rungs[-1].fidelity is None:
                    rungs[-1] = replace(rungs[-1], fidelity=_svd_fidelity(prev_m))
                fid = _svd_fidelity(m)
                gap, exact = abs(fid - rungs[-1].fidelity), True
            if gap <= tol:
                fid = _svd_fidelity(m) if fid is None else fid
                rungs.append(Rung(cutoff, m.shape, fid, gap, exact))
                return OracleResult(fid, cutoff, gap, shift, tuple(rungs))
        rungs.append(Rung(cutoff, m.shape, fid, gap, exact))
        prev_m = m
    trace = ", ".join(f"N={r.cutoff}: {r.gap:.3e}" for r in rungs if r.exact) or "no rungs"
    past = f"; the ladder starts at cutoff {start:g}, so the ceiling must exceed it"
    raise ConvergenceError(
        f"fidelity did not stabilize to {tol:g} by cutoff {ceiling} "
        f"(gap trace: {trace})" + (past if start >= ceiling else ""),
        tuple(rungs),
    )

"""Seeded inputs for the benchmark workloads.

Pure standard library: nothing here imports dstfid, so the program only ever
sees the generated numbers.  Every input is a function of (workload, seed,
index): the same seed always yields the same sequence of sweeps or pairs.

Points come from an additive-recurrence (Kronecker) low-discrepancy sequence
with a random shift drawn from the seed.  Each seed gives different points,
but any run of consecutive points covers the parameter box evenly, which
narrows the seed-to-seed spread of a run's mean cost.  The distribution
sampled is the same uniform one as with independent draws.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

R_RANGE = (-0.8, 0.8)
NBAR_RANGE = (0.05, 2.0)
# Displacement k2 (= g, as k1 = 0) is uniform on the disk |k2| <= K2_RADIUS.
K2_RADIUS = 1.5
# State 1 of sweep-squeeze-temp.  The grid should set that workload's cost:
# over R_RANGE x NBAR_RANGE the cost of one sweep varies 16x (a hot, strongly
# squeezed state 1 against the grid's far corner), which no run of a few
# sweeps averages out.  The stream still covers the full box.
SQUEEZE_TEMP_R1_RANGE = (-0.3, 0.3)
SQUEEZE_TEMP_NBAR1_RANGE = (0.05, 0.5)

# sweep-displacement grid: re_k2 x im_k2 over [-2, 2]^2.
DISPLACEMENT_AXES = (("re_k2", -2.0, 2.0), ("im_k2", -2.0, 2.0))
# sweep-squeeze-temp grid: r2 x nbar2 over [-1, 1] x [0.1, 3].
SQUEEZE_TEMP_AXES = (("r2", -1.0, 1.0), ("nbar2", 0.1, 3.0))


@dataclass(frozen=True)
class Pair:
    """One input pair: state j is (kj, rj, nbarj)."""

    k1: complex
    r1: float
    nbar1: float
    k2: complex
    r2: float
    nbar2: float


@dataclass(frozen=True)
class Sweep:
    """A `dstfid sweep` invocation and the pairs it must report, in row order."""

    argv: list[str]
    pairs: list[Pair]


def _generator(dims: int) -> list[float]:
    """Step of the d-dimensional recurrence: powers of 1/phi_d, where phi_d is
    the real root of x^(d+1) = x + 1 (the golden ratio for d = 1)."""
    phi = 2.0
    for _ in range(100):
        phi = (1.0 + phi) ** (1.0 / (dims + 1))
    return [(1.0 / phi) ** (j + 1) % 1.0 for j in range(dims)]


def point(seed: int, stream: str, index: int, dims: int) -> list[float]:
    """Point `index` of the seeded sequence `stream` in [0, 1)^dims."""
    rng = random.Random(f"{stream}:{seed}")
    shift = [rng.random() for _ in range(dims)]
    return [(s + index * a) % 1.0 for s, a in zip(shift, _generator(dims))]


def _scale(u: float, lo_hi: tuple[float, float]) -> float:
    lo, hi = lo_hi
    return lo + (hi - lo) * u


def _disk(u_radius: float, u_angle: float, radius: float) -> complex:
    """Uniform on the disk |z| <= radius."""
    rho = radius * math.sqrt(u_radius)
    return complex(rho * math.cos(2.0 * math.pi * u_angle), rho * math.sin(2.0 * math.pi * u_angle))


def _cli_complex(z: complex) -> str:
    return f"{z.real!r}{z.imag:+}i"


def _grid(start: float, stop: float, count: int) -> list[float]:
    if count == 1:
        return [start]
    return [start + (stop - start) * i / (count - 1) for i in range(count)]


def _sweep(fixed: dict[str, float | complex], axes, count: int) -> Sweep:
    argv = ["sweep"]
    for key, value in fixed.items():
        text = _cli_complex(value) if isinstance(value, complex) else repr(value)
        argv.append(f"--{key}={text}")
    for name, start, stop in axes:
        argv += ["--sweep", f"{name}={start!r}:{stop!r}:{count}"]
    argv += ["--method", "closed-form"]
    (name_u, lo_u, hi_u), (name_v, lo_v, hi_v) = axes
    pairs = []
    for u in _grid(lo_u, hi_u, count):
        for v in _grid(lo_v, hi_v, count):
            params = {"k1": 0j, "r1": 0.0, "k2": 0j, "r2": 0.0, **fixed, name_u: u, name_v: v}
            if "re_k2" in params:
                params["k2"] = complex(params.pop("re_k2"), params.pop("im_k2"))
            pairs.append(Pair(**params))
    return Sweep(argv, pairs)


def displacement_sweep(seed: int, rep: int, count: int) -> Sweep:
    """Repetition `rep`: seeded r1, r2, nbar1, nbar2, displacement grid."""
    u = point(seed, "sweep-displacement", rep, 4)
    fixed = {
        "r1": _scale(u[0], R_RANGE),
        "nbar1": _scale(u[1], NBAR_RANGE),
        "r2": _scale(u[2], R_RANGE),
        "nbar2": _scale(u[3], NBAR_RANGE),
    }
    return _sweep(fixed, DISPLACEMENT_AXES, count)


def squeeze_temp_sweep(seed: int, rep: int, count: int) -> Sweep:
    """Repetition `rep`: seeded state 1 and k2, squeeze x temperature grid."""
    u = point(seed, "sweep-squeeze-temp", rep, 2)
    v = point(seed, "sweep-squeeze-temp:k2", rep, 2)
    fixed = {
        "r1": _scale(u[0], SQUEEZE_TEMP_R1_RANGE),
        "nbar1": _scale(u[1], SQUEEZE_TEMP_NBAR1_RANGE),
        "k2": _disk(v[0], v[1], K2_RADIUS),
    }
    return _sweep(fixed, SQUEEZE_TEMP_AXES, count)


def stream_pairs(seed: int, first: int, count: int) -> list[Pair]:
    """Pairs first .. first+count-1 of the stream: k1 = 0, g = k2 uniform on
    the disk |g| <= 1.5, r and nbar uniform on their ranges."""
    pairs = []
    for i in range(first, first + count):
        u = point(seed, "oracle-stream", i, 6)
        pairs.append(
            Pair(
                k1=0j,
                r1=_scale(u[2], R_RANGE),
                nbar1=_scale(u[3], NBAR_RANGE),
                k2=_disk(u[0], u[1], K2_RADIUS),
                r2=_scale(u[4], R_RANGE),
                nbar2=_scale(u[5], NBAR_RANGE),
            )
        )
    return pairs

#!/usr/bin/env python3
"""Brute-force oracle convergence versus Fock-space cutoff.

Evaluates the oracle's rung function (the Uhlmann fidelity of one pair of
states truncated at a cutoff) on the oracle's own cutoff ladder, the fixed
x1.5 sequence 2, 3, 4, 6, 9, ... from its first member at or above the
smallest cutoff whose thermal tails both states accept up to the oracle's
default ceiling, the last rung clamped to it, and tabulates the successive
gaps, i.e. the evidence behind the adaptive-cutoff policy (climb that ladder
until the change drops below tol).  The rungs are those of the pair in the
oracle's joint squeeze frame, whose shift s it prints, so each one is the
rung the adaptive oracle computes at that cutoff.  Each rung's
`kept` column is the shape of the matrix its singular values come from,
rows x columns, after the trim of levels and of M's small rows and columns.

Example:
    python3 scripts/cutoff_convergence.py --k2 1.5 --r1 0.3 --r2 0.5
"""

import argparse
import itertools
import sys

from dstfid.algebra import state
from dstfid.cli import parse_complex
from dstfid.fock import (
    DEFAULT_CUTOFF_CEILING,
    ConvergenceError,
    _rung_matrix,
    _svd_fidelity,
    cutoff_ladder,
    fidelity_oracle,
    joint_squeeze_frame,
    thermal_cutoff_requirement,
)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--k1", type=parse_complex, default=0j)
    ap.add_argument("--k2", type=parse_complex, default=complex(1.0))
    ap.add_argument("--r1", type=float, default=0.3)
    ap.add_argument("--r2", type=float, default=0.5)
    ap.add_argument("--nbar1", type=float, default=0.5)
    ap.add_argument("--nbar2", type=float, default=1.0)
    ap.add_argument("--rungs", type=int, default=8,
                    help="number of x1.5 rungs (the ladder stops at the oracle's ceiling)")
    args = ap.parse_args(argv)
    if args.rungs < 1:  # no rung would leave an empty table
        ap.error(f"--rungs must be >= 1, got {args.rungs!r}")

    try:
        s1 = state(args.k1, args.r1, nbar=args.nbar1)
        s2 = state(args.k2, args.r2, nbar=args.nbar2)
        adaptive = fidelity_oracle(s1, s2)
        framed1, framed2, shift = joint_squeeze_frame(s1, s2)
        floor = max(thermal_cutoff_requirement(s1.beta), thermal_cutoff_requirement(s2.beta))
        ladder = cutoff_ladder(floor, DEFAULT_CUTOFF_CEILING)
        rungs = [(n, _rung_matrix(framed1, framed2, n))
                 for n in itertools.islice(ladder, args.rungs)]
    except (ValueError, ConvergenceError) as exc:
        ap.error(str(exc))

    print(f"# adaptive oracle: F = {adaptive.fidelity:.12f} at cutoff "
          f"{adaptive.cutoff_used} (gap {adaptive.convergence_gap:.3e})")
    print(f"# joint squeeze frame: s = {shift:.12g}")
    print("cutoff,kept,fidelity,gap_prev,gap_adaptive")
    prev = None
    for cutoff, m in rungs:
        fid = _svd_fidelity(m)
        gap = "" if prev is None else f"{abs(fid - prev):.6e}"
        print(f"{cutoff},{m.shape[0]}x{m.shape[1]},{fid:.17g},{gap},"
              f"{abs(fid - adaptive.fidelity):.6e}")
        prev = fid
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Brute-force oracle convergence versus Fock-space cutoff.

Runs the adaptive oracle on one pair and tabulates the cutoff ladder it
climbed, one line per rung: the evidence behind its value.  The rungs are
those of the pair in the oracle's joint squeeze frame, whose shift s it
prints.  `kept` is the shape of the matrix a rung's singular values come
from, rows x columns, after the trim of levels and of M's small rows and
columns.  `fidelity` is empty where the gap bound made the rung's SVD
unneeded, and `gap` (to the rung before) is `exact`, the change of
fidelity, or a `bound`, twice the nuclear norm bound of the change in M.

Example:
    python3 scripts/cutoff_convergence.py --k2 1.5 --r1 0.3 --r2 0.5
"""

import argparse
import sys

from dstfid.algebra import state
from dstfid.cli import parse_complex
from dstfid.fock import ConvergenceError, fidelity_oracle


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--k1", type=parse_complex, default=0j)
    ap.add_argument("--k2", type=parse_complex, default=complex(1.0))
    ap.add_argument("--r1", type=float, default=0.3)
    ap.add_argument("--r2", type=float, default=0.5)
    ap.add_argument("--nbar1", type=float, default=0.5)
    ap.add_argument("--nbar2", type=float, default=1.0)
    args = ap.parse_args(argv)

    try:
        res = fidelity_oracle(state(args.k1, args.r1, nbar=args.nbar1),
                              state(args.k2, args.r2, nbar=args.nbar2))
    except (ValueError, ConvergenceError) as exc:
        ap.error(str(exc))

    print(f"# adaptive oracle: F = {res.fidelity:.12f} at cutoff "
          f"{res.cutoff_used} (gap {res.convergence_gap:.3e})")
    print(f"# joint squeeze frame: s = {res.frame_shift:.12g}")
    print("cutoff,kept,fidelity,gap,gap_kind")
    for r in res.rungs:
        fid = "" if r.fidelity is None else f"{r.fidelity:.17g}"
        gap, kind = ("", "") if r.gap is None else (f"{r.gap:.6e}", "exact" if r.exact else "bound")
        print(f"{r.cutoff},{r.kept[0]}x{r.kept[1]},{fid},{gap},{kind}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

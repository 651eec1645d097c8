#!/usr/bin/env python3
"""Fidelity decay along a displacement-mismatch ray.

For a handful of (squeeze, temperature) settings, sweep the mismatch
magnitude |g| and tabulate the matrix-pipeline fidelity next to the pure
coherent-overlap reference exp(-|g|^2).  The gap between the two columns
shows how squeezing and thermal occupation soften the Gaussian falloff.

Writes a plottable CSV to stdout (or --out).
"""

import argparse
import math
import sys

import numpy as np

from dstfid.algebra import state
from dstfid.reduction import FidelityOptions, closed_form

SETTINGS = (
    # (r1, r2, nbar1, nbar2, label)
    (0.0, 0.0, 1e-4, 1e-4, "near-pure"),
    (0.0, 0.0, 0.5, 0.5, "thermal"),
    (0.4, 0.4, 0.5, 0.5, "squeezed-thermal"),
    (0.4, -0.4, 0.5, 2.0, "opposed-squeeze-hot"),
)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--gmax", type=float, default=3.0, help="largest mismatch magnitude")
    ap.add_argument("--points", type=int, default=31, help="samples along the ray")
    ap.add_argument("--phase", type=float, default=0.0,
                    help="mismatch phase in radians (decay is phase-sensitive once squeezed)")
    ap.add_argument("--out", default="-", help="output CSV path (default stdout)")
    args = ap.parse_args(argv)
    if args.points < 1:  # no sample would leave a header-only CSV
        ap.error(f"--points must be >= 1, got {args.points!r}")
    if not 0.0 <= args.gmax < math.inf:  # |g| runs from 0 to it
        ap.error(f"--gmax must be finite and >= 0, got {args.gmax!r}")
    if not math.isfinite(args.phase):  # cos and sin of it are undefined
        ap.error(f"--phase must be finite, got {args.phase!r}")

    direction = complex(math.cos(args.phase), math.sin(args.phase))

    lines = ["label,r1,r2,nbar1,nbar2,abs_g,fidelity,coherent_reference"]
    try:
        for r1, r2, n1, n2, label in SETTINGS:
            # the whole ray is one closed-form batch
            ts = np.linspace(0.0, args.gmax, args.points)
            s1 = state(0.0, r1, nbar=n1)
            batch = closed_form([(s1, state(t * direction, r2, nbar=n2)) for t in ts],
                                FidelityOptions(oracle=False))
            for t, value in zip(ts, batch.value_matrix_pipeline.tolist()):
                lines.append(
                    f"{label},{r1:g},{r2:g},{n1:g},{n2:g},{t:.17g},"
                    f"{value:.17g},{math.exp(-t * t):.17g}"
                )
        text = "\n".join(lines) + "\n"
        if args.out == "-":
            sys.stdout.write(text)
        else:
            with open(args.out, "w") as fh:
                fh.write(text)
    # a bad state, an --out it cannot write, or more --points than memory holds
    except (ValueError, OSError, MemoryError) as exc:
        ap.error(str(exc))
    return 0


if __name__ == "__main__":
    sys.exit(main())

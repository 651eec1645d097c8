#!/usr/bin/env python3
"""First-refusal census of the closed-form batch over the whole domain.

Draws seeded pairs over the whole supported domain -- r uniform in
[-354, 354], beta log-uniform in [1e-300, 744], Re g and Im g of random
sign and magnitude log-uniform in [1e-320, 1e160] -- runs them through
the closed-form batch without the oracle, and counts, for each check, the
rows it refuses first.  Two trees of the package refuse alike
where the two CSVs match, which makes this the acceptance scan of any
change to a check or to the values the checks read.

Writes CSV `check,rows` to stdout: one line per check, in check order, then
`passed`.  Run it as `PYTHONPATH=src python scripts/refusal_census.py --seed 1`.
"""

import argparse
import math
import sys

import numpy as np

from dstfid.reduction import _evaluate


def draw(seed: int, rows: int):
    """(r1, b1, g, r2, b2) of the seeded whole-domain draw."""
    rng = np.random.default_rng(seed)
    r1, r2 = rng.uniform(-354.0, 354.0, (2, rows))
    b1, b2 = np.exp(rng.uniform(math.log(1e-300), math.log(744.0), (2, rows)))
    re, im = rng.choice([-1.0, 1.0], (2, rows)) * np.exp(
        rng.uniform(math.log(1e-320), math.log(1e160), (2, rows)))
    return r1, b1, re + 1j * im, r2, b2


def census(seed: int, rows: int) -> dict[str, int]:
    """First-refusal count per check name, in check order, then 'passed'."""
    r1, b1, g, r2, b2 = draw(seed, rows)
    _, checks, first = _evaluate(g, r1, b1, r2, b2, 1e-8)
    names = [name for name, _, _ in checks] + ["passed"]
    return dict(zip(names, np.bincount(first, minlength=len(names)).tolist()))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=1, help="seed of the draw")
    ap.add_argument("--rows", type=int, default=200_000, help="pairs drawn")
    args = ap.parse_args(argv)
    if args.rows < 1:
        ap.error(f"--rows must be >= 1, got {args.rows}")
    if args.seed < 0:
        ap.error(f"--seed must be >= 0, got {args.seed}")

    try:
        counts = census(args.seed, args.rows)
    except MemoryError as exc:  # more --rows than memory holds
        ap.error(str(exc))
    print("check,rows")
    for name, n in counts.items():
        print(f"{name},{n}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Golden snapshot files: frozen oracle fidelities with full provenance.

One record per line, space-separated, `#` comments for the header:

    re_k1 im_k1 r1 re_k2 im_k2 r2 nbar1 nbar2 fidelity cutoff tol version

Numbers are %.17g so a re-read round-trips bit-exactly; `version` is the
package version that produced the record, and `cutoff` the rung the oracle's
cutoff ladder converged at in the commit that wrote it.  Both `dstfid
snapshot` modes run the oracle through fresh_records: `--regolden` writes
its records of standard_cases, and check_snapshots compares each frozen
fidelity (not its cutoff) with a fresh one, so a change in the oracle itself
is caught loudly.  The one reader of the frozen values without an oracle run
is the closed-form test against the golden records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .algebra import StateParams, state
from .fock import DEFAULT_CUTOFF_CEILING, ConvergenceError, fidelity_oracle
from .reduction import FidelityOptions

__all__ = [
    "SnapshotRecord",
    "default_golden_path",
    "standard_cases",
    "fresh_records",
    "read_snapshots",
    "write_snapshots",
    "check_snapshots",
]

_HEADER = """\
# golden oracle fidelity snapshots
# columns: re_k1 im_k1 r1 re_k2 im_k2 r2 nbar1 nbar2 fidelity cutoff tol version
# produced by the adaptive-cutoff Fock oracle (dstfid snapshot --regolden)
# fidelity is the converged Uhlmann value; cutoff is the rung it converged at
"""


@dataclass(frozen=True)
class SnapshotRecord:
    s1: StateParams
    s2: StateParams
    fidelity: float
    cutoff: int
    tol: float
    version: str

    def line(self) -> str:
        nums = [
            self.s1.k.real,
            self.s1.k.imag,
            self.s1.r,
            self.s2.k.real,
            self.s2.k.imag,
            self.s2.r,
            self.s1.nbar,
            self.s2.nbar,
            self.fidelity,
        ]
        cols = [f"{x:.17g}" for x in nums]
        cols.append(str(self.cutoff))
        cols.append(f"{self.tol:.17g}")
        cols.append(self.version)
        return " ".join(cols)


def default_golden_path() -> Path:
    """golden/fidelity_snapshots.txt at the repository root (src layout)."""
    return Path(__file__).resolve().parents[2] / "golden" / "fidelity_snapshots.txt"


def standard_cases() -> list[tuple[StateParams, StateParams, float]]:
    """The frozen snapshot suite: (s1, s2, oracle tolerance) triples."""
    return [
        # the canonical worked pair
        (state(0.3, 0.2, nbar=0.5), state(0.1 + 0.2j, 0.5, nbar=1.0), 1e-8),
        # identical mixed squeezed state: fidelity must sit at 1
        (state(0.3 + 0.4j, 0.8, nbar=2.0), state(0.3 + 0.4j, 0.8, nbar=2.0), 1e-8),
        # pure thermal pair: matches the exact closed form
        (state(0.0, 0.0, nbar=0.5), state(0.0, 0.0, nbar=1.5), 1e-8),
        # displaced thermal pair (no squeezing)
        (state(0.5, 0.0, nbar=0.2), state(-0.3 + 0.2j, 0.0, nbar=1.0), 1e-8),
        # large separation |g| = 4: deep fidelity tail, still converged
        (state(0.0, 0.3, nbar=0.5), state(4.0, 0.5, nbar=1.0), 1e-8),
    ]


def fresh_records(
    cases: list[tuple[StateParams, StateParams, float]],
    ceiling: int = DEFAULT_CUTOFF_CEILING,
) -> list[SnapshotRecord]:
    """Each (s1, s2, tol) case's oracle record, stamped with the package version.

    The run's ceiling is checked once, before any case, and names no record;
    a failing case's error, the same object, is re-raised prefixed `record i: `.
    """
    FidelityOptions(oracle_ceiling=ceiling)
    records = []
    for i, (s1, s2, tol) in enumerate(cases):
        try:
            res = fidelity_oracle(s1, s2, tol=tol, ceiling=ceiling)
        except (ValueError, ConvergenceError) as exc:
            exc.args = (f"record {i}: {exc}",)
            raise
        records.append(SnapshotRecord(s1, s2, res.fidelity, res.cutoff_used, tol, __version__))
    return records


def read_snapshots(path: Path | str) -> list[SnapshotRecord]:
    records = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        parts = text.split()
        if len(parts) != 12:
            raise ValueError(
                f"{path}:{lineno}: expected 12 columns, found {len(parts)}"
            )
        try:
            nums = [float(p) for p in parts[:9]]
            rec = SnapshotRecord(
                s1=state(complex(nums[0], nums[1]), nums[2], nbar=nums[6]),
                s2=state(complex(nums[3], nums[4]), nums[5], nbar=nums[7]),
                fidelity=nums[8],
                cutoff=int(parts[9]),
                tol=float(parts[10]),
                version=parts[11],
            )
            FidelityOptions(oracle_tol=rec.tol)  # its tol; the ceiling is the run's
        except ValueError as exc:  # a field that is no number, no state or no oracle tol
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        records.append(rec)
    if not records:  # a drift check over no records would check nothing
        raise ValueError(f"{path}: no golden records")
    return records


def write_snapshots(path: Path | str, records: list[SnapshotRecord]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    body = "".join(rec.line() + "\n" for rec in records)
    path.write_text(_HEADER + body)


def check_snapshots(
    records: list[SnapshotRecord], ceiling: int = DEFAULT_CUTOFF_CEILING
) -> list[str]:
    """Re-run every frozen record through fresh_records; report drifts (empty = clean).

    The comparison allows 10x the record's own convergence tolerance: the
    frozen value and a recomputation may land on opposite sides of the
    adaptive ladder's last gap.  fresh_records' errors, named, pass through.
    """
    problems = []
    fresh = fresh_records([(rec.s1, rec.s2, rec.tol) for rec in records], ceiling)
    for i, (rec, new) in enumerate(zip(records, fresh)):
        allowed = 10.0 * rec.tol
        diff = abs(new.fidelity - rec.fidelity)
        if not math.isfinite(diff) or diff > allowed:
            problems.append(
                f"record {i}: fidelity drifted by {diff:.3e} "
                f"(frozen {rec.fidelity:.12g}, fresh {new.fidelity:.12g}, "
                f"allowed {allowed:.1e})"
            )
    return problems

"""Golden snapshot files: frozen oracle fidelities with full provenance.

One record per line, space-separated, `#` comments for the header:

    re_k1 im_k1 r1 re_k2 im_k2 r2 nbar1 nbar2 fidelity cutoff version

Numbers are %.17g so a re-read round-trips bit-exactly; `version` is the
package version that produced the record, and `cutoff` the rung the oracle's
cutoff ladder converged at in the commit that wrote it.  Both `dstfid
snapshot` modes run fresh_records, one closed-form batch at GOLDEN_TOL and
the default ceiling, which no record carries: `--regolden` writes
standard_cases' records, check_snapshots compares each frozen fidelity (not
its cutoff) with a fresh one, so a change in the oracle itself is caught
loudly.  The one reader of the frozen values without an oracle run is the
closed-form test against the golden records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .algebra import StateParams, state
from .reduction import FidelityOptions, closed_form

__all__ = [
    "GOLDEN_TOL",
    "SnapshotRecord",
    "default_golden_path",
    "standard_cases",
    "fresh_records",
    "read_snapshots",
    "check_writable",
    "write_snapshots",
    "check_snapshots",
]

_HEADER = """\
# golden oracle fidelity snapshots
# columns: re_k1 im_k1 r1 re_k2 im_k2 r2 nbar1 nbar2 fidelity cutoff version
# produced by the adaptive-cutoff Fock oracle (dstfid snapshot --regolden)
# fidelity is the converged Uhlmann value; cutoff is the rung it converged at
"""

# The oracle tolerance of every golden record; a drift check allows 10x it.
GOLDEN_TOL = FidelityOptions.oracle_tol


@dataclass(frozen=True)
class SnapshotRecord:
    s1: StateParams
    s2: StateParams
    fidelity: float
    cutoff: int
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
        cols.append(self.version)
        return " ".join(cols)


def default_golden_path() -> Path:
    """golden/fidelity_snapshots.txt at the repository root (src layout)."""
    return Path(__file__).resolve().parents[2] / "golden" / "fidelity_snapshots.txt"


def standard_cases() -> list[tuple[StateParams, StateParams]]:
    """The frozen snapshot suite: (s1, s2) pairs."""
    return [
        # the canonical worked pair
        (state(0.3, 0.2, nbar=0.5), state(0.1 + 0.2j, 0.5, nbar=1.0)),
        # identical mixed squeezed state: fidelity must sit at 1
        (state(0.3 + 0.4j, 0.8, nbar=2.0), state(0.3 + 0.4j, 0.8, nbar=2.0)),
        # pure thermal pair: matches the exact closed form
        (state(0.0, 0.0, nbar=0.5), state(0.0, 0.0, nbar=1.5)),
        # displaced thermal pair (no squeezing)
        (state(0.5, 0.0, nbar=0.2), state(-0.3 + 0.2j, 0.0, nbar=1.0)),
        # large separation |g| = 4: deep fidelity tail, still converged
        (state(0.0, 0.3, nbar=0.5), state(4.0, 0.5, nbar=1.0)),
    ]


def fresh_records(cases: list[tuple[StateParams, StateParams]]) -> list[SnapshotRecord]:
    """Each (s1, s2) case's oracle record at GOLDEN_TOL, stamped with the package version.

    The cases run as one closed_form batch; its error for a refused or failing
    row, the same object, is re-raised prefixed `record i: `.  A record keeps
    the oracle's fidelity, not the batch's value_oracle clamped to [0, 1].
    """
    try:
        cf = closed_form(cases, FidelityOptions(oracle_tol=GOLDEN_TOL))
    except (ValueError, RuntimeError) as exc:  # a refusal or an oracle failure: it has a row
        exc.args = (f"record {exc.row}: {exc}",)
        raise
    return [SnapshotRecord(s1, s2, res.fidelity, res.cutoff_used, __version__)
            for (s1, s2), res in zip(cases, cf.oracle)]


def read_snapshots(path: Path | str) -> list[SnapshotRecord]:
    records = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        parts = text.split()
        if len(parts) != 11:
            raise ValueError(
                f"{path}:{lineno}: expected 11 columns, found {len(parts)}"
            )
        try:
            nums = [float(p) for p in parts[:9]]
            records.append(SnapshotRecord(
                s1=state(complex(nums[0], nums[1]), nums[2], nbar=nums[6]),
                s2=state(complex(nums[3], nums[4]), nums[5], nbar=nums[7]),
                fidelity=nums[8],
                cutoff=int(parts[9]),
                version=parts[10],
            ))
        except ValueError as exc:  # a field that is no number or no state
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    if not records:  # a drift check over no records would check nothing
        raise ValueError(f"{path}: no golden records")
    return records


def check_writable(path: Path | str) -> None:
    """Raise the OSError that write_snapshots(path, ...) would raise, so that
    `snapshot --regolden` refuses its file before the oracle pass: a
    directory, a read-only file, a parent that is missing, a file or
    read-only.  Nothing is left changed: the file is neither truncated nor
    left created (a new one is made and removed), and a missing directory
    is an error, as for `sweep --out`, not made."""
    path = Path(path)
    if path.exists():
        path.open("r+").close()
    else:
        path.open("x").close()
        path.unlink()


def write_snapshots(path: Path | str, records: list[SnapshotRecord]) -> None:
    body = "".join(rec.line() + "\n" for rec in records)
    Path(path).write_text(_HEADER + body)


def check_snapshots(records: list[SnapshotRecord]) -> list[str]:
    """Re-run every frozen record through fresh_records; report drifts (empty = clean).

    The comparison allows 10x GOLDEN_TOL, the tolerance the oracle converges
    to here and in the run that froze the value: the two may land on
    opposite sides of the adaptive ladder's last gap.  fresh_records'
    errors, named, pass through.
    """
    problems = []
    allowed = 10.0 * GOLDEN_TOL
    fresh = fresh_records([(rec.s1, rec.s2) for rec in records])
    for i, (rec, new) in enumerate(zip(records, fresh)):
        diff = abs(new.fidelity - rec.fidelity)
        if not math.isfinite(diff) or diff > allowed:
            problems.append(
                f"record {i}: fidelity drifted by {diff:.3e} "
                f"(frozen {rec.fidelity:.12g}, fresh {new.fidelity:.12g}, "
                f"allowed {allowed:.1e})"
            )
    return problems

#!/usr/bin/env python3
"""dstfid benchmark: three workloads, end-to-end metrics, traced per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from `src/` (nothing
is installed).  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; the lines before it print every
metric with its unit and sample count, the environment, and notes.

Workloads (all closed loop: one client in one process, the next call starts
when the previous one returns):

  sweep-displacement  `dstfid sweep --method closed-form` over re_k2 x im_k2 in
                      [-2, 2]^2, 41 x 41.  Every point shares one undisplaced
                      pair, so the base factor is cached after the first point
                      and the scalar pipeline, printed path and CSV rendering
                      set the time.
  sweep-squeeze-temp  the same CLI path over r2 x nbar2 in [-1, 1] x [0.1, 3],
                      8 x 8.  Every point is a new undisplaced pair, so every
                      point runs a cold base-factor oracle.
  oracle-stream       seeded pairs one at a time through
                      dstfid.fidelity(s1, s2, FidelityOptions()) (the
                      `compute --method all` path): the full oracle ladder
                      twice per pair, the per-pair latency tail.

Every repetition runs in a fresh interpreter (one at a time), with the
BLAS/OpenMP pools pinned to one thread before numpy is imported.  The number
of repetitions is fixed by `--seconds` and the workload's nominal repetition
time, so a seed always measures the same inputs and a run lasts about
`--seconds` on the reference machine.  With `--trace 1` each repetition runs
twice on identical inputs, untraced then traced: the exact counts repeat from
run to run and the tracing overhead is measured on the same work.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import TOLERANCE

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

# size: grid points per sweep axis, or pairs per stream repetition.
# rep_s: nominal seconds of one untraced repetition, process start included,
# on the reference machine (2 cores, Python 3.11, one BLAS thread).
WORKLOADS = {
    "sweep-displacement": {"kind": "sweep", "size": 41, "rep_s": 2.2},
    "sweep-squeeze-temp": {"kind": "sweep", "size": 8, "rep_s": 2.5},
    "oracle-stream": {"kind": "stream", "size": 32, "rep_s": 3.6},
}

# Printed, but left out of the JSON result and so not gated: on the stream the
# p90 falls where the oracle's cutoff ladder adds a rung, and over the
# 256-pair stream of one run it moves about 30% from seed to seed (measured on
# the computed work count, so not timing noise), more than any allowed bound.
REPORTED_ONLY = ("pair_p90_ms",)

# A run must end within 180 s: no repetition starts after LAST_START_S, and
# any still running at RUN_DEADLINE_S is killed and fails the run.
LAST_START_S = 150.0
RUN_DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def run_rep(workload: str, seed: int, rep: int, size: int, trace: bool, env: bool, deadline: float) -> dict:
    spec = {
        "workload": workload,
        "kind": WORKLOADS[workload]["kind"],
        "seed": seed,
        "rep": rep,
        "size": size,
        "trace": trace,
        "env": env,
    }
    child_env = {**os.environ, **THREAD_ENV}
    spec["t0"] = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "rep.py"), json.dumps(spec)],
            cwd=ROOT,
            env=child_env,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"repetition {rep} of {workload} timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"repetition {rep} of {workload} exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolation quantile (statistics' inclusive method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


# ---------------------------------------------------------------------------
# end-to-end metrics
# ---------------------------------------------------------------------------


def end_to_end(workload: str, reps: list[dict]) -> list[tuple[str, float, str, str]]:
    """(name, value, unit, how measured) for every end-to-end metric."""
    n = len(reps)
    setup = statistics.median(r["setup_s"] for r in reps)
    rss = statistics.median(r["peak_rss_mb"] for r in reps)
    total_pairs = sum(r["pairs"] for r in reps)
    rate = total_pairs / sum(r["wall_s"] for r in reps)
    rate_how = f"{total_pairs} pairs / their summed call time, {n} repetitions"
    if WORKLOADS[workload]["kind"] == "sweep":
        per_pair_ms = [1e3 * r["wall_s"] / r["pairs"] for r in reps]
        lat_how = f"sweep time / {reps[0]['pairs']} pairs, over {n} sweeps"
    else:
        per_pair_ms = [1e3 * c for r in reps for c in r["call_s"]]
        lat_how = f"{len(per_pair_ms)} fidelity calls"
    p90_note = "" if len(per_pair_ms) >= 100 else "; fewer than 10 samples lie beyond p90"
    return [
        ("setup_s", setup, "s", f"median of {n} fresh interpreters"),
        ("pairs_per_s", rate, "1/s", rate_how),
        ("pair_p50_ms", statistics.median(per_pair_ms), "ms", lat_how),
        ("pair_p90_ms", quantile(per_pair_ms, 0.9), "ms", lat_how + p90_note),
        ("peak_rss_mb", rss, "MB", f"median peak RSS of {n} processes"),
    ]


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# Boundaries (tracing.BOUNDARIES, as module.attribute) each metric needs.
_CLI = ("dstfid.cli.main", "dstfid.cli.fidelity")
_FID = ("dstfid.cli.fidelity", "dstfid.fidelity", "dstfid.reduction.base_factor", "dstfid.reduction.fidelity_oracle")
_BASE = ("dstfid.reduction.base_factor",)
_ORACLE = ("dstfid.reduction.fidelity_oracle",)
_RUNGS = _ORACLE + ("dstfid.fock.dst_state",)
_EXPM = _RUNGS + ("dstfid.fock.matrix_exp",)
_CONJ = ("dstfid.reduction.squeeze_matrix", "dstfid.reduction.thermal_matrix")


def _merge(totals: list[dict]) -> dict:
    out: dict = {}
    for t in totals:
        for key, val in t.items():
            if isinstance(val, dict):
                slot = out.setdefault(key, dict.fromkeys(val, 0))
                for band, x in val.items():
                    slot[band] += x
            elif isinstance(val, list):
                out.setdefault(key, []).extend(val)
            else:
                out[key] = out.get(key, 0) + val
    return out


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(traced: list[dict], untraced: list[dict]) -> tuple[list[tuple[str, float, str, str]], list[tuple[str, str]]]:
    """(metrics, [(metric, why missing)]) from the traced repetitions."""
    t = _merge([r["layers"] for r in traced])
    gone_boundaries = set(traced[0]["missing"])
    pairs = sum(r["pairs"] for r in traced)
    wall = sum(r["wall_s"] for r in traced)
    rungs = sum(t["rungs"].values())
    cut = sorted(t["final_cutoffs"])
    per = f"over {pairs} pairs"
    rows = [
        ("cli.self_ms_per_pair", 1e3 * _div(t["cli_self_s"], pairs), "ms", per, _CLI),
        ("reduction.closed_form_self_us_per_pair", 1e6 * _div(t["closed_form_self_s"], pairs), "us", per, _FID),
        ("reduction.closed_form_share", _div(t["closed_form_self_s"], wall), "ratio", "of traced wall", _FID),
        ("reduction.logsumexp_calls_per_pair", _div(t["logsumexp_calls"], pairs), "count", per, ("dstfid.reduction.logsumexp",)),
        ("algebra.conjugation_builds_per_pair", _div(t["conjugation_builds"], pairs), "count", per, _CONJ),
        ("reduction.base_factor_ms_per_pair", 1e3 * _div(t["base_factor_s"], pairs), "ms", per, _BASE),
        ("reduction.base_factor_share", _div(t["base_factor_s"], wall), "ratio", "of traced wall", _BASE),
        ("reduction.base_oracle_runs_per_call", _div(t["base_oracle_calls"], t["base_factor_calls"]), "ratio",
         f"over {t['base_factor_calls']} base_factor calls", _BASE + _ORACLE),
        ("fock.oracle_calls_per_pair", _div(t["oracle_calls"], pairs), "count", per, _ORACLE),
        ("fock.oracle_ms_per_call", 1e3 * _div(t["oracle_s"], t["oracle_calls"]), "ms",
         f"over {t['oracle_calls']} oracle calls", _ORACLE),
        ("fock.share", _div(t["oracle_s"], wall), "ratio", "of traced wall", _ORACLE),
        ("fock.rungs_per_oracle", _div(rungs, t["oracle_calls"]), "count", f"{rungs} rungs", _RUNGS),
        ("fock.final_cutoff_p50", statistics.median(cut) if cut else 0.0, "N", f"over {len(cut)} converged oracles", _RUNGS),
        ("fock.final_cutoff_max", float(cut[-1]) if cut else 0.0, "N", f"over {len(cut)} converged oracles", _RUNGS),
        ("fock.oracle_failures", float(t["oracle_failures"]), "count", f"of {t['oracle_calls']} oracle calls", _ORACLE),
    ]
    for metric, key, needs, what in (
        ("fock.expm_ms_per_rung", "expm_s", _EXPM, "matrix_exp spans"),
        ("fock.state_build_ms_per_rung", "state_build_s", _EXPM, "dst_state self time"),
        ("fock.uhlmann_ms_per_rung", "uhlmann_s", _RUNGS, "oracle self time"),
    ):
        rows.append((metric, 1e3 * _div(sum(t[key].values()), rungs), "ms", f"{what}, {rungs} rungs", needs))
        for band, n in t["rungs"].items():
            rows.append((f"{metric}.{band}", 1e3 * _div(t[key][band], n), "ms", f"{what}, {n} rungs", needs))
    rows.append(("fock.dense_work_n3", _div(t["dense_work_n3"], pairs), "N3/pair",
                 f"computed: sum of N^3 over state builds, {per}", _RUNGS))
    untraced_wall = sum(r["wall_s"] for r in untraced)
    rows.append(("trace.overhead_ratio", _div(wall, untraced_wall), "ratio",
                 f"traced {wall:.3f} s / untraced {untraced_wall:.3f} s on the same inputs", ()))
    metrics, missing = [], []
    for name, value, unit, how, needs in rows:
        gone = sorted(gone_boundaries.intersection(needs))
        if gone:
            missing.append((name, f"boundary {', '.join(gone)} not found"))
        else:
            metrics.append((name, value, unit, how))
    return metrics, missing


# ---------------------------------------------------------------------------
# running a workload
# ---------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool, size: int | None = None) -> tuple[list[str], dict]:
    """Run one workload; returns (report lines, result object)."""
    if not (ROOT / "src" / "dstfid" / "__init__.py").is_file():
        raise BenchError(f"no dstfid sources under {ROOT / 'src'}")
    conf = WORKLOADS[workload]
    size = size or conf["size"]
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    untraced: list[dict] = []
    traced: list[dict] = []
    reps = max(1, round(seconds / conf["rep_s"] / (2 if trace else 1)))
    for rep in range(reps):
        if time.monotonic() - start > LAST_START_S:
            break
        untraced.append(run_rep(workload, seed, rep, size, False, rep == 0, deadline))
        if trace:
            traced.append(run_rep(workload, seed, rep, size, True, False, deadline))

    done = untraced + traced
    attempted = sum(r["pairs"] for r in done)
    failed = sum(r["failed"] for r in done)
    errs = [r["max_abs_err"] for r in done]
    max_err = math.inf if None in errs else max(errs)
    env = untraced[0]["env"]
    lines = [
        f"# dstfid benchmark: workload {workload}, seed {seed}, {seconds:g} s, tracing {'on' if trace else 'off'}",
        f"# env: nproc {os.cpu_count()}, cpus usable {env['cpus']}, python {env['python']}, "
        f"numpy {env['numpy']} (OpenBLAS {env['numpy_openblas']}), scipy {env['scipy']} (OpenBLAS {env['scipy_openblas']})",
        "# threads: " + " ".join(f"{k}={v}" for k, v in THREAD_ENV.items()) + " in every repetition's process",
        f"# closed loop, one client, one process; {len(untraced)} untraced"
        + (f" + {len(traced)} traced" if trace else "") + " repetitions, one fresh interpreter each",
    ]
    if trace:
        metrics, missing = per_layer(traced, untraced)
        lines.append("# no layer has a queue or a lock (single-threaded program): no wait-time metric")
    else:
        metrics, missing = end_to_end(workload, untraced), []
    lines += [
        f"{name:<44} {value:<14.6g} {unit:<8} {how}" + ("; printed only, not gated" if name in REPORTED_ONLY else "")
        for name, value, unit, how in metrics
    ]
    lines.append(f"{'max_abs_err':<44} {max_err:<14.3g} {'1':<8} worst |value - Gaussian reference| over {attempted} pairs")
    lines.append(f"{'failed_ratio':<44} {_div(failed, attempted):<14.6g} {'ratio':<8} {failed} of {attempted} pairs")
    lines += [f"{name:<44} {'missing':<14} {'':<8} {why}" for name, why in missing]
    result = {
        "correct": failed == 0 and max_err <= TOLERANCE,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, value, unit, _ in metrics if name not in REPORTED_ONLY
        },
    }
    return lines, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        lines, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One repetition of a workload, in a fresh interpreter.

    python3 perfbench/rep.py '<json spec>'

The spec names the workload, seed, repetition index, size, whether to trace,
and `t0`, the parent's time.monotonic() just before it started this process
(CLOCK_MONOTONIC is shared by all processes, so `setup_s` runs from before
the interpreter started until `import dstfid` is done and the inputs are
built).  Prints one JSON line with the repetition's measurements.

The program's caches (the base-factor oracle's lru_cache included) start as a
user's fresh process has them, because every repetition is a new process.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import platform
import resource
import sys
import time
from pathlib import Path

import inputs
from reference import TOLERANCE, gaussian_fidelity
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent


def _versions() -> dict[str, str]:
    import numpy
    import scipy

    def blas(config) -> str:
        try:
            return str(config(mode="dicts")["Build Dependencies"]["blas"]["version"])
        except (KeyError, TypeError):
            return "unknown"

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas(numpy.show_config),
        "scipy_openblas": blas(scipy.show_config),
    }


def _check(value, want: float) -> float:
    """|value - want|, or inf when the value is missing or not a number."""
    try:
        err = abs(float(value) - want)
    except (TypeError, ValueError):
        return math.inf
    return err if math.isfinite(err) else math.inf


def run_sweep(cli, sweep, out: dict) -> None:
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(sweep.argv)
    except Exception as exc:  # a crash fails every pair of the sweep
        code = repr(exc)
    out["wall_s"] = time.perf_counter() - start
    out["call_s"] = [out["wall_s"]]
    n = len(sweep.pairs)
    out["pairs"] = n
    rows = list(csv.DictReader(line for line in buf.getvalue().splitlines() if not line.startswith("#")))
    if code != 0 or len(rows) != n:
        out["failed"] = n
        out["max_abs_err"] = math.inf
        out["error"] = f"exit {code!r}, {len(rows)} of {n} rows"
        return
    errs = [_check(row["f_pipeline"], gaussian_fidelity(p)) for row, p in zip(rows, sweep.pairs)]
    out["failed"] = sum(e > TOLERANCE for e in errs)
    out["max_abs_err"] = max(errs)


def run_stream(dstfid, pairs, states, out: dict) -> None:
    opts = dstfid.FidelityOptions()
    calls, failed, worst = [], 0, 0.0
    for p, (s1, s2) in zip(pairs, states):
        start = time.perf_counter()
        try:
            rep = dstfid.fidelity(s1, s2, opts)
        except Exception:
            rep = None
        calls.append(time.perf_counter() - start)
        if rep is None:
            failed += 1
            worst = math.inf
            continue
        want = gaussian_fidelity(p)
        err = max(_check(rep.value_matrix_pipeline, want), _check(rep.value_oracle, want))
        failed += err > TOLERANCE
        worst = max(worst, err)
    out.update(wall_s=sum(calls), call_s=calls, pairs=len(pairs), failed=failed, max_abs_err=worst)


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, str(ROOT / "src"))
    out: dict = {}
    if spec["kind"] == "sweep":
        import dstfid.cli as cli

        make = inputs.displacement_sweep if spec["workload"] == "sweep-displacement" else inputs.squeeze_temp_sweep
        sweep = make(spec["seed"], spec["rep"], spec["size"])
    else:
        import dstfid

        first = spec["rep"] * spec["size"]
        pairs = inputs.stream_pairs(spec["seed"], first, spec["size"])
        states = [
            (dstfid.state(p.k1, p.r1, nbar=p.nbar1), dstfid.state(p.k2, p.r2, nbar=p.nbar2))
            for p in pairs
        ]
    out["setup_s"] = time.monotonic() - spec["t0"]

    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        tracer.install()
    if spec["kind"] == "sweep":
        run_sweep(cli, sweep, out)
    else:
        run_stream(dstfid, pairs, states, out)
    if tracer is not None:
        out["layers"] = tracer.totals()
        out["missing"] = tracer.missing
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if spec.get("env"):
        out["env"] = _versions()
        out["env"]["cpus"] = len(os.sched_getaffinity(0))
    if not math.isfinite(out["max_abs_err"]):
        out["max_abs_err"] = None
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Self-check of the benchmark at tiny sizes (about ten seconds).

    python3 perfbench/smoke.py

Runs every workload untraced and traced on tiny grids and streams and checks
that every metric BENCHMARK.json names is printed, with its unit, both in the
report lines and in the final JSON object; that the layers each workload was
chosen for report nonzero work; that every output passed the reference check;
and that a boundary missing from the program turns its metrics into
"missing" rather than zero.  Exits 0 when all checks pass.
"""

from __future__ import annotations

import json
import sys
import time

import run

TINY = {"sweep-displacement": 3, "sweep-squeeze-temp": 2, "oracle-stream": 3}

_CLOSED_FORM = (
    "reduction.closed_form_self_us_per_pair",
    "reduction.logsumexp_calls_per_pair",
    "algebra.conjugation_builds_per_pair",
    "reduction.base_factor_ms_per_pair",
)
_ORACLE = (
    "reduction.base_oracle_runs_per_call",
    "fock.oracle_calls_per_pair",
    "fock.oracle_ms_per_call",
    "fock.rungs_per_oracle",
    "fock.final_cutoff_p50",
    "fock.final_cutoff_max",
    "fock.expm_ms_per_rung",
    "fock.state_build_ms_per_rung",
    "fock.uhlmann_ms_per_rung",
    "fock.dense_work_n3",
)
# Metrics printed besides those BENCHMARK.json gates: the correctness figures
# on every run, the latency tail on untraced runs.
CHECK_PRINTED = (("max_abs_err", "1"), ("failed_ratio", "ratio"))
TAIL_PRINTED = (("pair_p90_ms", "ms"),)

# Per-layer metrics that must be nonzero on each workload: the layers it loads.
EXERCISED = {
    "sweep-displacement": ("cli.self_ms_per_pair",) + _CLOSED_FORM,
    "sweep-squeeze-temp": ("cli.self_ms_per_pair",) + _CLOSED_FORM + _ORACLE,
    "oracle-stream": _CLOSED_FORM + _ORACLE,
}


def check(workload: str, trace: bool, declared: list[dict]) -> list[str]:
    lines, result = run.run(workload, seed=1, seconds=0, trace=trace, size=TINY[workload])
    json.dumps(result, allow_nan=False)  # raises on a value JSON cannot carry
    problems = []
    where = f"{workload} trace={int(trace)}"
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: outputs failed the reference check: {result}")
    got = result["metrics"]
    for m in declared:
        if got.get(m["name"], {}).get("unit") != m["unit"]:
            problems.append(f"{where}: {m['name']} missing from the JSON or not in {m['unit']}: {got.get(m['name'])}")
    printed = [(m["name"], m["unit"]) for m in declared] + list(CHECK_PRINTED) + list(() if trace else TAIL_PRINTED)
    for name, unit in printed:
        if not any(line.split()[:1] == [name] and line.split()[2] == unit for line in lines):
            problems.append(f"{where}: {name} not printed with unit {unit}")
    if set(got) != {m["name"] for m in declared}:
        problems.append(f"{where}: undeclared metrics {sorted(set(got) - {m['name'] for m in declared})}")
    if trace:
        for name in EXERCISED[workload]:
            if not got.get(name, {}).get("value"):
                problems.append(f"{where}: {name} reads zero on the workload chosen to load it")
    return problems


def check_missing_boundary() -> list[str]:
    spec = dict(workload="oracle-stream", seed=1, rep=0, size=1, env=False, deadline=time.monotonic() + 60)
    traced = run.run_rep(trace=True, **spec)
    traced["missing"] = ["dstfid.reduction.logsumexp"]
    metrics, missing = run.per_layer([traced], [traced])
    names = {m[0] for m in metrics}
    if "reduction.logsumexp_calls_per_pair" in names or "reduction.logsumexp_calls_per_pair" not in dict(missing):
        return ["a missing boundary was not reported as missing"]
    return []


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = check_missing_boundary()
    for workload in bench["workloads"]:
        name = workload["name"]
        problems += check(name, False, bench["end_to_end"])
        problems += check(name, True, bench["per_layer"])
        print(f"smoke: {name} done", flush=True)
    for p in problems:
        print(f"FAIL {p}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

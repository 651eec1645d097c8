"""Command-line front end: compute, sweep, verify, snapshot.

Exit codes: 0 ok, 1 verification failure, 2 usage, 3 convergence, 4 I/O.
Machine-readable output is deterministic — no wall clock anywhere, numbers
at 17 significant digits — so identical invocations produce byte-identical
files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .algebra import StateParams, state
from .fock import ConvergenceError
from .golden import (
    check_snapshots,
    compute_record,
    default_golden_path,
    read_snapshots,
    standard_cases,
    write_snapshots,
)
from .reconcile import ReconciliationReport, run_verification
from .reduction import FidelityOptions, FidelityReport, fidelity

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_CONVERGENCE = 3
EXIT_IO = 4

SWEEP_AXES = (
    "re_k1", "im_k1", "r1", "nbar1", "beta1",
    "re_k2", "im_k2", "r2", "nbar2", "beta2",
)

_CSV_COLUMNS = (
    "idx",
    "re_k1", "im_k1", "r1", "nbar1", "beta1",
    "re_k2", "im_k2", "r2", "nbar2", "beta2",
    "re_g", "im_g",
    "f_pipeline", "f_printed", "f_oracle",
    "ratio_pipeline", "ratio_printed",
    "base_exact", "base_printed",
    "dev_printed_pipeline", "dev_pipeline_oracle",
    "oracle_cutoff", "oracle_gap",
    "flags",
)


class UsageError(Exception):
    """Bad invocation that argparse itself cannot catch."""


def parse_complex(text: str) -> complex:
    """Parse the CLI complex syntax `a+bi` (no spaces, optional sign)."""
    cleaned = text.strip()
    if not cleaned or " " in cleaned:
        raise argparse.ArgumentTypeError(f"bad complex number {text!r}")
    try:
        value = complex(cleaned.replace("i", "j").replace("I", "j"))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad complex number {text!r} (expected forms like 0.3, 0.1+0.2i, -2i)"
        ) from None
    return value


# ---------------------------------------------------------------------------
# config files: key = value lines, # comments, flags override
# ---------------------------------------------------------------------------


def load_config(path: str | Path) -> dict[str, str]:
    config: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise UsageError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, val = text.split("=", 1)
        config[key.strip().replace("-", "_")] = val.strip()
    return config


def _resolve(flag_value, config: dict[str, str], key: str, default, cast):
    if flag_value is not None:
        return flag_value
    if key in config:
        try:
            return cast(config[key])
        except ValueError as exc:
            raise UsageError(f"config key {key}: {exc}") from None
    return default


def _options_from(args, config: dict[str, str]) -> tuple[FidelityOptions, str]:
    method = _resolve(getattr(args, "method", None), config, "method",
                      args.default_method, str)
    if method not in ("all", "closed-form", "pipeline", "printed", "oracle"):
        raise UsageError(f"unknown method {method!r}")
    tol = _resolve(args.tol, config, "tol", 1e-8, float)
    oracle_tol = _resolve(args.oracle_tol, config, "oracle_tol", 1e-8, float)
    ceiling = _resolve(args.ceiling, config, "ceiling", 1024, int)
    opts = FidelityOptions(
        tol=tol,
        oracle=method in ("all", "oracle"),
        oracle_tol=oracle_tol,
        oracle_ceiling=ceiling,
    )
    return opts, method


def _build_state(
    k: complex, r: float, nbar: float | None, beta: float | None, which: str
) -> StateParams:
    if (nbar is None) == (beta is None):
        raise UsageError(
            f"state {which}: exactly one of --nbar{which} / --beta{which} is required"
        )
    return state(k, r, nbar=nbar, beta=beta)


# ---------------------------------------------------------------------------
# output rendering
# ---------------------------------------------------------------------------


def _g17(x: float | int | None) -> str:
    if x is None:
        return ""
    if isinstance(x, int):
        return str(x)
    return f"{x:.17g}"


def _fmt_c(z: complex) -> str:
    return f"{z.real:g}{z.imag:+g}i"


def _fid9(v: float | None) -> str:
    if v is None:
        return "skipped"
    if math.isnan(v):
        return "undefined (printed display out of domain)"
    text = f"{v:.9f}"
    if 0.0 < v < 1e-6:
        text += f" ({v:.6e})"
    return text


def _jnum(x):
    if x is None:
        return None
    if isinstance(x, (int, str)):
        return x
    if isinstance(x, complex):
        return {"re": _jnum(x.real), "im": _jnum(x.imag)}
    if math.isfinite(x):
        return float(x)
    return repr(float(x))


def _row_for(idx: int, s1: StateParams, s2: StateParams, rep: FidelityReport) -> str:
    oracle_cutoff = rep.oracle.cutoff_used if rep.oracle else None
    oracle_gap = rep.oracle.convergence_gap if rep.oracle else None
    dev_po = abs(rep.value_printed - rep.value_matrix_pipeline)
    dev_or = (
        abs(rep.value_matrix_pipeline - rep.value_oracle)
        if rep.value_oracle is not None
        else None
    )
    cells = {
        "idx": str(idx),
        "re_k1": _g17(s1.k.real), "im_k1": _g17(s1.k.imag),
        "r1": _g17(s1.r), "nbar1": _g17(s1.nbar), "beta1": _g17(s1.beta),
        "re_k2": _g17(s2.k.real), "im_k2": _g17(s2.k.imag),
        "r2": _g17(s2.r), "nbar2": _g17(s2.nbar), "beta2": _g17(s2.beta),
        "re_g": _g17(rep.g.real), "im_g": _g17(rep.g.imag),
        "f_pipeline": _g17(rep.value_matrix_pipeline),
        "f_printed": _g17(rep.value_printed),
        "f_oracle": _g17(rep.value_oracle),
        "ratio_pipeline": _g17(rep.pipeline.ratio),
        "ratio_printed": _g17(rep.printed.ratio),
        "base_exact": _g17(rep.base.base),
        "base_printed": _g17(rep.base.printed_value),
        "dev_printed_pipeline": _g17(dev_po),
        "dev_pipeline_oracle": _g17(dev_or),
        "oracle_cutoff": _g17(oracle_cutoff),
        "oracle_gap": _g17(oracle_gap),
        "flags": ";".join(f.name for f in rep.discrepancy_flags),
    }
    return ",".join(cells[c] for c in _CSV_COLUMNS)


def _csv_header(meta: dict[str, str]) -> str:
    lines = [f"# dstfid {__version__}"]
    for key in sorted(meta):
        lines.append(f"# {key}: {meta[key]}")
    lines.append(",".join(_CSV_COLUMNS))
    return "\n".join(lines)


def _report_record(s1: StateParams, s2: StateParams, rep: FidelityReport) -> dict:
    rec = {
        "version": __version__,
        "state1": {"k": _jnum(s1.k), "r": s1.r, "nbar": s1.nbar, "beta": s1.beta},
        "state2": {"k": _jnum(s2.k), "r": s2.r, "nbar": s2.nbar, "beta": s2.beta},
        "g": _jnum(rep.g),
        "c_log": _jnum(rep.c_log),
        "value_matrix_pipeline": _jnum(rep.value_matrix_pipeline),
        "value_printed": _jnum(rep.value_printed),
        "value_oracle": _jnum(rep.value_oracle),
        "pipeline": {
            "delta1": _jnum(rep.pipeline.delta1),
            "delta2": _jnum(rep.pipeline.delta2),
            "ratio": _jnum(rep.pipeline.ratio),
            "log_delta1": _jnum(rep.pipeline.log_delta1),
            "log_delta2": _jnum(rep.pipeline.log_delta2),
            "log_ratio": _jnum(rep.pipeline.log_ratio),
            "l": _jnum(complex(rep.pipeline.l_vec[0])),
            "DeltaDenom": _jnum(rep.pipeline.DeltaDenom),
            "annihilation_residual": _jnum(rep.pipeline.annihilation_residual),
            "log_scaled": rep.pipeline.log_scaled,
        },
        "printed": {
            "delta1": _jnum(rep.printed.delta1),
            "delta2": _jnum(rep.printed.delta2),
            "ratio": _jnum(rep.printed.ratio),
            "log_ratio": _jnum(rep.printed.log_ratio),
        },
        "base": {
            "Y": _jnum(rep.base.Y),
            "value": _jnum(rep.base.base),
            "printed_value": _jnum(rep.base.printed_value),
            "printed_domain_error": rep.base.printed_domain_error,
        },
        "oracle": None,
        "flags": [
            {"name": f.name, "magnitude": _jnum(f.magnitude)}
            for f in rep.discrepancy_flags
        ],
    }
    if rep.oracle is not None:
        rec["oracle"] = {
            "fidelity": _jnum(rep.oracle.fidelity),
            "cutoff_used": rep.oracle.cutoff_used,
            "convergence_gap": _jnum(rep.oracle.convergence_gap),
            "spectrum_floor": _jnum(rep.oracle.spectrum_floor),
        }
    return rec


def _human_compute(s1, s2, rep: FidelityReport, method: str) -> str:
    lines = [
        f"state 1: k={_fmt_c(s1.k)} r={s1.r:g} nbar={s1.nbar:.9g} (beta={s1.beta:.9g})",
        f"state 2: k={_fmt_c(s2.k)} r={s2.r:g} nbar={s2.nbar:.9g} (beta={s2.beta:.9g})",
        f"displacement mismatch g = {_fmt_c(rep.g)}",
    ]
    if method in ("all", "closed-form", "pipeline"):
        lines.append(f"fidelity (matrix pipeline):  {_fid9(rep.value_matrix_pipeline)}")
    if method in ("all", "closed-form", "printed"):
        lines.append(f"fidelity (printed formulas): {_fid9(rep.value_printed)}")
    if rep.value_oracle is not None:
        lines.append(
            f"fidelity (fock oracle):      {_fid9(rep.value_oracle)}"
            f"  [cutoff {rep.oracle.cutoff_used}, gap {rep.oracle.convergence_gap:.2e}]"
        )
    lines.append(
        f"ratio delta1/delta2: {rep.pipeline.ratio:.12g}"
        f"   base factor (exact): {rep.base.base:.12g}"
        f" (printed display: {rep.base.printed_value:.6g})"
    )
    if rep.discrepancy_flags:
        flagtxt = ", ".join(
            f"{f.name} ({f.magnitude:.2e})" for f in rep.discrepancy_flags
        )
        lines.append(f"flags: {flagtxt}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# compute
# ---------------------------------------------------------------------------


def cmd_compute(args) -> int:
    config = load_config(args.config) if args.config else {}
    opts, method = _options_from(args, config)
    s1 = _build_state(args.k1, args.r1, args.nbar1, args.beta1, "1")
    s2 = _build_state(args.k2, args.r2, args.nbar2, args.beta2, "2")
    rep = fidelity(s1, s2, opts)
    if args.format == "human":
        print(_human_compute(s1, s2, rep, method))
    elif args.format == "csv":
        meta = {"command": "compute", "method": method,
                "oracle_tol": _g17(opts.oracle_tol), "ceiling": str(opts.oracle_ceiling)}
        print(_csv_header(meta))
        print(_row_for(0, s1, s2, rep))
    else:  # record
        print(json.dumps(_report_record(s1, s2, rep), sort_keys=True, indent=1))
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepSpec:
    """A validated sweep request: up to two linear axes over state parameters,
    fixed values for everything else, and output/method/tolerance choices."""

    axes: tuple[tuple[str, float, float, int], ...]
    fixed_k1: complex
    fixed_r1: float
    fixed_nbar1: float | None
    fixed_beta1: float | None
    fixed_k2: complex
    fixed_r2: float
    fixed_nbar2: float | None
    fixed_beta2: float | None
    out: str
    method: str
    opts: FidelityOptions


def _parse_axis(text: str) -> tuple[str, float, float, int]:
    try:
        name, rng = text.split("=", 1)
        start_s, stop_s, count_s = rng.split(":")
        name = name.strip()
        start, stop, count = float(start_s), float(stop_s), int(count_s)
    except ValueError:
        raise UsageError(
            f"bad sweep axis {text!r} (expected name=start:stop:count)"
        ) from None
    if name not in SWEEP_AXES:
        raise UsageError(f"unknown sweep axis {name!r} (choose from {', '.join(SWEEP_AXES)})")
    if count < 1:
        raise UsageError(f"sweep axis {name}: count must be >= 1")
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise UsageError(f"sweep axis {name}: range must be finite")
    return name, start, stop, count


def build_sweep_spec(args, config: dict[str, str]) -> SweepSpec:
    axes = tuple(_parse_axis(a) for a in args.sweep)
    if not axes:
        raise UsageError("sweep requires at least one --sweep axis")
    if len(axes) > 2:
        raise UsageError("at most 2 swept axes are supported (tabular output)")
    names = [a[0] for a in axes]
    if len(set(names)) != len(names):
        raise UsageError("sweep axes must be distinct")
    opts, method = _options_from(args, config)
    return SweepSpec(
        axes=axes,
        fixed_k1=args.k1, fixed_r1=args.r1,
        fixed_nbar1=args.nbar1, fixed_beta1=args.beta1,
        fixed_k2=args.k2, fixed_r2=args.r2,
        fixed_nbar2=args.nbar2, fixed_beta2=args.beta2,
        out=args.out,
        method=method,
        opts=opts,
    )


def _grid_values(axis: tuple[str, float, float, int]) -> list[float]:
    _, start, stop, count = axis
    if count == 1:
        return [start]
    return [float(v) for v in np.linspace(start, stop, count)]


def _sweep_states(spec: SweepSpec, assignment: dict[str, float]) -> tuple[StateParams, StateParams]:
    re_k1 = assignment.get("re_k1", spec.fixed_k1.real)
    im_k1 = assignment.get("im_k1", spec.fixed_k1.imag)
    re_k2 = assignment.get("re_k2", spec.fixed_k2.real)
    im_k2 = assignment.get("im_k2", spec.fixed_k2.imag)
    r1 = assignment.get("r1", spec.fixed_r1)
    r2 = assignment.get("r2", spec.fixed_r2)

    def temp(which: str, fixed_nbar, fixed_beta):
        nbar = assignment.get(f"nbar{which}", fixed_nbar)
        beta = assignment.get(f"beta{which}", fixed_beta)
        if f"nbar{which}" in assignment:
            beta = None
        elif f"beta{which}" in assignment:
            nbar = None
        if (nbar is None) == (beta is None):
            raise UsageError(
                f"state {which}: exactly one temperature source required "
                f"(--nbar{which}, --beta{which}, or a swept axis)"
            )
        return nbar, beta

    nbar1, beta1 = temp("1", spec.fixed_nbar1, spec.fixed_beta1)
    nbar2, beta2 = temp("2", spec.fixed_nbar2, spec.fixed_beta2)
    s1 = state(complex(re_k1, im_k1), r1, nbar=nbar1, beta=beta1)
    s2 = state(complex(re_k2, im_k2), r2, nbar=nbar2, beta=beta2)
    return s1, s2


def run_sweep(spec: SweepSpec) -> str:
    """Evaluate the grid and render the CSV (deterministic row order)."""
    meta = {
        "command": "sweep",
        "method": spec.method,
        "oracle_tol": _g17(spec.opts.oracle_tol),
        "ceiling": str(spec.opts.oracle_ceiling),
    }
    for i, (name, start, stop, count) in enumerate(spec.axes):
        meta[f"axis{i}"] = f"{name}={_g17(start)}:{_g17(stop)}:{count}"
    lines = [_csv_header(meta)]
    grids = [_grid_values(a) for a in spec.axes]
    idx = 0
    if len(grids) == 1:
        combos = [(v,) for v in grids[0]]
    else:
        combos = [(u, v) for u in grids[0] for v in grids[1]]
    for values in combos:
        assignment = {spec.axes[i][0]: values[i] for i in range(len(values))}
        s1, s2 = _sweep_states(spec, assignment)
        rep = fidelity(s1, s2, spec.opts)
        lines.append(_row_for(idx, s1, s2, rep))
        idx += 1
    return "\n".join(lines) + "\n"


def cmd_sweep(args) -> int:
    config = load_config(args.config) if args.config else {}
    spec = build_sweep_spec(args, config)
    text = run_sweep(spec)
    if spec.out == "-":
        sys.stdout.write(text)
    else:
        Path(spec.out).write_text(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _human_verify(report: ReconciliationReport) -> str:
    lines = [
        f"dstfid {__version__} verification — preset {report.preset} "
        f"({report.pair_points} pair points, {report.self_points} self points)",
        "",
        "threshold checks:",
    ]
    for c in report.checks:
        status = "pass" if c.passed else "FAIL"
        lines.append(
            f"  [{status}] {c.name:<32} worst {c.worst:.3e}  threshold {c.threshold:g}"
        )
        if c.detail and not c.passed:
            lines.append(f"         {c.detail}")
    lines.append("")
    lines.append("printed-formula reconciliation:")
    for e in report.entries:
        lines.append(
            f"  {e.formula:<36} {e.verdict:<15} max dev {e.max_abs_deviation:.3e}"
        )
        if e.worst_params:
            lines.append(f"      worst at {e.worst_params}")
        lines.append(f"      {e.note}")
    lines.append("")
    lines.append(f"result: {'PASS' if report.passed else 'FAIL'}")
    return "\n".join(lines)


def cmd_verify(args) -> int:
    config = load_config(args.config) if args.config else {}
    preset = _resolve(args.preset, config, "preset", "full", str)
    tol = _resolve(args.tol, config, "tol", 1e-8, float)
    ceiling = _resolve(args.ceiling, config, "ceiling", 512, int)
    report = run_verification(preset=preset, tol=tol, ceiling=ceiling)
    if args.format == "record":
        payload = report.as_dict()
        payload["version"] = __version__
        print(json.dumps(payload, sort_keys=True, indent=1, default=_jnum))
    else:
        print(_human_verify(report))
    if not report.passed:
        return EXIT_VERIFY
    return EXIT_OK


# ---------------------------------------------------------------------------
# snapshot
# ---------------------------------------------------------------------------


def cmd_snapshot(args) -> int:
    path = Path(args.file) if args.file else default_golden_path()
    ceiling = args.ceiling if args.ceiling is not None else 1024
    if args.regolden:
        records = [
            compute_record(s1, s2, tol, __version__, ceiling=ceiling)
            for s1, s2, tol in standard_cases()
        ]
        write_snapshots(path, records)
        print(f"wrote {len(records)} golden records to {path}")
        return EXIT_OK
    problems = check_snapshots(path, __version__, ceiling=ceiling)
    count = len(read_snapshots(path))
    if problems:
        for p in problems:
            print(p, file=sys.stderr)
        print(f"{len(problems)} of {count} golden records drifted", file=sys.stderr)
        return EXIT_VERIFY
    print(f"{count} golden records verified against a fresh oracle run")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def _add_state_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k1", type=parse_complex, default=0j,
                   help="displacement of state 1, a+bi syntax (default 0)")
    p.add_argument("--r1", type=float, default=0.0, help="squeeze of state 1")
    p.add_argument("--nbar1", type=float, default=None, help="mean photon number of state 1")
    p.add_argument("--beta1", type=float, default=None, help="inverse temperature of state 1")
    p.add_argument("--k2", type=parse_complex, default=0j, help="displacement of state 2")
    p.add_argument("--r2", type=float, default=0.0, help="squeeze of state 2")
    p.add_argument("--nbar2", type=float, default=None, help="mean photon number of state 2")
    p.add_argument("--beta2", type=float, default=None, help="inverse temperature of state 2")


def _add_common(p: argparse.ArgumentParser, default_method: str) -> None:
    p.add_argument("--method", choices=("all", "closed-form", "pipeline", "printed", "oracle"),
                   default=None, help=f"which paths to evaluate (default {default_method})")
    p.add_argument("--tol", type=float, default=None, help="comparison tolerance (default 1e-8)")
    p.add_argument("--oracle-tol", dest="oracle_tol", type=float, default=None,
                   help="oracle convergence tolerance (default 1e-8)")
    p.add_argument("--ceiling", type=int, default=None, help="oracle cutoff ceiling")
    p.add_argument("--config", default=None, help="key = value config file; flags override")
    p.set_defaults(default_method=default_method)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dstfid",
        description="Fidelity of displaced squeezed thermal states, three ways: "
        "exact matrix pipeline, printed closed-form comparison, Fock oracle.",
    )
    parser.add_argument("--version", action="version", version=f"dstfid {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("compute", help="fidelity of one pair of states")
    _add_state_args(p)
    _add_common(p, default_method="all")
    p.add_argument("--format", choices=("human", "csv", "record"), default="human")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("sweep", help="parameter sweep over one or two axes")
    _add_state_args(p)
    _add_common(p, default_method="closed-form")
    p.add_argument("--sweep", action="append", default=[],
                   metavar="AXIS=START:STOP:COUNT",
                   help=f"swept axis (repeatable, max 2); axes: {', '.join(SWEEP_AXES)}")
    p.add_argument("--out", default="-", help="output CSV path (default stdout)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="run the standard grids and reconciliation report")
    p.add_argument("--preset", choices=("full", "quick"), default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--ceiling", type=int, default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--format", choices=("human", "record"), default="human")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("snapshot", help="check (default) or regenerate golden oracle records")
    p.add_argument("--file", default=None, help="snapshot path (default: repo golden file)")
    p.add_argument("--regolden", action="store_true",
                   help="rewrite the golden file from a fresh oracle run")
    p.add_argument("--ceiling", type=int, default=None)
    p.set_defaults(func=cmd_snapshot)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: compute, sweep, verify, snapshot.

Exit codes: 0 ok, 1 verification failure or a refused pipeline check,
2 usage (a grid too large to allocate too), 3 convergence, 4 I/O.
Each input is read once: main loads the config file, typing and checking
each value as it is read (a bad one names its file:line), and compute and
sweep build each state from its fields under one temperature rule.
Machine-readable output is deterministic — no wall clock anywhere; CSV
numbers at 17 significant digits, record numbers as each float's shortest
round-trip repr, with non-finite values as the strings "inf", "-inf" and
"nan" — so identical invocations at the same BLAS thread count produce
byte-identical files.  At another thread count the oracle's
BLAS calls may round differently, moving its columns in the last digits.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .algebra import StateParams, state
from .fock import ConvergenceError
from .golden import (
    check_snapshots,
    check_writable,
    default_golden_path,
    fresh_records,
    read_snapshots,
    standard_cases,
    write_snapshots,
)
from .reconcile import PRESETS, ReconciliationReport, run_verification
from .reduction import (
    ClosedForm,
    FidelityOptions,
    FidelityReport,
    PipelineCheckError,
    _complex,
    _pair,
    _sci,
    closed_form_columns,
    fidelity,  # noqa: F401  (perfbench's tracer wraps this name here)
)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_CONVERGENCE = 3
EXIT_IO = 4

# The fields of a state, in sweep-axis and CSV-column order: each field's
# name and the StateParams value its cell shows.
_STATE_CELLS = (
    ("re_k", lambda s: s.k.real),
    ("im_k", lambda s: s.k.imag),
    ("r", lambda s: s.r),
    ("nbar", lambda s: s.nbar),
    ("beta", lambda s: s.beta),
)

SWEEP_AXES = tuple(f + w for w in "12" for f, _ in _STATE_CELLS)

METHODS = ("all", "closed-form", "pipeline", "printed", "oracle")

_CSV_COLUMNS = (
    "idx", *SWEEP_AXES,
    "re_g", "im_g",
    "f_pipeline", "f_printed", "f_oracle",
    "ratio_pipeline", "ratio_printed",
    "base_exact", "base_printed",
    "dev_printed_pipeline", "dev_pipeline_oracle",
    "oracle_cutoff", "oracle_gap",
    "flags",
)


class UsageError(ValueError):
    """Bad invocation that argparse itself cannot catch; main reports it as
    it reports any ValueError (exit 2)."""


def parse_complex(text: str) -> complex:
    """Parse the CLI complex syntax `a+bi` (no spaces, optional sign, a trailing i or I)."""
    cleaned = text.strip()
    if not cleaned or " " in cleaned:
        raise argparse.ArgumentTypeError(f"bad complex number {text!r}")
    try:  # only a trailing i is the unit, so inf and Infinity read as numbers
        value = complex(cleaned[:-1] + "j" if cleaned[-1] in "iI" else cleaned)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad complex number {text!r} (expected forms like 0.3, 0.1+0.2i, -2i)"
        ) from None
    return value


# ---------------------------------------------------------------------------
# config files: key = value lines, # comments, flags override
# ---------------------------------------------------------------------------


def _one_of(choices: tuple[str, ...]):
    """A config converter that accepts exactly the given choices."""
    def check(text: str) -> str:
        if text not in choices:
            raise ValueError(f"invalid choice {text!r} (choose from {', '.join(choices)})")
        return text
    return check


# One key set for every subcommand, so one file can serve them all: each key
# with the converter that types its value and, by its option's rule, checks it.
CONFIG_KEYS = {"tol": lambda v: FidelityOptions(tol=float(v)).tol,
               "oracle_tol": lambda v: FidelityOptions(oracle_tol=float(v)).oracle_tol,
               "ceiling": lambda v: FidelityOptions(oracle_ceiling=int(v)).oracle_ceiling,
               "method": _one_of(METHODS), "preset": _one_of(PRESETS)}


def load_config(path: str | Path) -> dict:
    config = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise UsageError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, val = text.split("=", 1)
        key = key.strip().replace("-", "_")
        if key not in CONFIG_KEYS:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r} "
                             f"(choose from {', '.join(CONFIG_KEYS)})")
        try:
            config[key] = CONFIG_KEYS[key](val.strip())
        except ValueError as exc:
            raise UsageError(f"{path}:{lineno}: config key {key}: {exc}") from None
    return config


def _resolve(flag_value, config: dict, key: str, default):
    """The flag, else the config value, else the default."""
    return flag_value if flag_value is not None else config.get(key, default)


def _options_from(args, config: dict) -> tuple[FidelityOptions, str]:
    method = _resolve(args.method, config, "method", args.default_method)
    opts = FidelityOptions(
        tol=_resolve(args.tol, config, "tol", FidelityOptions.tol),
        oracle=method in ("all", "oracle"),
        oracle_tol=_resolve(args.oracle_tol, config, "oracle_tol", FidelityOptions.oracle_tol),
        oracle_ceiling=_resolve(args.ceiling, config, "ceiling", FidelityOptions.oracle_ceiling),
    )
    return opts, method


# ---------------------------------------------------------------------------
# output rendering
# ---------------------------------------------------------------------------


def _g17(x: float) -> str:
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


def _json(x):
    """x as JSON values: a dataclass by its fields, a tuple or list as a list,
    a complex number as {"re", "im"} and a non-finite float as its repr."""
    if is_dataclass(x):
        return {f.name: _json(getattr(x, f.name)) for f in fields(x)}
    if isinstance(x, (tuple, list)):
        return [_json(v) for v in x]
    if isinstance(x, complex):
        return {"re": _json(x.real), "im": _json(x.imag)}
    if isinstance(x, float) and not math.isfinite(x):
        return repr(float(x))
    return x


def _cells(values) -> list[str]:
    """One CSV cell per value, at 17 significant digits, each distinct bit
    pattern formatted once (so -0 and 0, and NaN payloads, stay apart): one
    sort, as np.unique(return_inverse=True) without its per-call overhead."""
    bits = np.ravel(np.asarray(values, dtype=float)).view(np.int64)
    order = bits.argsort()
    keys = bits[order]
    first = np.concatenate(([True], keys[1:] != keys[:-1]))
    at = np.empty_like(order)
    at[order] = first.cumsum() - 1
    return np.array([_g17(x) for x in keys[first].view(float).tolist()], dtype=object)[at].tolist()


def _csv_rows(states: list, cf: ClosedForm) -> list[str]:
    """The CSV rows of batch cf, cells in _CSV_COLUMNS order, rendered a
    column at a time: states holds the ten state columns' cells, and the
    oracle columns are filled when cf carries the oracle's.  Rows with the
    same flags share one joined flags cell."""
    n = len(cf)
    value_pipe, flags = cf.value_matrix_pipeline, cf.flags
    f_oracle = dev_oracle = cutoff = gap = [""] * n
    if cf.oracle is not None:
        f_oracle = _cells(cf.value_oracle)
        dev_oracle = _cells(flags["pipeline-vs-oracle"][1])
        cutoff = [str(o.cutoff_used) for o in cf.oracle]
        gap = _cells([o.convergence_gap for o in cf.oracle])
    flag_sets, at = np.unique(sum(np.left_shift(mask, b, dtype=np.int64)
                                  for b, (mask, _) in enumerate(flags.values())),
                              return_inverse=True)
    names = [";".join(f for b, f in enumerate(flags) if s >> b & 1) for s in flag_sets.tolist()]
    columns = (
        [str(i) for i in range(n)], *states,
        _cells(cf.g.real), _cells(cf.g.imag),
        _cells(value_pipe), _cells(cf.value_printed), f_oracle,
        _cells(cf.pipeline.ratio), _cells(cf.printed.ratio),
        _cells(cf.base.base), _cells(cf.base.printed_value),
        _cells(np.abs(cf.value_printed - value_pipe)), dev_oracle, cutoff, gap,
        np.array(names, dtype=object)[np.ravel(at)].tolist(),
    )
    return [",".join(row) for row in zip(*columns)]


def _csv_meta(command: str, method: str, opts: FidelityOptions) -> dict[str, str]:
    """The CSV preamble keys that compute and sweep share."""
    return {"command": command, "method": method,
            "oracle_tol": _g17(opts.oracle_tol), "ceiling": str(opts.oracle_ceiling)}


def _csv_header(meta: dict[str, str]) -> str:
    lines = [f"# dstfid {__version__}"]
    for key in sorted(meta):
        lines.append(f"# {key}: {meta[key]}")
    lines.append(",".join(_CSV_COLUMNS))
    return "\n".join(lines)


def _report_record(s1: StateParams, s2: StateParams, rep: FidelityReport) -> dict:
    """The report's fields as JSON, but: the printed trace keeps only the
    values it has, the exact base factor is keyed value, the flags are keyed
    flags, and the states carry nbar next to beta."""
    rec = _json(rep)
    rec["printed"] = {k: rec["printed"][k] for k in ("delta1", "delta2", "ratio", "log_ratio")}
    rec["base"]["value"] = rec["base"].pop("base")
    rec["flags"] = rec.pop("discrepancy_flags")
    for key, s in (("state1", s1), ("state2", s2)):
        rec[key] = {**_json(s), "nbar": _json(s.nbar)}
    rec["version"] = __version__
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


def cmd_compute(args, config: dict) -> int:
    opts, method = _options_from(args, config)
    s1, s2 = (_state_of(_fixed_fields(args, w, {})) for w in "12")
    cf = _pair(s1, s2, opts)
    if args.format == "csv":  # a batch of one, rendered as a sweep's rows are
        cells = [[_g17(get(s))] for s in (s1, s2) for _, get in _STATE_CELLS]
        print(_csv_header(_csv_meta("compute", method, opts)))
        print(_csv_rows(cells, cf)[0])
    elif args.format == "human":
        print(_human_compute(s1, s2, cf.report(0), method))
    else:  # record
        print(json.dumps(_report_record(s1, s2, cf.report(0)), sort_keys=True, indent=1,
                         allow_nan=False))
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


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
    if not math.isfinite(stop - start):
        raise UsageError(f"sweep axis {name}: span stop - start leaves double range")
    return name, start, stop, count


def _fixed_fields(args, which: str, swept: dict[str, int]) -> dict[str, float]:
    """State `which`'s fields as the flags fix them: re_k, im_k, r and the
    temperature, keyed nbar or beta, which is exactly one of an nbar axis, a
    beta axis, --nbarN and --betaN.  A swept field holds 1.0, which every
    field accepts, for the axis values to replace."""
    k = getattr(args, f"k{which}")
    fields = {"re_k": k.real, "im_k": k.imag, "r": getattr(args, f"r{which}")}
    temps = {key: getattr(args, key + which) for key in ("nbar", "beta")}
    given = {key: value for key, value in temps.items() if value is not None}
    if swept.keys() >= temps.keys():
        raise UsageError(
            f"state {which}: sweep nbar{which} or beta{which}, not both (one temperature)")
    if len(given) + len(swept.keys() & temps.keys()) != 1:
        raise UsageError(f"state {which}: exactly one of --nbar{which} / --beta{which} "
                         "is required")
    return {**fields, **given, **dict.fromkeys(swept, 1.0)}


def _grid_values(axis: tuple[str, float, float, int]) -> list[float]:
    _, start, stop, count = axis
    if count == 1:
        return [start]
    return [float(v) for v in np.linspace(start, stop, count)]


def _spread(column: np.ndarray, axis: int | None, shape: tuple[int, int]) -> np.ndarray:
    """A field's values laid over the grid in row order (axis 0 outer): the
    fixed value (axis None), or one value per point of its axis."""
    nu, nv = shape
    if axis is None:
        return np.repeat(column, nu * nv)
    return np.repeat(column, nv) if axis == 0 else np.tile(column, nu)


def _state_of(fields: dict[str, float]) -> StateParams:
    """A state from its fields: re_k, im_k, r and one of nbar, beta."""
    return state(complex(fields["re_k"], fields["im_k"]), fields["r"],
                 nbar=fields.get("nbar"), beta=fields.get("beta"))


def _checked(fields: dict[str, float]) -> StateParams | None:
    """_state_of, or None where StateParams refuses a field."""
    try:
        return _state_of(fields)
    except ValueError:
        return None


def run_sweep(args, config: dict) -> str:
    """Check the sweep request -- up to two distinct linear axes over state
    fields, the options, each state's fixed fields -- then evaluate the grid
    as one closed-form batch (plus the oracle per row when the method asks
    for it) and render the CSV in grid order, a column at a time.  The first
    failing row's own error is raised, naming its row, and no rows are written."""
    axes = [_parse_axis(a) for a in args.sweep]
    if not axes:
        raise UsageError("sweep requires at least one --sweep axis")
    if len(axes) > 2:
        raise UsageError("at most 2 swept axes are supported (tabular output)")
    names = [name for name, *_ in axes]
    if len(set(names)) != len(names):
        raise UsageError("sweep axes must be distinct")
    opts, method = _options_from(args, config)
    # per state, the fields the axes sweep (field -> axis index)
    swept = [{name[:-1]: a for a, name in enumerate(names) if name[-1] == w} for w in "12"]
    fixed = [_fixed_fields(args, w, on_axes) for w, on_axes in zip("12", swept)]

    meta = _csv_meta("sweep", method, opts)
    for i, (name, start, stop, count) in enumerate(axes):
        meta[f"axis{i}"] = f"{name}={_g17(start)}:{_g17(stop)}:{count}"
    grids = [_grid_values(a) for a in axes]
    shape = (len(grids[0]), len(grids[1]) if len(grids) == 2 else 1)

    def assignment(idx: int) -> dict[str, float]:
        at = divmod(idx, shape[1])
        return {name: grids[a][at[a]] for a, name in enumerate(names)}

    def named(idx: int, exc: Exception) -> Exception:
        where = ", ".join(f"{k}={_g17(v)}" for k, v in assignment(idx).items())
        exc.args = (f"sweep row {idx} ({where}): {exc}; no rows written",)
        return exc

    # Each field is fixed or one axis's, so every distinct value is checked
    # and converted once, as a state with that value in place: per state and
    # field, (axis, one state per axis point) for a swept field and (None,
    # [the state at the fixed values]) for the others.  The nbar and beta
    # cells both follow the temperature.
    sources = []
    for on_axes, at_rest in zip(swept, fixed):
        src = dict.fromkeys((f for f, _ in _STATE_CELLS), (None, [_checked(at_rest)]))
        src.update((f, (a, [_checked({**at_rest, f: v}) for v in grids[a]]))
                   for f, a in on_axes.items())
        src["nbar"] = src["beta"] = src["nbar" if "nbar" in on_axes else "beta"]
        sources.append(src)

    def column(j: int, field: str, get, dtype=float) -> np.ndarray:
        a, states = sources[j][field]
        return _spread(np.array([np.nan if s is None else get(s) for s in states],
                                dtype=dtype), a, shape)

    # A refused source state reads as NaN, which no state holds, so a row is
    # refused exactly when a field is NaN; rebuilding the first raises its error.
    fields = [column(j, f, get) for j in (0, 1) for f, get in _STATE_CELLS]
    refused = np.isnan(fields).any(axis=0)
    if refused.any():
        idx = int(np.argmax(refused))
        values = assignment(idx)
        try:
            for w, on_axes, at_rest in zip("12", swept, fixed):
                _state_of({**at_rest, **{f: values[f + w] for f in on_axes}})
        except ValueError as exc:
            raise named(idx, exc) from None
    # the state cells: each source value formatted once, spread as the value is
    cells = [column(j, f, lambda s: _g17(get(s)), object).tolist()
             for j in (0, 1) for f, get in _STATE_CELLS]
    inputs = []
    for re, im, r, _, beta in (fields[:5], fields[5:]):
        inputs += [_complex(re, im), r, beta]
    try:
        cf = closed_form_columns(*inputs, opts)
    except (ValueError, RuntimeError) as exc:
        if not hasattr(exc, "row"):  # neither a refused row nor its oracle's failure
            raise
        raise named(exc.row, exc) from None
    return "\n".join([_csv_header(meta), *_csv_rows(cells, cf)]) + "\n"


def cmd_sweep(args, config: dict) -> int:
    text = run_sweep(args, config)
    if args.out == "-":
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text)
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


def cmd_verify(args, config: dict) -> int:
    if args.tol is not None:
        raise UsageError("verify takes the oracle tolerance as --oracle-tol; --tol is the "
                         "flag threshold of compute and sweep")
    report = run_verification(
        preset=_resolve(args.preset, config, "preset", "full"),
        tol=_resolve(args.oracle_tol, config, "oracle_tol", FidelityOptions.oracle_tol),
        ceiling=_resolve(args.ceiling, config, "ceiling", FidelityOptions.oracle_ceiling),
    )
    if args.format == "record":
        payload = {**_json(report), "passed": report.passed, "version": __version__}
        print(json.dumps(payload, sort_keys=True, indent=1, allow_nan=False))
    else:
        print(_human_verify(report))
    if not report.passed:
        return EXIT_VERIFY
    return EXIT_OK


# ---------------------------------------------------------------------------
# snapshot
# ---------------------------------------------------------------------------


def cmd_snapshot(args, config: dict) -> int:
    path = Path(args.file) if args.file is not None else default_golden_path()
    if args.regolden:
        check_writable(path)  # an unwritable file is refused before the oracle pass
        records = fresh_records(standard_cases())
        write_snapshots(path, records)
        print(f"wrote {len(records)} golden records to {path}")
        return EXIT_OK
    records = read_snapshots(path)
    problems = check_snapshots(records)
    if problems:
        for p in problems:
            print(p, file=sys.stderr)
        print(f"{len(problems)} of {len(records)} golden records drifted", file=sys.stderr)
        return EXIT_VERIFY
    print(f"{len(records)} golden records verified against a fresh oracle run")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def _add_state_args(p: argparse.ArgumentParser) -> None:
    for w in "12":
        p.add_argument(f"--k{w}", type=parse_complex, default=0j,
                       help=f"displacement of state {w}, a+bi syntax (default 0)")
        p.add_argument(f"--r{w}", type=float, default=0.0,
                       help=f"squeeze of state {w} (default 0)")
        p.add_argument(f"--nbar{w}", type=float, help=f"mean photon number of state {w}")
        p.add_argument(f"--beta{w}", type=float, help=f"inverse temperature of state {w}")


def _add_oracle_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--oracle-tol", type=float, help="oracle convergence tolerance "
                   f"(default {_sci(FidelityOptions.oracle_tol)})")
    p.add_argument("--ceiling", type=int,
                   help=f"oracle cutoff ceiling (default {FidelityOptions.oracle_ceiling})")
    p.add_argument("--config", help="key = value config file; flags override")


def _add_common(p: argparse.ArgumentParser, default_method: str) -> None:
    p.add_argument("--method", choices=METHODS,
                   help="whether the oracle runs (all, oracle) and which fidelities compute's "
                   f"human format prints; the closed form always runs (default {default_method})")
    p.add_argument("--tol", type=float,
                   help=f"comparison tolerance (default {_sci(FidelityOptions.tol)})")
    _add_oracle_args(p)
    p.set_defaults(default_method=default_method)


def _compute_args(p: argparse.ArgumentParser) -> None:
    _add_state_args(p)
    _add_common(p, default_method="all")
    p.add_argument("--format", choices=("human", "csv", "record"), default="human")
    p.set_defaults(func=cmd_compute)


def _sweep_args(p: argparse.ArgumentParser) -> None:
    _add_state_args(p)
    _add_common(p, default_method="closed-form")
    p.add_argument("--sweep", action="append", default=[],
                   metavar="AXIS=START:STOP:COUNT",
                   help=f"swept axis (repeatable, max 2); axes: {', '.join(SWEEP_AXES)}")
    p.add_argument("--out", default="-", help="output CSV path (default stdout)")
    p.set_defaults(func=cmd_sweep)


def _verify_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--preset", choices=PRESETS)
    p.add_argument("--tol", help=argparse.SUPPRESS)  # compute's threshold: refused here
    _add_oracle_args(p)
    p.add_argument("--format", choices=("human", "record"), default="human")
    p.set_defaults(func=cmd_verify)


def _snapshot_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--file", default=None, help="snapshot path (default: repo golden file)")
    p.add_argument("--regolden", action="store_true",
                   help="rewrite the golden file from a fresh oracle run")
    p.set_defaults(func=cmd_snapshot, config=None)


_SUBCOMMANDS = {
    "compute": ("fidelity of one pair of states", _compute_args),
    "sweep": ("parameter sweep over one or two axes", _sweep_args),
    "verify": ("run the standard grids and reconciliation report", _verify_args),
    "snapshot": ("check (default) or regenerate golden oracle records; takes no config "
                 "file", _snapshot_args),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dstfid",
        description="Fidelity of displaced squeezed thermal states, three ways: "
        "exact matrix pipeline, printed closed-form comparison, Fock oracle.",
    )
    parser.add_argument("--version", action="version", version=f"dstfid {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_text, add_args) in _SUBCOMMANDS.items():
        add_args(sub.add_parser(name, help=help_text, description=help_text))
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, load_config(args.config) if args.config else {})
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except PipelineCheckError as exc:
        print(f"pipeline check failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except (ValueError, MemoryError) as exc:  # bad input, or a grid too large to allocate
        print(f"error: {exc or 'out of memory'}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


# What exists at the end of this import is mostly import-time state (modules,
# classes, functions) that lives as long as the process; frozen once, here
# rather than in main, which callers may run many times in one process, it is
# left out of every later collection instead of rescanned.  Without it an 8x8
# closed-form sweep's main took 7.95 ms instead of 6.35 ms (medians of 30
# interleaved fresh interpreters, 2 cores, Python 3.11).
gc.freeze()

if __name__ == "__main__":
    sys.exit(main())

"""Row-by-row CSV rendering (test reference).

The CLI renders sweep and compute CSV by column, straight from the closed-form
batch.  This module renders the same table the plain way: one pair of
StateParams per grid point, one FidelityReport per row (`ClosedForm.report`),
and one cell at a time.  The tests assert the CLI's output is byte-identical
to it.
"""

from __future__ import annotations

from dstfid.algebra import StateParams, state
from dstfid.cli import (
    UsageError,
    _csv_header,
    _grid_values,
    _options_from,
    _parse_axis,
    build_parser,
)
from dstfid.reduction import FidelityReport, closed_form, fidelity

__all__ = ["row_for", "sweep_states", "sweep_csv", "compute_csv", "reference_csv"]


def _g17(x: float | int | None) -> str:
    if x is None:
        return ""
    if isinstance(x, int):
        return str(x)
    return f"{x:.17g}"


def row_for(idx: int, s1: StateParams, s2: StateParams, rep: FidelityReport) -> str:
    """One CSV row, its cells in the CLI's column order."""
    oracle = rep.oracle
    dev_or = (
        abs(rep.value_matrix_pipeline - rep.value_oracle)
        if rep.value_oracle is not None
        else None
    )
    cells = [
        str(idx),
        _g17(s1.k.real), _g17(s1.k.imag), _g17(s1.r), _g17(s1.nbar), _g17(s1.beta),
        _g17(s2.k.real), _g17(s2.k.imag), _g17(s2.r), _g17(s2.nbar), _g17(s2.beta),
        _g17(rep.g.real), _g17(rep.g.imag),
        _g17(rep.value_matrix_pipeline), _g17(rep.value_printed), _g17(rep.value_oracle),
        _g17(rep.pipeline.ratio), _g17(rep.printed.ratio),
        _g17(rep.base.base), _g17(rep.base.printed_value),
        _g17(abs(rep.value_printed - rep.value_matrix_pipeline)), _g17(dev_or),
        _g17(oracle.cutoff_used if oracle else None),
        _g17(oracle.convergence_gap if oracle else None),
        ";".join(f.name for f in rep.discrepancy_flags),
    ]
    return ",".join(cells)


def sweep_states(args, assignment: dict[str, float]) -> tuple[StateParams, StateParams]:
    """The pair of one grid point: the swept values over the fixed ones."""
    re_k1 = assignment.get("re_k1", args.k1.real)
    im_k1 = assignment.get("im_k1", args.k1.imag)
    re_k2 = assignment.get("re_k2", args.k2.real)
    im_k2 = assignment.get("im_k2", args.k2.imag)
    r1 = assignment.get("r1", args.r1)
    r2 = assignment.get("r2", args.r2)

    def temp(which: str, fixed_nbar, fixed_beta):
        nbar = assignment.get(f"nbar{which}", fixed_nbar)
        beta = assignment.get(f"beta{which}", fixed_beta)
        if f"nbar{which}" in assignment:
            beta = None
        elif f"beta{which}" in assignment:
            nbar = None
        if (nbar is None) == (beta is None):
            raise UsageError(f"state {which}: exactly one temperature source required")
        return nbar, beta

    nbar1, beta1 = temp("1", args.nbar1, args.beta1)
    nbar2, beta2 = temp("2", args.nbar2, args.beta2)
    s1 = state(complex(re_k1, im_k1), r1, nbar=nbar1, beta=beta1)
    s2 = state(complex(re_k2, im_k2), r2, nbar=nbar2, beta=beta2)
    return s1, s2


def sweep_csv(argv: list[str]) -> str:
    """`dstfid sweep` CSV, row by row; a refused row raises its error unnamed."""
    args = build_parser().parse_args(argv)
    axes = [_parse_axis(a) for a in args.sweep]
    opts, method = _options_from(args, {})
    meta = {
        "command": "sweep",
        "method": method,
        "oracle_tol": _g17(opts.oracle_tol),
        "ceiling": str(opts.oracle_ceiling),
    }
    for i, (name, start, stop, count) in enumerate(axes):
        meta[f"axis{i}"] = f"{name}={_g17(start)}:{_g17(stop)}:{count}"
    lines = [_csv_header(meta)]
    grids = [_grid_values(a) for a in axes]
    if len(grids) == 1:
        combos = [(v,) for v in grids[0]]
    else:
        combos = [(u, v) for u in grids[0] for v in grids[1]]
    pairs = [
        sweep_states(args, {axes[i][0]: values[i] for i in range(len(values))})
        for values in combos
    ]
    batch = closed_form(pairs, opts)
    for idx, (s1, s2) in enumerate(pairs):
        lines.append(row_for(idx, s1, s2, batch.report(idx)))
    return "\n".join(lines) + "\n"


def compute_csv(argv: list[str]) -> str:
    """`dstfid compute ... --format csv` output, from one FidelityReport."""
    args = build_parser().parse_args(argv)
    opts, method = _options_from(args, {})
    s1 = state(args.k1, args.r1, nbar=args.nbar1, beta=args.beta1)
    s2 = state(args.k2, args.r2, nbar=args.nbar2, beta=args.beta2)
    meta = {"command": "compute", "method": method,
            "oracle_tol": _g17(opts.oracle_tol), "ceiling": str(opts.oracle_ceiling)}
    return _csv_header(meta) + "\n" + row_for(0, s1, s2, fidelity(s1, s2, opts)) + "\n"


def reference_csv(argv: list[str]) -> str:
    """The CSV `dstfid` prints for argv (a sweep to stdout, or compute --format csv)."""
    return compute_csv(argv) if argv[0] == "compute" else sweep_csv(argv)

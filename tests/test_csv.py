"""CSV rendering: the CLI renders sweep and compute CSV a column at a time,
straight from the closed-form batch; these tests hold it byte-identical to
the row-by-row reference (csv_reference) and keep per-row objects out of a
closed-form sweep."""

import csv
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import csv_reference
import dstfid.cli as cli
import dstfid.fock as fock
import dstfid.reduction as red
from csv_reference import reference_csv
from dstfid.algebra import StateParams

# argv, and a row, cell or flag the output must carry
CASES = {
    "1d": (["sweep", "--r1", "0.3", "--nbar1", "0.5", "--r2", "0.3", "--nbar2", "0.5",
            "--sweep", "re_k2=0:2.5:13", "--method", "pipeline"], "\n12,"),
    "2d": (["sweep", "--r1", "0.2", "--nbar1", "0.5", "--r2", "0.4", "--nbar2", "1.0",
            "--sweep", "re_k2=-1:1:5", "--sweep", "im_k2=0:1:4"], "\n19,"),
    "nbar-axis": (["sweep", "--nbar1", "0.5", "--r2", "0.1", "--k2", "0.3",
                   "--sweep", "nbar2=0.2:2.0:4"], ",0.20000000000000001,"),
    "nbar-axis-outer-2d": (["sweep", "--k2", "0.3-0.2i", "--nbar2", "2",
                            "--sweep", "nbar1=0.1:3:4", "--sweep", "r2=-0.5:0.5:3"], "\n11,"),
    "beta-axis-log-scaled": (["sweep", "--nbar2", "1", "--k2", "0.2+0.1i", "--r1", "0.1",
                              "--sweep", "beta1=0.5:40:5"], "\n4,"),
    "beta-axis-inner-2d": (["sweep", "--k1=-0.3", "--nbar1", "1", "--k2", "0.5",
                            "--sweep", "r1=-1:1:3", "--sweep", "beta2=1:60:3",
                            "--method", "printed"], "delta2-outside-float-range"),
    "signed-zeros": (["sweep", "--r1=-0.0", "--k1=-0.0-0.0i", "--nbar1", "1", "--nbar2", "1",
                      "--sweep", "re_k2=-0.0:1:3"], "0,-0,-0,-0,"),
    "signed-zeros-2d": (["sweep", "--r1=-0.0", "--k1=-0.0-0.0i", "--nbar1", "1", "--nbar2", "1",
                         "--sweep", "im_k1=-0.0:-1:3", "--sweep", "re_k2=-0.0:0:2"], ",-0,"),
    # a one-point axis is its start: np.linspace(-0.0, 5, 1) gives [0.0]
    "signed-zero-one-point": (["sweep", "--nbar1", "1", "--nbar2", "1",
                               "--sweep", "r2=-0.0:5:1"], ",0,0,-0,1,0.69314718055994529,"),
    "log-scaled": (["sweep", "--beta1", "35", "--beta2", "31", "--r1", "0.4", "--k2", "0.7i",
                    "--sweep", "r2=-2:2:5"], "printed-value-clamped"),
    "printed-path-flags": (["sweep", "--nbar1", "0.01", "--nbar2", "0.02",
                            "--sweep", "re_k2=0:60:4"], "delta1-outside-float-range"),
    "beta-740": (["sweep", "--beta1", "740", "--nbar2", "1.0", "--sweep", "re_k2=0:1:3"],
                 "\n2,"),
    "wide-squeeze-gap": (["sweep", "--r1", "177", "--r2", "-177", "--beta1", "29",
                          "--beta2", "29", "--sweep", "re_k2=0:1:3"],
                         "printed-displacement-quadratic-form"),
    # k1 = 0 on a grid symmetric about 0: g -> -g mirrors row i onto row 24 - i
    "symmetric-2d": (["sweep", "--r1", "0.3", "--nbar1", "0.5", "--r2", "0.6", "--nbar2", "1.2",
                      "--sweep", "re_k2=-1:1:5", "--sweep", "im_k2=-1:1:5"], "\n24,"),
    "oracle": (["sweep", "--r1", "0.3", "--nbar1", "0.5", "--r2", "0.3", "--nbar2", "0.5",
                "--k1", "0.2", "--sweep", "re_k2=0.2:1:3", "--method", "all"], "\n2,"),
    "oracle-loose-tol": (["sweep", "--r1", "0.2", "--nbar1", "0.5", "--r2", "0.1",
                          "--nbar2", "0.7", "--sweep", "re_k2=0:1.5:3", "--method", "all",
                          "--oracle-tol", "0.01"], "printed-base-factor"),
    "oracle-2d": (["sweep", "--nbar2", "0.5", "--sweep", "re_k2=0:1:2",
                   "--sweep", "nbar1=0.5:1:2", "--method", "oracle", "--tol", "1e-3"], "\n3,"),
}
COMPUTE = {
    method: ["compute", "--k1", "0.3", "--r1", "0.2", "--nbar1", "0.5", "--k2", "0.1+0.2i",
             "--r2", "0.5", "--beta2", "40", "--format", "csv", "--method", method]
    for method in ("all", "closed-form", "pipeline", "printed", "oracle")
}


def _cli_csv(argv, capsys) -> str:
    assert cli.main(list(argv)) == 0
    out = capsys.readouterr()
    assert out.err == ""
    return out.out


@pytest.mark.parametrize("argv, carries", CASES.values(), ids=CASES.keys())
def test_sweep_csv_is_byte_identical_to_the_row_by_row_reference(argv, carries, capsys):
    out = _cli_csv(argv, capsys)
    assert out == reference_csv(argv)
    assert carries in out
    rows = list(csv.DictReader(ln for ln in out.splitlines() if not ln.startswith("#")))
    method = argv[argv.index("--method") + 1] if "--method" in argv else "closed-form"
    assert all(bool(row["oracle_cutoff"]) == (method in ("all", "oracle")) for row in rows)


def _table(out: str) -> tuple[list[str], list[list[str]]]:
    header, *body = csv.reader(ln for ln in out.splitlines() if not ln.startswith("#"))
    return header, body


def test_symmetric_sweep_repeats_values_under_g_sign_flip(capsys):
    # the displaced factor is even in g, so every value column repeats bit
    # for bit across the mirror rows, the repeats a per-value formatter shares
    header, body = _table(_cli_csv(CASES["symmetric-2d"][0], capsys))
    for name in ("f_pipeline", "f_printed", "ratio_pipeline", "ratio_printed",
                 "dev_printed_pipeline"):
        c = header.index(name)
        assert [row[c] for row in body] == [row[c] for row in body[::-1]], name
        assert len({row[c] for row in body}) < len(body), name


def test_sweep_formats_each_distinct_value_of_a_column_once(monkeypatch, capsys):
    # every float cell goes through _g17, once per distinct value of its
    # column: fails if any column goes back to formatting one cell per row
    formatted = []
    g17 = cli._g17

    def counted(x):
        formatted.append(x)
        return g17(x)

    monkeypatch.setattr(cli, "_g17", counted)
    argv = ["sweep", "--r1", "0.2", "--nbar1", "0.5", "--r2", "0.7", "--nbar2", "1.5",
            "--sweep", "re_k2=-2:2:41", "--sweep", "im_k2=-2:2:41", "--method", "closed-form"]
    header, body = _table(_cli_csv(argv, capsys))
    assert len(body) == 41 * 41
    distinct = sum(len({row[c] for row in body} - {""})
                   for c, name in enumerate(header) if name not in ("idx", "oracle_cutoff", "flags"))
    header_values = 1 + 2 * 2  # oracle_tol, and each axis's start and stop
    assert len(formatted) == distinct + header_values


# Raw float64 bit patterns: signed zeros, infinities, NaNs with distinct
# payloads and signs (quiet and signalling), subnormals, and any other draw.
_SPECIAL_BITS = (0, -2**63, 0x7FF0000000000000, -0x0010000000000000,
                 0x7FF8000000000000, 0x7FF8000000000001, 0x7FF0000000000001,
                 -0x0008000000000000, -0x0007FFFFFFFFFFFF, 1, 0x000FFFFFFFFFFFFF, -2**63 + 1)
_BITS = st.one_of(st.sampled_from(_SPECIAL_BITS), st.integers(-2**63, 2**63 - 1),
                  st.floats(width=64).map(lambda x: int(np.float64(x).view(np.int64))))


@st.composite
def _float_inputs(draw):
    """A few distinct values, repeated, as a 0-d array, a list, a 1-D array,
    or a 2-D spread (each value over a grid row, possibly transposed)."""
    pool = np.array(draw(st.lists(_BITS, min_size=1, max_size=6)), np.int64).view(np.float64)
    picks = pool[draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=40))]
    kind = draw(st.sampled_from(("0-d", "list", "1-d", "2-d")))
    if kind == "0-d":
        return np.array(picks[0])
    if kind == "list":
        return picks.tolist()
    if kind == "1-d":
        return picks
    spread = np.repeat(picks, draw(st.integers(1, 4))).reshape(len(picks), -1)
    return spread.T if draw(st.booleans()) else spread


@given(_float_inputs())
def test_cells_equal_per_value_formatting(values):
    assert cli._cells(values) == [f"{x:.17g}" for x in np.ravel(values)]


@pytest.mark.parametrize("argv", COMPUTE.values(), ids=COMPUTE.keys())
def test_compute_csv_is_byte_identical_to_the_reference(argv, capsys):
    assert _cli_csv(argv, capsys) == reference_csv(argv)


def test_oracle_flags_render_in_report_order(monkeypatch, capsys):
    # an oracle 2e-3 high: the equal-state row clamps at 1, every other row
    # carries pipeline-vs-oracle after the printed-path flags
    right = fock.fidelity_oracle

    def high(*args, **kwargs):
        res = right(*args, **kwargs)
        return replace(res, fidelity=res.fidelity + 2e-3)

    monkeypatch.setattr(red, "fidelity_oracle", high)
    sweep = ["sweep", "--r1", "0.3", "--nbar1", "0.5", "--r2", "0.3", "--nbar2", "0.5",
             "--sweep", "re_k2=0:1:3", "--method", "all"]
    compute = ["compute", "--nbar1", "0.5", "--nbar2", "0.5", "--format", "csv"]
    for argv, flagged in ((sweep, 2), (compute, 0)):
        out = _cli_csv(argv, capsys)
        assert out == reference_csv(argv)
        assert out.count(",printed-base-factor;oracle-value-clamped\n") == 1
        assert out.count(";printed-base-factor;pipeline-vs-oracle\n") == flagged


def test_closed_form_sweep_builds_no_per_row_reports_or_states(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("the sweep built a per-row report")

    made = []
    checked = StateParams.__post_init__

    def counted(self):
        made.append(self)
        checked(self)

    monkeypatch.setattr(red.ClosedForm, "report", refuse)
    monkeypatch.setattr(StateParams, "__post_init__", counted)
    argv = ["sweep", "--r1", "0.2", "--nbar1", "0.5", "--r2", "0.1", "--k2", "0.3",
            "--sweep", "re_k2=-1:1:9", "--sweep", "nbar2=0.5:2:7", "--method", "closed-form"]
    rows = [ln for ln in _cli_csv(argv, capsys).splitlines() if not ln.startswith("#")][1:]
    assert len(rows) == 9 * 7
    assert len(made) <= 9 + 7 + 2  # one per distinct axis value, one fixed state each

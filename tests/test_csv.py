"""CSV rendering: the CLI renders sweep and compute CSV a column at a time,
straight from the closed-form batch; these tests hold it byte-identical to
the row-by-row reference (csv_reference) and keep per-row objects out of a
closed-form sweep."""

import csv
from dataclasses import replace

import pytest

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
                              "--sweep", "beta1=0.5:40:5"], "log-scaled-path"),
    "beta-axis-inner-2d": (["sweep", "--k1=-0.3", "--nbar1", "1", "--k2", "0.5",
                            "--sweep", "r1=-1:1:3", "--sweep", "beta2=1:60:3",
                            "--method", "printed"], "delta2-outside-float-range"),
    "signed-zeros": (["sweep", "--r1=-0.0", "--k1=-0.0-0.0i", "--nbar1", "1", "--nbar2", "1",
                      "--sweep", "re_k2=-0.0:1:3"], "0,-0,-0,-0,"),
    "signed-zeros-2d": (["sweep", "--r1=-0.0", "--k1=-0.0-0.0i", "--nbar1", "1", "--nbar2", "1",
                         "--sweep", "im_k1=-0.0:-1:3", "--sweep", "re_k2=-0.0:0:2"], ",-0,"),
    "log-scaled": (["sweep", "--beta1", "35", "--beta2", "31", "--r1", "0.4", "--k2", "0.7i",
                    "--sweep", "r2=-2:2:5"], "printed-value-clamped"),
    "printed-path-flags": (["sweep", "--nbar1", "0.01", "--nbar2", "0.02",
                            "--sweep", "re_k2=0:60:4"], "delta1-outside-float-range"),
    "beta-740": (["sweep", "--beta1", "740", "--nbar2", "1.0", "--sweep", "re_k2=0:1:3"],
                 "log-scaled-path"),
    "wide-squeeze-gap": (["sweep", "--r1", "177", "--r2", "-177", "--beta1", "29",
                          "--beta2", "29", "--sweep", "re_k2=0:1:3"],
                         "printed-displacement-quadratic-form"),
    "oracle": (["sweep", "--r1", "0.3", "--nbar1", "0.5", "--r2", "0.3", "--nbar2", "0.5",
                "--k1", "0.2", "--sweep", "re_k2=0.2:1:3", "--method", "all"], "\n2,"),
    "oracle-loose-tol": (["sweep", "--r1", "0.2", "--nbar1", "0.5", "--r2", "0.1",
                          "--nbar2", "0.7", "--sweep", "re_k2=0:1.5:3", "--method", "all",
                          "--oracle-tol", "0.01"], "printed-base-factor"),
    "oracle-2d": (["sweep", "--nbar1", "0.5", "--nbar2", "0.5", "--sweep", "re_k2=0:1:2",
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

    for module in (cli, red, csv_reference):
        monkeypatch.setattr(module, "fidelity_oracle", high)
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

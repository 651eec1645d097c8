"""End-to-end CLI smoke tests (subprocess, installed entry point)."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dstfid.golden import GOLDEN_TOL, read_snapshots

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "fidelity_snapshots.txt"
SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*args, **kwargs):
    # the child imports the package from src/, as pytest's pythonpath does here
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, "-m", "dstfid.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        **kwargs,
    )


def test_readme_worked_compute_prints_its_output(capsys):
    # The README's CLI block: a `$ dstfid compute ...` line and the lines it
    # prints, compared byte for byte with what main writes.
    from dstfid.cli import main

    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("```sh\n$ dstfid compute ", 1)[1].split("```", 1)[0]
    command, expected = block.split("\n", 1)
    assert main(["compute", *command.split()]) == 0
    assert capsys.readouterr().out == expected


def test_readme_examples_of_rungs_and_a_falloff_ray_run(capsys, monkeypatch, tmp_path):
    # The README's example block: the oracle's rungs for one pair (the
    # record's oracle.rungs) and the fidelity along a mismatch ray (a sweep
    # over re_k2, written to decay.csv in the working directory).
    from dstfid.cli import main

    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("```sh\n# sweep one or two axes", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    sweep, compute = (next(ln.split()[1:] for ln in lines if ln.startswith(f"dstfid {name} "))
                      for name in ("sweep", "compute"))
    monkeypatch.chdir(tmp_path)
    assert main(compute) == 0
    oracle = json.loads(capsys.readouterr().out)["oracle"]
    assert [r["cutoff"] for r in oracle["rungs"]] == [72, 108]
    assert oracle["rungs"][-1]["fidelity"] == oracle["fidelity"]
    assert main(sweep) == 0
    csv = (tmp_path / "decay.csv").read_text().splitlines()
    assert len([ln for ln in csv if not ln.startswith("#")]) == 1 + 21


def test_compute_identical_states_prints_unity():
    res = run_cli(
        "compute", "--k1", "0.3+0.4i", "--r1", "0.8", "--nbar1", "2.0",
        "--k2", "0.3+0.4i", "--r2", "0.8", "--nbar2", "2.0",
    )
    assert res.returncode == 0
    assert "fidelity (matrix pipeline):  1.000000000" in res.stdout
    assert "fidelity (fock oracle):      1.000000000" in res.stdout


@pytest.mark.xfail(
    strict=True,
    reason="the verbatim printed closed form does not reproduce unit "
    "self-fidelity; its deviation is flagged instead",
)
def test_compute_identical_states_printed_method_unity():
    res = run_cli(
        "compute", "--k1", "0.3+0.4i", "--r1", "0.8", "--nbar1", "2.0",
        "--k2", "0.3+0.4i", "--r2", "0.8", "--nbar2", "2.0",
    )
    assert "fidelity (printed formulas): 1.000000000" in res.stdout


def test_compute_oracle_matches_frozen_golden_snapshot():
    line = [
        ln for ln in GOLDEN.read_text().splitlines() if not ln.startswith("#")
    ][0]
    frozen = float(line.split()[8])
    res = run_cli(
        "compute", "--k1", "0.3", "--r1", "0.2", "--nbar1", "0.5",
        "--k2", "0.1+0.2i", "--r2", "0.5", "--nbar2", "1.0", "--format", "record",
    )
    assert res.returncode == 0
    record = json.loads(res.stdout)
    assert abs(record["value_oracle"] - frozen) < 1e-10
    assert abs(record["value_matrix_pipeline"] - frozen) < 1e-6


def test_compute_refused_pipeline_check_is_one_line_exit_1():
    # |v|^2 = (Im g)^2 e^(-2 r2) ~ 1e-322 is subnormal on both paths of delta1,
    # so sh(744) |v|^2 keeps a few bits, and the ratio check refuses the pair
    res = run_cli(
        "compute", "--r2", "352", "--beta1", "1", "--beta2", "744",
        "--k2", "1e-8i", "--method", "closed-form",
    )
    assert res.returncode == 1
    assert res.stdout == ""
    assert res.stderr.startswith("pipeline check failed: ratio dual-path mismatch")
    assert len(res.stderr.splitlines()) == 1  # no traceback, no numpy warning


def test_compute_rejects_double_temperature_spec():
    res = run_cli("compute", "--nbar1", "0.5", "--beta1", "1.0", "--nbar2", "1.0")
    assert res.returncode == 2
    assert "exactly one" in res.stderr


def test_compute_rejects_missing_temperature():
    res = run_cli("compute", "--nbar1", "0.5")
    assert res.returncode == 2


def test_compute_convergence_failure_exits_3():
    res = run_cli(
        "compute", "--nbar1", "0.5", "--nbar2", "0.5", "--k2", "3.0",
        "--ceiling", "40",
    )
    assert res.returncode == 3
    assert "did not stabilize" in res.stderr


def test_compute_rejects_ceiling_below_two():
    res = run_cli("compute", "--beta1", "40", "--beta2", "40", "--k2", "0.3", "--ceiling", "1")
    assert res.returncode == 2
    assert res.stderr.startswith("error: ceiling must be >= 2")


@pytest.mark.parametrize("tol", ["nan", "-1e-8"])
def test_compute_rejects_a_tolerance_that_cannot_flag(tol):
    res = run_cli(
        "compute", "--r1", "0.2", "--nbar1", "1", "--k2", "0.5", "--r2", "0.2", "--nbar2", "1",
        f"--tol={tol}", "--method", "closed-form",
    )
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.startswith("error: tol must be finite and > 0")


@pytest.mark.parametrize(
    "text,expected",
    [
        ("0.3", complex(0.3)),
        ("0.1+0.2i", 0.1 + 0.2j),
        ("-2i", -2j),
        ("+1.5-0.5i", 1.5 - 0.5j),
    ],
)
def test_complex_syntax_accepted(text, expected):
    # --k1=-2i (joined form) keeps argparse from reading -2i as an option
    res = run_cli(
        "compute", f"--k1={text}", "--nbar1", "0.5", "--nbar2", "0.5",
        "--method", "pipeline", "--format", "record",
    )
    assert res.returncode == 0
    record = json.loads(res.stdout)
    assert record["state1"]["k"]["re"] == pytest.approx(expected.real)
    assert record["state1"]["k"]["im"] == pytest.approx(expected.imag)


@pytest.mark.parametrize("text", ["abc", "1 + 2i", "inf", "nan+1i"])
def test_complex_syntax_rejected(text):
    res = run_cli("compute", "--k1", text, "--nbar1", "0.5", "--nbar2", "0.5")
    assert res.returncode == 2


@pytest.mark.parametrize("k2, got", [
    (("--k2", "inf"), "(inf+0j)"),
    (("--k2=-inf",), "(-inf+0j)"),
    (("--k2", "Infinity"), "(inf+0j)"),
    (("--k2", "infi"), "infj"),
], ids=["inf", "minus-inf", "Infinity", "imaginary-inf"])
def test_an_infinite_displacement_is_refused_by_the_state(k2, got):
    # only a trailing i is the imaginary unit, so the i of inf is read as part
    # of the number and refused by the state, as --k2 1e400 is, not as syntax
    res = run_cli("compute", "--nbar1", "1", "--nbar2", "1", *k2)
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr == f"error: displacement k must be finite, got {got}\n"


def test_sweep_two_axes_has_all_rows_and_is_deterministic(tmp_path):
    args = (
        "sweep", "--r1", "0.2", "--nbar1", "0.5", "--r2", "0.4", "--nbar2", "1.0",
        "--sweep", "re_k2=0:1:11", "--sweep", "im_k2=0:1:11",
        "--method", "pipeline",
    )
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert run_cli(*args, "--out", str(out1)).returncode == 0
    assert run_cli(*args, "--out", str(out2)).returncode == 0
    rows = [ln for ln in out1.read_text().splitlines() if ln and not ln.startswith("#")]
    assert len(rows) == 1 + 121  # header + 11x11 grid
    assert out1.read_bytes() == out2.read_bytes()


def test_single_point_sweep_equals_compute_row():
    common = (
        "--k1", "0.1i", "--r1", "0.3", "--nbar1", "0.8",
        "--k2", "0.6", "--r2", "0.1", "--nbar2", "0.4",
    )
    swept = run_cli(
        "sweep", *common, "--sweep", "r2=0.1:0.1:1", "--method", "all",
    )
    computed = run_cli("compute", *common, "--format", "csv", "--method", "all")
    assert swept.returncode == 0 and computed.returncode == 0
    row_s = [ln for ln in swept.stdout.splitlines() if not ln.startswith("#")][1]
    row_c = [ln for ln in computed.stdout.splitlines() if not ln.startswith("#")][1]
    assert row_s == row_c


def test_sweep_mismatch_ray_fidelity_strictly_decreasing():
    res = run_cli(
        "sweep", "--r1", "0.3", "--nbar1", "0.5", "--r2", "0.3", "--nbar2", "0.5",
        "--sweep", "re_k2=0:2.5:13", "--method", "pipeline",
    )
    assert res.returncode == 0
    rows = [ln for ln in res.stdout.splitlines() if ln and not ln.startswith("#")][1:]
    fid_col = [float(r.split(",")[13]) for r in rows]
    assert len(fid_col) == 13
    assert all(b < a for a, b in zip(fid_col, fid_col[1:]))


@pytest.mark.parametrize(
    "states",
    [
        ("--r1", "20", "--nbar1", "0.5", "--r2", "-20", "--nbar2", "1.0"),
        ("--nbar1", "1e6", "--nbar2", "1.0"),
        ("--beta1", "740", "--nbar2", "1.0"),
    ],
    ids=["opposed-squeeze-20", "nbar1-1e6", "beta1-740"],
)
def test_closed_form_sweep_reaches_states_beyond_the_oracle(states):
    # far past any Fock cutoff: the closed form needs none
    res = run_cli("sweep", *states, "--sweep", "re_k2=0:1:3", "--method", "closed-form")
    assert res.returncode == 0, res.stderr
    rows = [ln for ln in res.stdout.splitlines() if not ln.startswith("#")][1:]
    fid = [float(r.split(",")[13]) for r in rows]
    assert len(fid) == 3 and all(0.0 < f < 1.0 for f in fid)


def test_compute_squeeze_gap_past_double_range_exits_2():
    res = run_cli(
        "compute", "--r1", "200", "--nbar1", "1", "--r2", "-200", "--nbar2", "1",
        "--method", "closed-form",
    )
    assert res.returncode == 2
    assert "differ by 400" in res.stderr and "leaves double range" in res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize(
    "args",
    [
        ("--beta1", "40", "--beta2", "40"),
        ("--nbar1", "1", "--nbar2", "1", "--k2", "0.5i"),
    ],
    ids=["printed-display", "pipeline-coefficient"],
)
def test_compute_single_squeeze_past_double_range_exits_2(args):
    res = run_cli("compute", "--r1", "360", "--r2", "360", *args, "--method", "closed-form")
    assert res.returncode == 2
    assert res.stderr.startswith("error: squeeze factor r=360.0")
    assert len(res.stderr.splitlines()) == 1  # no traceback


@pytest.mark.parametrize(
    "args",
    [
        ("--beta1", "40", "--beta2", "40", "--k2", "1e154"),
        ("--beta1", "1", "--beta2", "1", "--r2", "300", "--k2", "1e30"),
    ],
    ids=["log-scaled", "wide-squeeze"],
)
def test_compute_mismatch_past_double_range_exits_2(args):
    # 2 (Re g)^2 e^(2r) leaves double range, for a cold pair and across a wide squeeze
    res = run_cli("compute", *args, "--method", "closed-form")
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr.startswith("error: displacement mismatch g=(1e+")
    assert "leaves double range" in res.stderr
    assert len(res.stderr.splitlines()) == 1  # no traceback


# 2|g|^2 is in double range but sh(beta)|g|^2 is not: the matrix route compares
# the delta exponents in logarithms, so it checks them on either side of 30
@pytest.mark.parametrize("beta", ["29", "30", "40"])
def test_mismatch_just_inside_double_range_gives_zero_with_its_flags(beta):
    res = run_cli("compute", "--beta1", beta, "--beta2", beta, "--k2", "1e150",
                  "--method", "closed-form", "--format", "record")
    assert res.returncode == 0, res.stderr
    record = json.loads(res.stdout)
    assert record["value_matrix_pipeline"] == 0.0
    assert [f["name"] for f in record["flags"] if "outside" in f["name"]] == [
        "delta1-outside-float-range", "delta2-outside-float-range"]


@pytest.mark.parametrize(
    "argv, says",
    [
        (("compute", "--nbar1", "1", "--nbar2", "1", "--method", "closed-form",
          "--ceiling", "1", "--oracle-tol", "1e-12"),
         "error: oracle tolerance must be >= 1e-10 and < 1, got 1e-12\n"),
        (("sweep", "--nbar1", "1", "--nbar2", "1", "--sweep", "re_k2=0:1:3", "--ceiling", "1"),
         "error: ceiling must be >= 2 (the smallest cutoff), got 1\n"),
        (("sweep", "--nbar1", "1", "--nbar2", "1", "--sweep", "re_k2=0:1:3", "--method", "all",
          "--oracle-tol", "1e-12"),
         "error: oracle tolerance must be >= 1e-10 and < 1, got 1e-12\n"),
        # a gap is at most 1, so at inf or 1 every ladder would stop at its second rung
        (("compute", "--nbar1", "1", "--nbar2", "1", "--oracle-tol", "inf"),
         "error: oracle tolerance must be >= 1e-10 and < 1, got inf\n"),
        (("verify", "--preset", "quick", "--oracle-tol", "inf"),
         "error: oracle tolerance must be >= 1e-10 and < 1, got inf\n"),
        (("compute", "--nbar1", "1", "--nbar2", "1", "--oracle-tol", "1"),
         "error: oracle tolerance must be >= 1e-10 and < 1, got 1.0\n"),
        (("verify", "--preset", "quick", "--oracle-tol", "1"),
         "error: oracle tolerance must be >= 1e-10 and < 1, got 1.0\n"),
    ],
    ids=["compute-closed-form", "sweep-closed-form", "sweep-all", "compute-infinite",
         "verify-infinite", "compute-one", "verify-one"],
)
def test_oracle_options_are_refused_before_any_evaluation(monkeypatch, capsys, argv, says):
    # whether or not the method runs the oracle
    import dstfid.cli as cli
    import dstfid.reduction as red

    def refuse(*args):
        raise AssertionError("a batch ran before the options were refused")

    monkeypatch.setattr(red, "_evaluate", refuse)
    assert cli.main(list(argv)) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == says


def test_sweep_convergence_failure_names_the_row():
    res = run_cli(
        "sweep", "--nbar1", "0.5", "--nbar2", "0.5", "--sweep", "re_k2=0:3:4",
        "--method", "all", "--ceiling", "40",
    )
    assert res.returncode == 3
    assert res.stdout == ""
    assert "sweep row 1 (re_k2=1)" in res.stderr
    assert "no rows written" in res.stderr


def test_sweep_oracle_refusal_names_the_row():
    # the oracle refuses row 2's ceiling (nbar2 = 3 needs a cutoff of 97)
    # after rows 0 and 1 have run their ladders
    res = run_cli("sweep", "--nbar1", "0.1", "--sweep", "nbar2=0.1:3:3", "--method", "all",
                  "--ceiling", "60")
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr == ("error: sweep row 2 (nbar2=3): cutoff 60 leaves a thermal tail "
                          "above 1e-12 at beta=0.287682; need at least 97; no rows written\n")
    # a needed cutoff past 2**53 is named as the ladder's start is, not in 302 digits
    res = run_cli("compute", "--nbar1", "1e300", "--nbar2", "1", "--method", "oracle")
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr == ("error: cutoff 1024 leaves a thermal tail above 1e-12 at "
                          "beta=1e-300; need at least 2.7631e+301\n")


def test_sweep_convergence_error_keeps_its_gaps():
    # the row is named in the error's own message, so its gap trace stays with it
    from dstfid.cli import build_parser, run_sweep
    from dstfid.fock import ConvergenceError

    args = build_parser().parse_args(
        ["sweep", "--nbar1", "0.5", "--nbar2", "0.5", "--sweep", "re_k2=0:3:4",
         "--method", "all", "--ceiling", "60"])
    with pytest.raises(ConvergenceError) as exc:
        run_sweep(args, {})
    assert str(exc.value).startswith("sweep row 3 (re_k2=3): fidelity did not stabilize")
    assert str(exc.value).endswith("; no rows written")
    gaps = [(r.cutoff, r.gap) for r in exc.value.rungs if r.exact]
    assert gaps and gaps[-1][0] == 60

_NBAR_REFUSED = "nbar must be a finite positive number, got {} (nbar = 0 is the pure-state " \
    "limit; use a large beta instead); no rows written"


@pytest.mark.parametrize(
    "fixed, axes, code, row",
    [
        # g = -1e-8 i: see test_compute_refused_pipeline_check_is_one_line_exit_1
        (("--k1", "0.5+1e-8i", "--beta1", "1", "--beta2", "744"), ("r2=0:352:3",), 1,
         "pipeline check failed: sweep row 2 (r2=352): ratio dual-path"),
        (("--nbar1", "1", "--nbar2", "1"), ("r2=353:357:5",), 2,
         "error: sweep row 2 (r2=355): squeeze factors"),
        (("--nbar1", "1"), ("nbar2=-1:1:3",), 2,
         "error: sweep row 0 (nbar2=-1): " + _NBAR_REFUSED.format("-1.0")),
        (("--nbar1", "1"), ("beta2=1:-1:3",), 2,
         "error: sweep row 1 (beta2=0): beta must be strictly positive (infinite-temperature "
         "point beta <= 0 is excluded), got 0.0; no rows written"),
        (("--nbar1", "1"), ("r1=0:1:2", "nbar2=2:0:3"), 2,
         "error: sweep row 2 (r1=0, nbar2=0): " + _NBAR_REFUSED.format("0.0")),
        (("--nbar2", "1"), ("nbar1=1:0:2", "re_k2=0:1:3"), 2,
         "error: sweep row 3 (nbar1=0, re_k2=0): " + _NBAR_REFUSED.format("0.0")),
        (("--r1", "nan", "--nbar1", "1", "--nbar2", "1"), ("re_k2=0:1:3",), 2,
         "error: sweep row 0 (re_k2=0): squeeze factor r must be finite, got nan; "
         "no rows written"),
        (("--nbar1", "-1", "--nbar2", "1"), ("re_k2=0:1:3",), 2,
         "error: sweep row 0 (re_k2=0): " + _NBAR_REFUSED.format("-1.0")),
        (("--beta1", "40", "--beta2", "40"), ("re_k2=0:1e154:3",), 2,
         "error: sweep row 2 (re_k2=1e+154): displacement mismatch g=(1e+154+0j)"),
    ],
    ids=["refused-check", "squeeze-past-double-range", "nbar-axis-row-0", "beta-axis-zero",
         "inner-axis-of-2d", "outer-axis-of-2d", "fixed-squeeze-nan", "fixed-nbar-negative",
         "mismatch-past-double-range"],
)
def test_sweep_bad_row_is_named_and_nothing_written(tmp_path, fixed, axes, code, row):
    out = tmp_path / "sweep.csv"
    swept = [arg for axis in axes for arg in ("--sweep", axis)]
    res = run_cli("sweep", *fixed, "--k2", "0.5", *swept,
                  "--method", "closed-form", "--out", str(out))
    assert res.returncode == code
    assert res.stderr.startswith(row) and "no rows written" in res.stderr
    assert len(res.stderr.splitlines()) == 1
    assert res.stdout == "" and not out.exists()


def test_subnormal_beta_is_refused_by_compute_and_as_sweep_row_0():
    # nbar = 1/expm1(beta) overflows to inf for beta below ~5.6e-309
    res = run_cli("compute", "--beta1", "5e-324", "--nbar2", "1", "--k2", "0.1",
                  "--method", "closed-form")
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr == ("error: beta=5e-324 is below ~5.6e-309, where the mean photon "
                          "number nbar = 1/expm1(beta) leaves double range\n")
    res = run_cli("sweep", "--nbar1", "1", "--sweep", "beta2=1e-320:1:3")
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr.startswith(
        "error: sweep row 0 (beta2=9.9998886718268301e-321): beta=1e-320 is below ~5.6e-309")
    assert res.stderr.endswith("; no rows written\n")


def test_subnormal_nbar_is_a_state():
    # 1/nbar overflows, but beta = 736.8 is inside the model: F is the
    # vacuum-versus-thermal value 1/(1 + nbar2)
    res = run_cli("compute", "--nbar1", "1e-320", "--nbar2", "1", "--method", "closed-form",
                  "--format", "record")
    assert res.returncode == 0, res.stderr
    record = json.loads(res.stdout)
    assert record["state1"]["nbar"] == 1e-320 and record["state1"]["beta"] < 745.0
    assert abs(record["value_matrix_pipeline"] - 0.5) <= 1e-15


def test_record_reports_log_delta_denom_where_delta_denom_overflows():
    res = run_cli("compute", "--r1", "177", "--r2", "-177", "--beta1", "29", "--beta2", "29",
                  "--k2", "0.5", "--method", "closed-form", "--format", "record")
    assert res.returncode == 0, res.stderr
    pipeline = json.loads(res.stdout)["pipeline"]
    assert pipeline["DeltaDenom"] == "inf"
    assert math.isfinite(pipeline["log_DeltaDenom"]) and pipeline["log_DeltaDenom"] > 700.0
    res = run_cli("compute", "--r1", "0.2", "--r2", "0.5", "--nbar1", "0.5", "--nbar2", "1",
                  "--k2", "0.5", "--method", "closed-form", "--format", "record")
    pipeline = json.loads(res.stdout)["pipeline"]
    assert pipeline["log_DeltaDenom"] == pytest.approx(math.log(pipeline["DeltaDenom"]),
                                                       rel=1e-15, abs=1e-15)


def test_sweep_rejects_three_axes():
    res = run_cli(
        "sweep", "--nbar1", "0.5", "--nbar2", "0.5",
        "--sweep", "r1=0:1:3", "--sweep", "r2=0:1:3", "--sweep", "re_k2=0:1:3",
    )
    assert res.returncode == 2
    assert "at most 2" in res.stderr


def test_sweep_rejects_unknown_axis():
    res = run_cli(
        "sweep", "--nbar1", "0.5", "--nbar2", "0.5", "--sweep", "phi=0:1:3"
    )
    assert res.returncode == 2


def test_sweep_unwritable_target_exits_4(tmp_path):
    res = run_cli(
        "sweep", "--nbar1", "0.5", "--nbar2", "0.5",
        "--sweep", "re_k2=0:1:2", "--method", "pipeline",
        "--out", str(tmp_path / "missing" / "deep" / "x.csv"),
    )
    assert res.returncode == 4


def test_sweep_axis_can_carry_temperature(tmp_path):
    res = run_cli(
        "sweep", "--nbar1", "0.5", "--r2", "0.1",
        "--sweep", "nbar2=0.2:2.0:4", "--method", "pipeline",
    )
    assert res.returncode == 0
    rows = [ln for ln in res.stdout.splitlines() if not ln.startswith("#")][1:]
    assert len(rows) == 4


def test_sweep_refuses_two_temperature_axes_on_one_state():
    res = run_cli("sweep", "--nbar1", "1", "--k2", "0.3",
                  "--sweep", "nbar2=1:2:2", "--sweep", "beta2=1:2:2")
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr.startswith("error: state 2: sweep nbar2 or beta2, not both")


def test_sweep_refuses_an_axis_span_past_double_range():
    res = run_cli("sweep", "--nbar1", "1", "--nbar2", "1", "--sweep", "r2=-1.7e308:1.7e308:3")
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr.startswith("error: sweep axis r2: ")
    assert "RuntimeWarning" not in res.stderr
    assert len(res.stderr.splitlines()) == 1


def test_verify_quick_preset_passes():
    res = run_cli("verify", "--preset", "quick")
    assert res.returncode == 0
    assert "result: PASS" in res.stdout
    assert "typo-confirmed" in res.stdout


def test_verify_record_format_is_json():
    res = run_cli("verify", "--preset", "quick", "--format", "record")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["passed"] is True
    assert len(payload["entries"]) == 7


def test_verify_record_reruns_byte_identical():
    runs = [run_cli("verify", "--preset", "quick", "--format", "record") for _ in range(2)]
    assert all(res.returncode == 0 for res in runs)
    assert runs[0].stdout == runs[1].stdout


def test_snapshot_check_mode_passes_on_fresh_golden():
    res = run_cli("snapshot")
    assert res.returncode == 0
    assert "verified" in res.stdout


def test_snapshot_check_detects_drift(tmp_path):
    # copy the golden file with the first record's fidelity perturbed
    out = []
    done = False
    for ln in GOLDEN.read_text().splitlines():
        if not ln.startswith("#") and not done:
            cols = ln.split()
            cols[8] = repr(float(cols[8]) + 1e-3)
            ln = " ".join(cols)
            done = True
        out.append(ln)
    bad = tmp_path / "drifted.txt"
    bad.write_text("\n".join(out) + "\n")
    res = run_cli("snapshot", "--file", str(bad))
    assert res.returncode == 1
    assert "drifted" in res.stderr


@pytest.mark.parametrize(
    "column, value, says",
    [(0, "abc", "could not convert string to float: 'abc'"),
     (6, "-0.5", "nbar must be a finite positive number, got -0.5"),
     # the record as the file held it before records lost their tol column
     (10, "1e-08 0.1.0", "expected 11 columns, found 12")],
    ids=["non-numeric-re_k1", "nbar1-not-positive", "old-tol-column"],
)
def test_snapshot_bad_field_names_its_line(tmp_path, column, value, says):
    # the golden file with one field of its first record (line 5) replaced
    lines = GOLDEN.read_text().splitlines()
    assert [ln.startswith("#") for ln in lines[:5]] == [True] * 4 + [False]
    cols = lines[4].split()
    cols[column] = value
    lines[4] = " ".join(cols)
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as exc:
        read_snapshots(bad)
    assert str(exc.value).startswith(f"{bad}:5: {says}")
    res = run_cli("snapshot", "--file", str(bad))
    assert res.returncode == 2
    assert res.stderr.startswith(f"error: {bad}:5: {says}")


def test_snapshot_regolden_writes_a_file_that_checks_against_the_committed_one(tmp_path,
                                                                             capsys):
    from dstfid.cli import main

    fresh = tmp_path / "golden" / "fresh.txt"
    fresh.parent.mkdir()  # the write makes no directory
    assert main(["snapshot", "--regolden", "--file", str(fresh)]) == 0
    assert capsys.readouterr().out == f"wrote 5 golden records to {fresh}\n"
    assert main(["snapshot", "--file", str(fresh)]) == 0
    assert capsys.readouterr().out == "5 golden records verified against a fresh oracle run\n"

    def header(path):
        return [ln for ln in path.read_text().splitlines() if ln.startswith("#")]

    assert header(fresh) == header(GOLDEN)
    committed = read_snapshots(GOLDEN)
    written = read_snapshots(fresh)
    assert [(r.s1, r.s2) for r in written] == [(r.s1, r.s2) for r in committed]
    for new, old in zip(written, committed):
        assert abs(new.fidelity - old.fidelity) <= 10 * GOLDEN_TOL


def test_snapshot_missing_file_is_io_error(tmp_path):
    res = run_cli("snapshot", "--file", str(tmp_path / "nope.txt"))
    assert res.returncode == 4


@pytest.mark.parametrize("text", ["", "# golden oracle fidelity snapshots\n\n"],
                         ids=["empty", "comments-only"])
def test_snapshot_file_without_records_is_refused(tmp_path, text):
    # a drift check over no records would pass having checked nothing
    path = tmp_path / "golden.txt"
    path.write_text(text)
    res = run_cli("snapshot", "--file", str(path))
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr == f"error: {path}: no golden records\n"


# A record the oracle refuses, and one the closed form refuses before any oracle run.
HOT_RECORD = "0 0 0 0.3 0 0 50 1 0.5 100 0.1.0\n"
WIDE_GAP_RECORD = "0 0 0 0 0 400 1 1 0.5 100 0.1.0\n"


@pytest.mark.parametrize(
    "text, says",
    [(HOT_RECORD, "record 0: cutoff 1024 leaves a thermal tail above 1e-12 at "
                  "beta=0.0198026; need at least 1396"),
     (WIDE_GAP_RECORD, "record 0: squeeze factors r1=0.0, r2=400.0 differ by 400; "
                       "cosh 2(r1 - r2) leaves double range beyond |r1 - r2| = 354.5")],
    ids=["below-record-0-thermal-floor", "squeeze-gap-refused-by-the-closed-form"],
)
def test_snapshot_oracle_refusal_names_the_record(tmp_path, text, says):
    path = tmp_path / "golden.txt"
    path.write_text(text)
    res = run_cli("snapshot", "--file", str(path))
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr == f"error: {says}\n"


def test_snapshot_regolden_oracle_refusal_names_the_record_and_writes_nothing(
        tmp_path, monkeypatch, capsys):
    from dstfid import cli
    from dstfid.algebra import state

    cold, hot = state(0.0, 0.0, nbar=0.5), state(0.0, 0.0, nbar=50.0)
    cases = [(cold, cold), (hot, state(0.3, 0.0, nbar=1.0))]
    monkeypatch.setattr(cli, "standard_cases", lambda: cases)
    path = tmp_path / "regolden.txt"
    assert cli.main(["snapshot", "--regolden", "--file", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: record 1: cutoff 1024 leaves a thermal tail above 1e-12 at "
                            "beta=0.0198026; need at least 1396\n")
    assert not path.exists()


def test_fresh_records_names_a_convergence_failure_and_keeps_its_gaps():
    from dstfid.algebra import StateParams, state
    from dstfid.fock import ConvergenceError
    from dstfid.golden import fresh_records

    # record 1's ladder climbs 243 to the default ceiling, 1024, where its gap is 4.3e-8
    a = state(0.0, 0.0, nbar=0.5)
    s1 = StateParams(0.04569474795680655 + 0.722272039405396j, -2.8612294771582203,
                     0.4349821645157412)
    s2 = StateParams(1.2368430747997883 - 0.4023997835979532j, 0.1387705228417797,
                     0.43268085683517626)
    with pytest.raises(ConvergenceError) as exc:
        fresh_records([(a, a), (s1, s2)])
    assert str(exc.value).startswith("record 1: fidelity did not stabilize to 1e-08 by "
                                     "cutoff 1024 (gap trace: N=364: 2.089e-03, ")
    assert [r.cutoff for r in exc.value.rungs] == [243, 364, 546, 819, 1024]
    assert [r.cutoff for r in exc.value.rungs if r.exact] == [364, 546, 819, 1024]


@pytest.mark.parametrize("regolden", [[], ["--regolden"]], ids=["check", "regolden"])
def test_snapshot_empty_file_path_is_the_current_directory(tmp_path, monkeypatch, capsys,
                                                           regolden):
    # --file= names the path "" (the directory "."), not the default file
    from dstfid import cli

    default = tmp_path / "golden.txt"
    default.write_bytes(GOLDEN.read_bytes())
    monkeypatch.setattr(cli, "default_golden_path", lambda: default)
    monkeypatch.chdir(tmp_path)
    assert cli.main(["snapshot", *regolden, "--file="]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "i/o error: [Errno 21] Is a directory: '.'\n"
    assert default.read_bytes() == GOLDEN.read_bytes()


@pytest.mark.parametrize(
    "ceiling, code, says",
    # the quick self grid's nbar = 2 point needs a cutoff of 69, and is named
    # by its state as the self-fidelity checks name it
    [("40", 2, "error: k=0+0i r=0.3 nbar=2: cutoff 40 leaves a thermal tail above 1e-12 "
               "at beta=0.405465; need at least 69"),
     # a pair of the main grid whose starting cutoff is above the ceiling
     ("72", 3, "convergence failure: (k=0+0i r=0.9 nbar=2) vs (k=1+0i r=0.4 nbar=0.2): "
               "fidelity did not stabilize to 1e-08 by cutoff 72 (gap trace: no rungs); "
               "the ladder starts at cutoff 74, so the ceiling must exceed it"),
     # the self point's thermal floor, 69, is also its starting cutoff
     ("69", 3, "convergence failure: k=0+0i r=0.3 nbar=2: fidelity did not stabilize to "
               "1e-08 by cutoff 69 (gap trace: no rungs); the ladder starts at cutoff 69, "
               "so the ceiling must exceed it")],
    ids=["oracle-refusal", "convergence-failure", "ceiling-at-the-starting-cutoff"],
)
def test_verify_oracle_failure_names_the_grid_point(ceiling, code, says):
    res = run_cli("verify", "--preset", "quick", "--ceiling", ceiling)
    assert res.returncode == code and res.stdout == ""
    assert res.stderr == says + "\n"


def test_config_file_sets_method_and_flags_override(tmp_path):
    conf = tmp_path / "dst.conf"
    conf.write_text("# sweep defaults\nmethod = pipeline\nceiling = 256\n")
    base = (
        "compute", "--nbar1", "0.5", "--nbar2", "1.0", "--k2", "0.4",
        "--config", str(conf),
    )
    res = run_cli(*base)
    assert res.returncode == 0
    assert "fock oracle" not in res.stdout  # config switched the oracle off
    res2 = run_cli(*base, "--method", "oracle")
    assert res2.returncode == 0
    assert "fock oracle" in res2.stdout  # explicit flag wins over config


def test_config_file_refuses_unknown_keys(tmp_path, capsys):
    from dstfid.cli import main

    shared = tmp_path / "shared.conf"
    shared.write_text("preset = quick\nmethod = closed-form\n")
    argv = ["compute", "--nbar1", "0.5", "--nbar2", "1.0", "--k2", "0.4", "--config"]
    assert main(argv + [str(shared)]) == 0  # a key another subcommand reads is fine
    capsys.readouterr()
    typo = tmp_path / "typo.conf"
    typo.write_text("# state keys are flags, not config\nmethd = oracle\nr1 = 0.5\n")
    assert main(argv + [str(typo)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert f"{typo}:2: unknown config key 'methd'" in out.err


@pytest.mark.parametrize(
    "line, says",
    [("tol = abc", "config key tol: could not convert string to float: 'abc'"),
     ("ceiling = 1.5", "config key ceiling: invalid literal for int() with base 10: '1.5'"),
     ("method = bogus", "config key method: invalid choice 'bogus' "
                        "(choose from all, closed-form, pipeline, printed, oracle)"),
     ("preset = slow", "config key preset: invalid choice 'slow' (choose from full, quick)"),
     ("tol = 0", "config key tol: tol must be finite and > 0, got 0.0"),
     ("tol = inf", "config key tol: tol must be finite and > 0, got inf"),
     ("ceiling = 1", "config key ceiling: ceiling must be >= 2 (the smallest cutoff), got 1"),
     ("oracle_tol = 1e-20",
      "config key oracle_tol: oracle tolerance must be >= 1e-10 and < 1, got 1e-20")],
    ids=["tol", "ceiling", "method", "preset", "tol-zero", "tol-inf", "ceiling-below-2",
         "oracle-tol-below-1e-10"],
)
def test_config_file_refuses_a_bad_value_naming_its_line(tmp_path, capsys, line, says):
    # checked when the file is read, so whichever subcommand reads the file,
    # and whether or not that subcommand reads the key
    from dstfid.cli import main

    conf = tmp_path / "bad.conf"
    conf.write_text(f"# defaults\n{line}\n")
    for argv in (["compute", "--nbar1", "1", "--nbar2", "1"],
                 ["sweep", "--nbar1", "1", "--nbar2", "1", "--sweep", "r2=0:1:2"],
                 ["verify", "--preset", "quick"]):
        assert main([*argv, "--config", str(conf)]) == 2
        assert capsys.readouterr() == ("", f"error: {conf}:2: {says}\n")


def test_config_values_are_typed_as_their_flags_are(tmp_path, capsys):
    from dstfid.cli import main

    argv = ["compute", "--nbar1", "0.5", "--nbar2", "1", "--k2", "0.4", "--format", "csv"]
    assert main(argv + ["--method", "pipeline", "--tol", "1e-6", "--oracle-tol", "1e-9",
                        "--ceiling", "300"]) == 0
    flagged = capsys.readouterr().out
    conf = tmp_path / "same.conf"
    conf.write_text("method = pipeline\ntol = 1e-6\noracle-tol = 1e-9\nceiling = 300\n")
    assert main(argv + ["--config", str(conf)]) == 0
    assert capsys.readouterr().out == flagged


@pytest.mark.parametrize("argv", [
    ["compute", "--nbar1", "1"],
    ["compute", "--nbar1", "1", "--nbar2", "1", "--beta2", "1"],
    ["sweep", "--nbar1", "1", "--sweep", "r2=0:1:2"],
    ["sweep", "--nbar1", "1", "--nbar2", "1", "--beta2", "1", "--sweep", "re_k1=0:1:2"],
    # a flag beside the other temperature's axis
    ["sweep", "--nbar1", "1", "--beta2", "5", "--sweep", "nbar2=1:2:2"],
    ["sweep", "--nbar1", "1", "--nbar2", "5", "--sweep", "beta2=1:2:2"],
    # a flag beside its own field's axis is refused, not dropped unread
    ["sweep", "--nbar1", "1", "--beta2", "-1", "--sweep", "beta2=1:2:2"],
    ["sweep", "--nbar1", "1", "--nbar2", "5", "--sweep", "nbar2=1:2:2"],
], ids=["compute-none", "compute-both", "sweep-none", "sweep-both", "sweep-beta-flag-nbar-axis",
        "sweep-nbar-flag-beta-axis", "sweep-beta-flag-beta-axis", "sweep-nbar-flag-nbar-axis"])
def test_compute_and_sweep_state_one_temperature_rule(capsys, argv):
    from dstfid.cli import main

    assert main(argv) == 2
    assert capsys.readouterr() == (
        "", "error: state 2: exactly one of --nbar2 / --beta2 is required\n")


def test_oversized_sweep_grid_is_one_error_line(capsys):
    # numpy refuses the 7.28 TiB grid before allocating any of it
    from dstfid.cli import main

    assert main(["sweep", "--nbar1", "1", "--nbar2", "1",
                 "--sweep", "r2=0:1:1000000000000"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ") and out.err.count("\n") == 1
    assert "Traceback" not in out.err


def test_verify_reads_oracle_tol_not_the_threshold_key(tmp_path, capsys):
    # A file shared with compute sets tol, compute's flag threshold: verify
    # must not take it as its oracle tolerance.  Every quick-preset ladder
    # stops at its second rung at any oracle tolerance, so the full preset
    # shows that oracle_tol is read.
    from dstfid.cli import main

    def record(config=None, preset="quick"):
        argv = ["verify", "--preset", preset, "--format", "record"]
        if config is not None:
            conf = tmp_path / "verify.conf"
            conf.write_text(config + "\n")
            argv += ["--config", str(conf)]
        assert main(argv) == 0
        return capsys.readouterr().out

    assert record("tol = 0.5") == record()
    assert record("oracle_tol = 1e-10", "full") != record(preset="full")


def test_verify_refuses_an_infinite_oracle_tolerance_from_its_config(tmp_path, capsys):
    # every gap is <= inf, so each oracle would stop at its second rung and
    # the grid would pass unconverged
    from dstfid.cli import main

    conf = tmp_path / "verify.conf"
    conf.write_text("oracle_tol = inf\n")
    assert main(["verify", "--preset", "quick", "--config", str(conf)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: {conf}:1: config key oracle_tol: oracle tolerance must be " \
        ">= 1e-10 and < 1, got inf\n"


def test_verify_takes_the_oracle_tolerance_as_oracle_tol(capsys):
    # the flag is named as compute's and sweep's oracle flag and as the config
    # key; --tol, their flag threshold, is a usage error naming it
    from dstfid.cli import main

    argv = ["verify", "--preset", "quick", "--format", "record"]
    assert main(argv) == 0
    plain = capsys.readouterr().out
    assert main(argv + ["--oracle-tol", "1e-8"]) == 0
    assert capsys.readouterr().out == plain
    # every quick-preset ladder stops at its second rung at any oracle
    # tolerance; the full preset's records differ at 1e-10
    full = ["verify", "--preset", "full", "--format", "record"]
    assert main(full) == 0
    plain = capsys.readouterr().out
    assert main(full + ["--oracle-tol", "1e-10"]) == 0
    assert capsys.readouterr().out != plain
    assert main(argv + ["--tol", "1e-6"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: verify takes the oracle tolerance as --oracle-tol")


def test_snapshot_help_says_it_takes_no_config_file():
    res = run_cli("snapshot", "--help")
    assert res.returncode == 0
    assert "takes no config file" in res.stdout
    assert "--config" not in res.stdout


def test_non_finite_delta2_exponent_is_refused_as_not_finite(capsys):
    # the route's delta2 exponent overflows to NaN on this pair (the closed
    # form's log delta1 is -inf); the ratio check, which NaN fails, refuses it
    from dstfid.cli import main

    assert main(["compute", "--r1", "2.514573631676037", "--beta1", "2.2687897883326802e-21",
                 "--r2", "177.19411243212278", "--beta2", "18.470574823807027",
                 "--k2=-8.214789107378263e+76-4.300931720814783e+74i",
                 "--method", "closed-form"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("pipeline check failed: ratio dual-path mismatch: matrix nan")


def _key_paths(value, at=""):
    """Every key path of a JSON value, a list's entries under "[]"."""
    if isinstance(value, dict):
        return {p for key, v in value.items() for p in {at + key} | _key_paths(v, f"{at}{key}.")}
    if isinstance(value, list):
        return set().union(*(_key_paths(v, at + "[].") for v in value))
    return set()


def _under(key, subkeys):
    return {key} | {f"{key}.{sub}" for sub in subkeys.split()}


def _bare_constant(name):
    raise ValueError(f"bare {name} is not JSON")


_PAIR_RECORD = (
    {"version", "g", "g.re", "g.im", "value_matrix_pipeline", "value_printed", "value_oracle",
     "oracle"}
    | _under("state1", "k k.re k.im r nbar beta") | _under("state2", "k k.re k.im r nbar beta")
    | _under("pipeline", "delta1 delta2 ratio log_delta1 log_delta2 log_ratio l l.re l.im "
                         "DeltaDenom log_DeltaDenom annihilation_residual")
    | _under("printed", "delta1 delta2 ratio log_ratio")
    | _under("base", "Y value printed_value printed_domain_error")
    | _under("flags", "[].name [].magnitude")
)


@pytest.mark.parametrize("argv, paths", [
    # Y overflows: a non-finite field, written as a string
    (["compute", "--r1", "177", "--r2", "-177", "--beta1", "29", "--beta2", "29", "--k2", "0.5",
      "--method", "closed-form"], _PAIR_RECORD),
    (["compute", "--k1", "0.3", "--r1", "0.2", "--nbar1", "0.5", "--k2", "0.1+0.2i",
      "--r2", "0.5", "--nbar2", "1.0", "--method", "all"],
     _PAIR_RECORD | _under("oracle", "fidelity cutoff_used convergence_gap frame_shift rungs "
                                     "rungs.[].cutoff rungs.[].kept rungs.[].fidelity "
                                     "rungs.[].gap rungs.[].exact")),
    (["verify", "--preset", "quick"],
     {"version", "passed", "preset", "pair_points", "self_points"}
     | _under("checks", "[].name [].worst [].threshold [].passed [].detail")
     | _under("entries", "[].formula [].max_abs_deviation [].worst_params [].verdict [].note")),
])
def test_record_has_its_key_set_and_is_strict_json(capsys, argv, paths):
    from dstfid.cli import main

    assert main([*argv, "--format", "record"]) == 0
    record = json.loads(capsys.readouterr().out, parse_constant=_bare_constant)
    assert _key_paths(record) == paths
    if "177" in argv:
        assert record["base"]["Y"] == "inf"


_Y_OVERFLOWS = ("printed base-factor argument Y overflows double precision "
                "(a squared hyperbolic, or a product of two, leaves range)")


@pytest.mark.parametrize("argv, y, reason", [
    # every squared hyperbolic is finite, but two products overflow with
    # opposite signs: Y is inf - inf
    (["--r1", "150", "--r2=-150", "--beta1", "700", "--beta2", "0.001"], "inf", _Y_OVERFLOWS),
    (["--beta1", "744", "--beta2", "744"], "inf", _Y_OVERFLOWS),  # a square overflows
    (["--beta1", "1e-300", "--beta2", "1e-300"], 1.0,
     "printed base-factor argument sqrt(Y) = 1 <= 1; display undefined here"),
    # every squared hyperbolic is finite, and one product overflows to +inf
    (["--beta1", "700", "--beta2", "700", "--r1", "10"], "inf", _Y_OVERFLOWS),
], ids=["inf-minus-inf", "square-overflows", "sqrt-y-is-one", "product-overflows"])
def test_record_names_why_the_printed_base_is_undefined(capsys, argv, y, reason):
    from dstfid.cli import main

    assert main(["compute", *argv, "--method", "closed-form", "--format", "record"]) == 0
    base = json.loads(capsys.readouterr().out)["base"]
    assert base["printed_value"] == "nan"
    assert base["Y"] == y
    assert base["printed_domain_error"] == reason


def test_main_freezes_no_objects_of_its_callers(capsys):
    # dstfid.cli freezes its import-time objects once, at import; main runs
    # in-process many times (tests, benchmarks) and must not freeze what
    # each run leaves behind.  Frozen objects can still be freed, so the
    # count may fall.
    import gc

    from dstfid.cli import main

    before = gc.get_freeze_count()
    for _ in range(2):
        assert main(["compute", "--nbar1", "1", "--nbar2", "1", "--k2", "0.1",
                     "--method", "pipeline", "--format", "csv"]) == 0
    assert gc.get_freeze_count() <= before

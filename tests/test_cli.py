"""End-to-end CLI smoke tests (subprocess, installed entry point)."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "fidelity_snapshots.txt"


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "dstfid.cli", *args],
        capture_output=True,
        text=True,
        **kwargs,
    )


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
    res = run_cli(
        "compute", "--r1", "200", "--r2", "200", "--nbar1", "1", "--nbar2", "1",
        "--k2", "0.5", "--method", "closed-form",
    )
    assert res.returncode == 1
    assert res.stdout == ""
    assert res.stderr.startswith("pipeline check failed: matching solve residual")
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


def test_sweep_convergence_failure_names_the_row():
    res = run_cli(
        "sweep", "--nbar1", "0.5", "--nbar2", "0.5", "--sweep", "re_k2=0:3:4",
        "--method", "all", "--ceiling", "40",
    )
    assert res.returncode == 3
    assert res.stdout == ""
    assert "sweep row 1 (re_k2=1)" in res.stderr
    assert "no rows written" in res.stderr


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


def test_snapshot_missing_file_is_io_error(tmp_path):
    res = run_cli("snapshot", "--file", str(tmp_path / "nope.txt"))
    assert res.returncode == 4


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

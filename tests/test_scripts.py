"""The analysis scripts under scripts/ run against the package's API."""

import importlib.util
import os
from pathlib import Path

import numpy as np
import pytest

from dstfid.reduction import _evaluate

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name, argv, header, rows",
    [
        # four (squeeze, temperature) settings, three points along the ray each
        ("displacement_decay", ["--points", "3"],
         "label,r1,r2,nbar1,nbar2,abs_g,fidelity,coherent_reference", 12),
        ("cutoff_convergence", ["--rungs", "2"],
         "cutoff,kept,fidelity,gap_prev,gap_adaptive", 2),
        # the ladder stops at the oracle's ceiling: 48, ..., 819, then 1024
        ("cutoff_convergence", ["--rungs", "40"],
         "cutoff,kept,fidelity,gap_prev,gap_adaptive", 9),
        # one line per check of the closed-form batch, then passed
        ("refusal_census", ["--rows", "2000"], "check,rows", 13),
    ],
    ids=["displacement_decay", "cutoff_convergence", "cutoff_convergence-ceiling",
         "refusal_census"],
)
def test_script_runs_and_writes_its_csv(capsys, name, argv, header, rows):
    assert _load(name).main(argv) == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if not ln.startswith("#")]
    assert lines[0] == header
    assert len(lines) == 1 + rows


@pytest.mark.parametrize("name, argv, flag", [
    ("cutoff_convergence", ["--rungs", "0"], "--rungs"),
    ("cutoff_convergence", ["--rungs", "-1"], "--rungs"),
    ("cutoff_convergence", ["--nbar1", "0"], None),
    ("cutoff_convergence", ["--r1", "400"], None),  # the oracle's ladder has no rungs
    ("displacement_decay", ["--points", "0"], "--points"),
    ("displacement_decay", ["--points", "-1"], "--points"),
    ("displacement_decay", ["--gmax", "nan"], None),
    ("displacement_decay", ["--gmax", "-1"], None),  # abs_g would run negative
    ("displacement_decay", ["--points", "2", "--phase", "inf"], None),
    # a path under a file, which no user can write, root included
    ("displacement_decay", ["--points", "2", "--out", os.path.join(os.devnull, "x.csv")], None),
    ("refusal_census", ["--seed", "-1"], None),  # numpy's generator takes no negative seed
], ids=["rungs-zero", "rungs-negative", "nbar-zero", "no-rungs", "points-zero",
        "points-negative", "gmax-nan", "gmax-negative", "phase-inf", "out-unwritable",
        "seed-negative"])
def test_script_refuses_bad_input_with_a_usage_error(capsys, name, argv, flag):
    with pytest.raises(SystemExit) as exc:
        _load(name).main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error:" in err
    if flag is not None:  # refused by the script itself, not by the library it calls
        assert f"error: {flag} " in err, err


def test_refusal_census_counts_every_row_once_in_check_order(capsys):
    assert _load("refusal_census").main(["--rows", "2000", "--seed", "3"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    checks = _evaluate(*(np.zeros(1),) * 6, 1e-8).checks
    assert [name for name, _ in rows] == [name for name, _, _ in checks] + ["passed"]
    assert sum(int(n) for _, n in rows) == 2000


def test_output_digest_hashes_every_command_of_its_battery(capsys):
    module = _load("output_digest")
    assert module.main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "command,exit,stdout_sha256,stderr_sha256"
    rows = [line.rsplit(",", 3) for line in lines[1:]]
    assert [command for command, *_ in rows] == list(module.BATTERY)
    # every command ends by an exit code, none by an escaped exception
    assert all(code.isdigit() for _, code, _, _ in rows)
    assert all(len(out) == len(err) == 64 for _, _, out, err in rows)

"""The analysis scripts under scripts/ run against the package's API."""

import importlib.util
import os
import subprocess
import sys
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
        # one line per check of the closed-form batch, then passed
        ("refusal_census", ["--rows", "2000"], "check,rows", 13),
    ],
    ids=["refusal_census"],
)
def test_script_runs_and_writes_its_csv(capsys, name, argv, header, rows):
    assert _load(name).main(argv) == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if not ln.startswith("#")]
    assert lines[0] == header
    assert len(lines) == 1 + rows


@pytest.mark.parametrize("name, argv", [
    ("refusal_census", ["--seed", "-1"]),  # numpy's generator takes no negative seed
    # more rows than memory holds: numpy's allocation fails at once
    ("refusal_census", ["--rows", "1000000000000"]),
], ids=["seed-negative", "rows-past-memory"])
def test_script_refuses_bad_input_with_a_usage_error(capsys, name, argv):
    with pytest.raises(SystemExit) as exc:
        _load(name).main(argv)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_refusal_census_counts_every_row_once_in_check_order(capsys):
    assert _load("refusal_census").main(["--rows", "2000", "--seed", "3"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    _, checks, _ = _evaluate(*(np.zeros(1),) * 5, 1e-8)
    assert [name for name, _ in rows] == [name for name, _, _ in checks] + ["passed"]
    assert sum(int(n) for _, n in rows) == 2000


def test_output_digest_hashes_every_command_of_its_battery():
    # the committed digest has one row per battery command, in order, each
    # ending by an exit code, none by an escaped exception; the next test
    # holds a fresh run of the battery to it
    module = _load("output_digest")
    lines = module.DIGEST.read_text().splitlines()
    assert lines[0] == module.HEADER == "command,exit,stdout_sha256,stderr_sha256"
    rows = [line.rsplit(",", 3) for line in lines[1:]]
    assert [command for command, *_ in rows] == list(module.BATTERY)
    assert len(set(module.BATTERY)) == len(module.BATTERY)
    assert all(code.isdigit() for _, code, _, _ in rows)
    assert all(len(out) == len(err) == 64 for _, _, out, err in rows)


@pytest.mark.parametrize("count", ["1", "2"])
def test_output_digest_matches_the_committed_digest(count):
    # one child process at one BLAS thread, as the committed digest was made,
    # and at two: the battery's output does not depend on the thread count.
    # On a mismatch its output names each moved command and what moved.
    threads = {name: count for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                        "MKL_NUM_THREADS")}
    src = str(SCRIPTS.parent / "src")
    env = {**os.environ, **threads,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    res = subprocess.run([sys.executable, str(SCRIPTS / "output_digest.py"), "--check"],
                         capture_output=True, text=True, env=env)
    assert (res.returncode, res.stderr) == (0, ""), res.stdout
    count = len(_load("output_digest").BATTERY)
    assert res.stdout == f"all {count} commands match output_digest.csv\n"


def test_output_digest_check_names_each_moved_command(monkeypatch, capsys):
    module = _load("output_digest")
    committed = module.DIGEST.read_text().splitlines()
    (a, a_code, a_out, a_err), (b, b_code, b_out, b_err), (c, *_) = (
        line.rsplit(",", 3) for line in committed[1:4])
    fresh = [committed[0], f"{a},{a_code},{'0' * 64},{a_err}",
             f"{b},9,{b_out},{'0' * 64}", *committed[4:], "compute --new,0,x,y"]
    assert module.changes(committed, committed) == []
    assert module.changes(committed, fresh) == [
        f"{a}: stdout moved", f"{b}: exit moved ({b_code} -> 9), stderr moved",
        "compute --new: not in the committed digest", f"{c}: gone from the battery"]
    swapped = [committed[0], committed[2], committed[1], *committed[3:]]
    assert module.changes(committed, swapped) == ["the battery's order moved"]
    monkeypatch.setattr(module, "digest", lambda: fresh)
    assert module.main(["--check"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "4 difference(s) from output_digest.csv"

"""The analysis scripts under scripts/ run against the package's API."""

import importlib.util
from pathlib import Path

import pytest

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
         "cutoff,fidelity,gap_prev,gap_adaptive", 2),
    ],
    ids=["displacement_decay", "cutoff_convergence"],
)
def test_script_runs_and_writes_its_csv(capsys, name, argv, header, rows):
    assert _load(name).main(argv) == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if not ln.startswith("#")]
    assert lines[0] == header
    assert len(lines) == 1 + rows

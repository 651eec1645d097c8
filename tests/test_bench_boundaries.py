"""The names perfbench's tracer wraps still exist in the package.

The tracer reports a vanished name as missing, so its per-layer metrics would
go missing without failing anything; this test fails instead.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _boundaries():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.BOUNDARIES


def test_every_traced_name_resolves():
    boundaries = _boundaries()
    assert boundaries
    missing = [f"{module}.{attr}" for module, attr, _, _ in boundaries
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []

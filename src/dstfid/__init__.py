"""Bures fidelity of displaced squeezed thermal states, three ways.

- an exact 2x2 matrix reduction (the trustworthy closed form),
- a verbatim transcription of the printed closed-form expressions
  (kept as a flagged comparison path), and
- a truncated Fock-space brute-force oracle (the arbiter).

See the README for the CLI (compute / sweep / verify / snapshot).
"""

from .algebra import StateParams, state
from .fock import ConvergenceError, OracleResult, fidelity_oracle
from .reconcile import (
    ReconciliationEntry,
    ReconciliationReport,
    VerificationCheck,
    run_verification,
)
from .reduction import (
    BaseFactorTrace,
    ClosedForm,
    FidelityOptions,
    FidelityReport,
    PipelineCheckError,
    ReductionTrace,
    SqueezeGapError,
    base_factor,
    closed_form,
    fidelity,
)

__version__ = "0.1.0"

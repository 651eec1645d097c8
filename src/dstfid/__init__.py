"""Bures fidelity of displaced squeezed thermal states, three ways.

- an exact 2x2 matrix reduction (the trustworthy closed form),
- a verbatim transcription of the printed closed-form expressions
  (kept as a flagged comparison path), and
- a truncated Fock-space brute-force oracle (the arbiter).

See the README for the CLI (compute / sweep / verify / snapshot).
"""

from .algebra import (
    SIGMA,
    DegenerateInputError,
    Mat2C,
    PairVec,
    StateParams,
    check_symplectic,
    pair_vec,
    squeeze_matrix,
    state,
    thermal_matrix,
)
from .fock import (
    ContractViolationError,
    ConvergenceError,
    FockMatrix,
    OracleResult,
    annihilation,
    displacement_op,
    dst_state,
    fidelity_oracle,
    matrix_exp,
    squeeze_op,
    thermal_state,
    uhlmann_fidelity,
)
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
    delta1,
    delta2,
    fidelity,
    matching_matrix,
    ratio_printed,
)

__version__ = "0.1.0"

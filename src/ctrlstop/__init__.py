"""Finite-horizon stochastic control with discretionary stopping.

Two independent solvers for the value function of mixed control-stopping
problems driven by a finite control set: a monotone explicit
finite-difference scheme for the obstacle HJB equation (``pde``) and a
regression Monte-Carlo scheme for the reflected backward equation (``mc``),
cross-checked by forward simulation of the extracted strategy
(``strategy``) and a numbered acceptance suite (``acceptance``).
"""

from __future__ import annotations

import ctypes
import os

# glibc raises its mmap threshold to the size of each large block it frees, so the solvers' big arrays move
# into the brk heap and its fragmentation shifts the peak resident set between identical runs.  Fixed
# thresholds map every block of 4 MiB or more on its own and keep at most 4 MiB of freed heap.
if "CS_GNU_LIBC_VERSION" in getattr(os, "confstr_names", {}):  # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD
    ctypes.CDLL(None).mallopt(-3, 4 << 20), ctypes.CDLL(None).mallopt(-1, 4 << 20)

from .expr import EvalError, ExpressionTree, ParseError, parse_expression
from .hamilton import (
    TIE_TOL,
    TruncationIndex,
    sup_hamiltonian_batch,
    truncate_values,
)
from .model import (
    Box,
    ControlSet,
    Growth,
    ProblemSpec,
    build_builtin,
    compile_coefficients,
    dominating_constant,
    validate,
)
from .paths import (
    PathBatch,
    TimeGrid,
    girsanov_log_batch,
    simulate_controlled,
    simulate_uncontrolled,
)
from .pde import (
    SpaceTimeGrid,
    ValueField,
    extract_policy,
    ladder,
    make_grid,
    solve,
)
from .mc import BackwardSolveResult, RegressionBasis, skorokhod_residual, solve_rbsde, truncation_ladder_mc
from .strategy import (
    ConstantPolicy,
    PayoffEstimate,
    evaluate,
    martingale_check,
    optimality_gap,
)
from .acceptance import CLOSED_FORM_ATM_PUT, run_all

__version__ = "0.1.0"

__all__ = [
    "ParseError",
    "EvalError",
    "ExpressionTree",
    "parse_expression",
    "Box",
    "ControlSet",
    "Growth",
    "ProblemSpec",
    "build_builtin",
    "compile_coefficients",
    "dominating_constant",
    "validate",
    "TruncationIndex",
    "TIE_TOL",
    "sup_hamiltonian_batch",
    "truncate_values",
    "TimeGrid",
    "PathBatch",
    "simulate_uncontrolled",
    "simulate_controlled",
    "girsanov_log_batch",
    "SpaceTimeGrid",
    "ValueField",
    "make_grid",
    "solve",
    "extract_policy",
    "ladder",
    "RegressionBasis",
    "BackwardSolveResult",
    "solve_rbsde",
    "skorokhod_residual",
    "truncation_ladder_mc",
    "ConstantPolicy",
    "PayoffEstimate",
    "evaluate",
    "martingale_check",
    "optimality_gap",
    "CLOSED_FORM_ATM_PUT",
    "run_all",
    "__version__",
]

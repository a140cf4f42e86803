"""Obstacle problem for the 1-D restricted fractional Laplacian.

Solver library and verification engine for

    min { (1/2) <A v, v> - <f, v> : v >= psi }

where A is the M-matrix discretization of (-Delta)^s on an interval with
zero exterior condition.  The verify module asserts the structural theorems
of the problem (KKT system, Lewy-Stampacchia bounds, Minty characterization,
comparison principles, continuous dependence) as exact discrete properties;
solve_penalty asserts the penalty sandwich u <= u_eps <= u + eps.
"""

from .operator import FracLapOperator, Grid, assemble_operator, kernel_constant, solve_linear
from .solvers import (
    IterationLimitError,
    OracleAmbiguityError,
    PenaltyParams,
    PenaltyResult,
    ProblemSpec,
    Solution,
    SolverError,
    SolverParams,
    brute_force_oracle,
    kkt_violation,
    make_solution,
    solve_active_set,
    solve_penalty,
    solve_projected_gradient,
    solve_psor,
)
from .verify import (
    ConvergenceReport,
    Report,
    check_bounds_cinfty,
    check_comparison_in_f,
    check_kkt,
    check_lewy_stampacchia,
    check_linfty_dependence,
    check_minty,
    check_smallest_supersolution,
    check_truncation_identities,
    run_obstacle_convergence,
)

__version__ = "0.1.0"

__all__ = [
    "Grid",
    "FracLapOperator",
    "kernel_constant",
    "assemble_operator",
    "ProblemSpec",
    "SolverParams",
    "PenaltyParams",
    "Solution",
    "PenaltyResult",
    "SolverError",
    "IterationLimitError",
    "OracleAmbiguityError",
    "kkt_violation",
    "make_solution",
    "solve_linear",
    "solve_psor",
    "solve_projected_gradient",
    "solve_active_set",
    "solve_penalty",
    "brute_force_oracle",
    "Report",
    "ConvergenceReport",
    "check_kkt",
    "check_lewy_stampacchia",
    "check_minty",
    "check_smallest_supersolution",
    "check_comparison_in_f",
    "check_linfty_dependence",
    "check_bounds_cinfty",
    "check_truncation_identities",
    "run_obstacle_convergence",
]

"""Random-projection RBF collocation solver for stiff ODE initial-value problems."""

from .basis import RbfSegmentBasis, SeededRng, sample_basis
from .collocation import assemble_jacobian, assemble_residual, make_grid
from .errors import NumericError, StepUnderflowError
from .integrators import StepControl, Trajectory, dense_eval, dp45_solve, sdirk_solve
from .leastnorm import truncated_pinv_solve
from .metrics import (
    ErrorMetrics,
    RunReport,
    TimingSummary,
    error_metrics,
    metric_grid,
    reference_solution,
    run_benchmark,
)
from .problems import BENCHMARK_NAMES, OdeProblem, canonical_name, make_benchmark
from .serialize import SolutionFormatError, load_solution, save_solution
from .solver import (
    PiecewiseSolution,
    SolverConfig,
    TrainResult,
    eval_solution,
    gauss_newton_train,
    solve_adaptive,
)
from .trial import SegmentSolution, trial_eval

__version__ = "0.1.0"

__all__ = [
    "BENCHMARK_NAMES",
    "ErrorMetrics",
    "NumericError",
    "OdeProblem",
    "PiecewiseSolution",
    "RbfSegmentBasis",
    "RunReport",
    "SeededRng",
    "SegmentSolution",
    "SolutionFormatError",
    "SolverConfig",
    "StepControl",
    "StepUnderflowError",
    "TimingSummary",
    "TrainResult",
    "Trajectory",
    "assemble_jacobian",
    "assemble_residual",
    "canonical_name",
    "dense_eval",
    "dp45_solve",
    "error_metrics",
    "eval_solution",
    "gauss_newton_train",
    "load_solution",
    "make_benchmark",
    "make_grid",
    "metric_grid",
    "reference_solution",
    "run_benchmark",
    "sample_basis",
    "save_solution",
    "sdirk_solve",
    "solve_adaptive",
    "trial_eval",
    "truncated_pinv_solve",
]

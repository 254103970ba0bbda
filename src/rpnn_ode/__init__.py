"""Random-projection RBF collocation solver for stiff ODE initial-value problems.

``import rpnn_ode`` loads the solver core only: basis, collocation, errors,
integrators, leastnorm, problems, solver and trial.  The report layer,
:mod:`rpnn_ode.metrics` (error metrics, benchmark harness) and
:mod:`rpnn_ode.serialize` (solution files), loads on first access of one of
its names, through a module ``__getattr__`` (PEP 562).  No solve or
evaluation uses it, so a program that only solves does not pay for compiling
it and building its dataclasses.  A name is imported once and then kept in
this package's namespace; ``rpnn_ode.cli`` imports both modules itself.
"""

from importlib import import_module as _import_module

from .basis import RbfSegmentBasis, SeededRng, sample_basis
from .collocation import assemble_jacobian, assemble_residual, make_grid
from .errors import NumericError, StepUnderflowError
from .integrators import StepControl, Trajectory, dense_eval, dp45_solve, sdirk_solve
from .leastnorm import truncated_pinv_solve
from .problems import BENCHMARK_NAMES, OdeProblem, canonical_name, make_benchmark
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

# report-layer name -> the submodule that defines it, imported on first access
_REPORT_MODULES = ("metrics", "serialize")
_REPORT_LAYER = {
    "ErrorMetrics": "metrics",
    "RunReport": "metrics",
    "TimingSummary": "metrics",
    "error_metrics": "metrics",
    "metric_grid": "metrics",
    "reference_solution": "metrics",
    "run_benchmark": "metrics",
    "SolutionFormatError": "serialize",
    "load_solution": "serialize",
    "save_solution": "serialize",
}

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


def __getattr__(name: str):
    """A report-layer name or submodule, imported now and kept in the namespace."""
    if name in _REPORT_MODULES:
        return _import_module(f"{__name__}.{name}")
    if name not in _REPORT_LAYER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f"{__name__}.{_REPORT_LAYER[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_REPORT_LAYER) | set(_REPORT_MODULES))

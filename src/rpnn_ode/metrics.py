"""Error metrics and the benchmark harness.

Solutions are compared on equidistant grids against a reference: the
problem's analytic solution when it has one, else a tightly-toleranced
implicit trajectory.  An "evaluable" is any callable mapping a 1-d
array of abscissae to a (len(x), m) array of states; piecewise solutions and
trajectories both satisfy this through their __call__.

Each concern has one function: :func:`_solve_cell` dispatches a solve by
method, :func:`_timed` times repeated runs, :func:`error_metrics` computes the
error norms and :func:`reference_solution` chooses the reference.  The suite
and the CLI's ``solve`` build each cell's report through :func:`run_cell`.  A
report's JSON form (:func:`report_to_dict`) is the :class:`RunReport` fields
plus ``schema_version``; the CLI's summary CSV rows are read from that form.
"""

from __future__ import annotations

import numbers
import time
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np

from .integrators import StepControl, dp45_solve, sdirk_solve
from .problems import OdeProblem
from .solver import SolverConfig, solve_adaptive

Evaluable = Callable[[np.ndarray], np.ndarray]

METHODS = ("rpnn", "dp45", "sdirk")
REFERENCE_TOL = 1e-12

_GRID_SIZES = {"prothero_robinson": 3000, "rober": 20000, "hires": 150000}
_FALLBACK_GRID = 1000


@dataclass(frozen=True)
class ErrorMetrics:
    """Per-component error norms over a fixed grid.

    l2 is the unnormalized vector 2-norm of the pointwise differences, linf
    the largest absolute difference, mae their mean.
    """

    l2: np.ndarray
    linf: np.ndarray
    mae: np.ndarray
    grid_size: int

    def __post_init__(self):
        for name in ("l2", "linf", "mae"):
            object.__setattr__(self, name, np.atleast_1d(np.asarray(getattr(self, name), float)))


@dataclass(frozen=True)
class TimingSummary:
    """Wall times of one cell's repeated solves, in seconds.

    median, min and max are over the `repeats` runs, each timed with
    ``time.perf_counter``; a failed cell has repeats 0 and times 0.
    """

    median: float
    min: float
    max: float
    repeats: int


@dataclass(frozen=True)
class RunReport:
    """Outcome of one (problem, method) benchmark cell."""

    problem: str
    params: dict
    method: str
    tol: float
    seed: int
    metrics: ErrorMetrics | None
    n_points: int
    n_segments: int
    times: TimingSummary
    status: str = "ok"
    detail: str = ""

    @classmethod
    def failed(cls, problem: OdeProblem, method: str, tol: float, seed: int,
               detail: str) -> RunReport:
        """Report of a cell whose reference or solve raised: no metrics, no runs."""
        return cls(problem=problem.name, params=dict(problem.params), method=method, tol=tol,
                   seed=seed, metrics=None, n_points=0, n_segments=0,
                   times=TimingSummary(0.0, 0.0, 0.0, 0), status="error", detail=detail)


def error_metrics(candidate: Evaluable, reference: Evaluable, grid: np.ndarray) -> ErrorMetrics:
    """L2, Linf and MAE of candidate minus reference, per component.

    Each side's values on k points are (k, m), or (k,) for m = 1; ValueError otherwise.
    """
    xs = np.asarray(grid, dtype=float)
    cand, ref = (np.asarray(fn(xs), dtype=float) for fn in (candidate, reference))
    cand, ref = (v[:, None] if v.ndim == 1 else v for v in (cand, ref))
    if cand.ndim != 2 or cand.shape != ref.shape or len(cand) != len(xs):
        raise ValueError(f"values {cand.shape} and {ref.shape} must both be ({len(xs)}, m)")
    diff = cand - ref
    return ErrorMetrics(
        l2=np.sqrt((diff**2).sum(axis=0)),
        linf=np.abs(diff).max(axis=0),
        mae=np.abs(diff).mean(axis=0),
        grid_size=len(xs),
    )


def default_grid_size(problem: OdeProblem) -> int:
    """Per-problem metric grid sizes; van der Pol scales with its stiffness."""
    if problem.name == "van_der_pol":
        return 15000 if problem.params.get("mu", 0) <= 10 else 60000
    return _GRID_SIZES.get(problem.name, _FALLBACK_GRID)


def metric_grid(problem: OdeProblem, size: int | None = None) -> np.ndarray:
    """Equidistant grid of `size` points over the problem domain, both endpoints
    included; :func:`default_grid_size` points for None, ValueError unless size
    is None or an integer >= 1."""
    size = default_grid_size(problem) if size is None else _positive_int("grid size", size)
    return np.linspace(problem.x0, problem.x_end, size)


def reference_solution(problem: OdeProblem) -> Evaluable:
    """The comparison baseline: ``problem.analytic`` when present, else an
    sdirk trajectory at REFERENCE_TOL."""
    if problem.analytic is not None:
        return problem.analytic
    return sdirk_solve(problem, StepControl(abs_tol=REFERENCE_TOL, rel_tol=REFERENCE_TOL))


def _positive_int(name: str, value) -> int:
    """value as an int; ValueError naming it unless it is an integer (Python or
    numpy) >= 1."""
    if not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"need an integer {name} >= 1, got {value!r}")
    return int(value)


def _timed(fn, repeats: int):
    """Run fn `repeats` times; returns (first result, TimingSummary).

    Raises ValueError, before the first run, unless `repeats` is an integer >= 1.
    """
    repeats = _positive_int("repeats", repeats)
    result = None
    times = []
    for r in range(repeats):
        start = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - start)
        if r == 0:
            result = out
    return result, TimingSummary(
        median=float(np.median(times)), min=float(min(times)), max=float(max(times)),
        repeats=repeats,
    )


def _solve_cell(problem: OdeProblem, method: str, tol: float, seed: int):
    """Solve with one of METHODS (else ValueError); returns (evaluable, n_points, n_segments)."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if method == "rpnn":
        sol = solve_adaptive(problem, SolverConfig(tol=tol, seed=seed))
        return sol, sol.total_points, sol.n_segments
    ctrl = StepControl(abs_tol=tol, rel_tol=tol)
    traj = dp45_solve(problem, ctrl) if method == "dp45" else sdirk_solve(problem, ctrl)
    return traj, len(traj.abscissae), traj.n_steps


def run_cell(problem: OdeProblem, method: str, tol: float, seed: int, repeats: int,
             reference: Evaluable | None, grid: np.ndarray) -> tuple[Evaluable, RunReport]:
    """Solve one cell `repeats` times; returns (first solution, report), with metrics
    against `reference` on `grid`, or None without a reference.  Raises ValueError,
    before any solve, unless `repeats` is an integer >= 1 or for an unknown method,
    else what the solve raises."""
    (evaluable, n_points, n_segments), times = _timed(
        lambda: _solve_cell(problem, method, tol, seed), repeats
    )
    metrics = None if reference is None else error_metrics(evaluable, reference, grid)
    return evaluable, RunReport(problem=problem.name, params=dict(problem.params), method=method,
                                tol=tol, seed=seed, metrics=metrics, n_points=n_points,
                                n_segments=n_segments, times=times)


def run_benchmark(
    problems: Sequence[OdeProblem],
    tol: float,
    seed: int = 0,
    repeats: int = 1,
    grid_size: int | None = None,
    methods: Sequence[str] = METHODS,
) -> list[RunReport]:
    """Solve each problem with each method, timed over `repeats` runs.

    Errors are measured on the problem's metric grid, of `grid_size` points
    when given, against :func:`reference_solution`: the analytic solution
    when the problem has one (Prothero-Robinson), else an sdirk trajectory at
    REFERENCE_TOL.  rpnn runs with the default :class:`SolverConfig` at `tol`
    and `seed`.  A failing cell is recorded with status "error" and does not
    abort the suite.  `methods` is a sequence of names from METHODS; a bare
    string, a bad `tol`, `seed`, `repeats`, `grid_size` or an unknown method
    raises ValueError before any reference is built.
    """
    _positive_int("repeats", repeats)
    if isinstance(methods, str):
        raise ValueError(f"methods must be a sequence of names from {METHODS}, got {methods!r}")
    unknown = set(methods) - set(METHODS)
    if unknown:
        raise ValueError(f"unknown methods: {sorted(unknown)}")
    SolverConfig(tol=tol, seed=seed)  # the cells' own checks of tol and seed
    StepControl(tol, tol)
    grids = [metric_grid(problem, grid_size) for problem in problems]
    reports = []
    for problem, grid in zip(problems, grids):
        try:
            ref = reference_solution(problem)
        except Exception as exc:  # record, keep going
            reports.extend(RunReport.failed(problem, method, tol, seed, f"reference failed: {exc}")
                           for method in methods)
            continue
        for method in methods:
            try:
                reports.append(run_cell(problem, method, tol, seed, repeats, ref, grid)[1])
            except Exception as exc:
                reports.append(RunReport.failed(problem, method, tol, seed, str(exc)))
    return reports


def report_to_dict(report: RunReport) -> dict:
    """JSON-ready form of a report: ``schema_version`` 1, then the dataclass's
    fields in order, with params as floats and metrics as per-component norms
    plus the grid size."""
    m = report.metrics
    metrics = None if m is None else {
        "per_component": [{"l2": float(l2), "linf": float(linf), "mae": float(mae)}
                          for l2, linf, mae in zip(m.l2, m.linf, m.mae)],
        "grid_size": m.grid_size,
    }
    return {"schema_version": 1, **asdict(report),
            "params": {k: float(v) for k, v in report.params.items()}, "metrics": metrics}

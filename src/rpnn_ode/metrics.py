"""Error metrics and the benchmark harness.

Solutions are compared on equidistant grids against a reference: the
problem's analytic solution when it has one, else a tightly-toleranced
implicit trajectory.  An "evaluable" is any callable mapping a 1-d
array of abscissae to a (len(x), m) array of states; piecewise solutions and
trajectories both satisfy this through their __call__.

Each concern has one function, which the CLI uses as well:
:func:`_solve_cell` dispatches a solve by method, :func:`_timed` times
repeated runs, :func:`error_metrics` computes the error norms and
:func:`reference_solution` chooses the reference.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
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


def error_metrics(candidate: Evaluable, reference: Evaluable, grid: np.ndarray) -> ErrorMetrics:
    """L2, Linf and MAE of candidate minus reference, per component."""
    xs = np.asarray(grid, dtype=float)
    diff = np.asarray(candidate(xs), dtype=float) - np.asarray(reference(xs), dtype=float)
    if diff.ndim == 1:
        diff = diff[:, None]
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
    """Equidistant grid over the problem domain, both endpoints included."""
    return np.linspace(problem.x0, problem.x_end, size or default_grid_size(problem))


def reference_solution(problem: OdeProblem, tol: float = REFERENCE_TOL) -> Evaluable:
    """The comparison baseline: ``problem.analytic`` when present, else an
    sdirk trajectory at ``tol``."""
    if problem.analytic is not None:
        return problem.analytic
    return sdirk_solve(problem, StepControl(abs_tol=tol, rel_tol=tol))


def _timed(fn, repeats: int):
    """Run fn `repeats` times; returns (first result, TimingSummary).

    Raises ValueError, before the first run, when `repeats` is below 1.
    """
    if repeats < 1:
        raise ValueError(f"need repeats >= 1, got {repeats}")
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


def _solve_cell(problem: OdeProblem, method: str, tol: float, seed: int,
                h: int = SolverConfig.h, n: int = SolverConfig.n):
    """Solve with one method; returns (evaluable, n_points, n_segments)."""
    if method == "rpnn":
        sol = solve_adaptive(problem, SolverConfig(h=h, n=n, tol=tol, seed=seed))
        return sol, sol.total_points, sol.n_segments
    ctrl = StepControl(abs_tol=tol, rel_tol=tol)
    traj = dp45_solve(problem, ctrl) if method == "dp45" else sdirk_solve(problem, ctrl)
    return traj, len(traj.abscissae), traj.n_steps


def run_benchmark(
    problems: Sequence[OdeProblem],
    tol: float,
    seed: int = 0,
    repeats: int = 1,
    grid_sizes: dict | None = None,
    methods: Sequence[str] = METHODS,
    h: int = 40,
    n: int = 20,
    reference_tol: float = REFERENCE_TOL,
) -> list[RunReport]:
    """Solve each problem with each method, timed over `repeats` runs.

    Errors are measured on the problem's metric grid against
    :func:`reference_solution`: the analytic solution when the problem has
    one (Prothero-Robinson), else an sdirk trajectory at `reference_tol`.
    A failing cell is recorded with status "error" and does not abort the
    suite.
    """
    if repeats < 1:
        raise ValueError(f"need repeats >= 1, got {repeats}")
    unknown = set(methods) - set(METHODS)
    if unknown:
        raise ValueError(f"unknown methods: {sorted(unknown)}")
    reports = []
    for problem in problems:
        grid = metric_grid(problem, (grid_sizes or {}).get(problem.name))
        try:
            ref = reference_solution(problem, reference_tol)
        except Exception as exc:  # record, keep going
            for method in methods:
                reports.append(
                    RunReport(problem.name, dict(problem.params), method, tol, seed, None,
                              0, 0, TimingSummary(0.0, 0.0, 0.0, 0), "error",
                              f"reference failed: {exc}")
                )
            continue
        for method in methods:
            try:
                (evaluable, n_points, n_segments), times = _timed(
                    lambda: _solve_cell(problem, method, tol, seed, h, n), repeats
                )
                reports.append(
                    RunReport(problem.name, dict(problem.params), method, tol, seed,
                              error_metrics(evaluable, ref, grid), n_points, n_segments, times)
                )
            except Exception as exc:
                reports.append(
                    RunReport(problem.name, dict(problem.params), method, tol, seed, None,
                              0, 0, TimingSummary(0.0, 0.0, 0.0, 0), "error", str(exc))
                )
    return reports


def eval_grid_timing(evaluable: Evaluable, grid: np.ndarray, repeats: int = 1) -> TimingSummary:
    """Time dense evaluation of an already-computed solution over a grid."""
    xs = np.asarray(grid, dtype=float)
    _, times = _timed(lambda: evaluable(xs), repeats)
    return times


def report_to_dict(report: RunReport) -> dict:
    """JSON-ready form of a report (schema_version 1)."""
    metrics = None
    if report.metrics is not None:
        metrics = {
            "per_component": [
                {"l2": float(l2), "linf": float(linf), "mae": float(mae)}
                for l2, linf, mae in zip(report.metrics.l2, report.metrics.linf, report.metrics.mae)
            ],
            "grid_size": report.metrics.grid_size,
        }
    return {
        "schema_version": 1,
        "problem": report.problem,
        "params": {k: float(v) for k, v in report.params.items()},
        "method": report.method,
        "tol": report.tol,
        "seed": report.seed,
        "metrics": metrics,
        "n_points": report.n_points,
        "n_segments": report.n_segments,
        "times": {
            "median": report.times.median,
            "min": report.times.min,
            "max": report.times.max,
            "repeats": report.times.repeats,
        },
        "status": report.status,
        "detail": report.detail,
    }

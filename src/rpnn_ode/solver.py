"""Gauss-Newton weight training and the adaptive interval driver.

A solve starts by attempting the whole domain as a single segment.  Each
attempt samples a fresh random basis, collocates the residual on n interior
points and runs at most ``maxiter`` Gauss-Newton iterations, each stepping by
the minimum-norm truncated-pseudoinverse solution of the linearized system.
If the residual 2-norm does not reach ``tol`` the interval width is halved
and the attempt repeats from the same starting abscissa; on success the next
interval starts where this one stopped, with twice the width (clamped to the
remaining domain).  Chaining each segment's start state to the previous
segment's end value makes the piecewise solution continuous by construction.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .basis import SeededRng, sample_basis
from .collocation import CollocationGrid, assemble_jacobian, assemble_residual, make_grid
from .errors import NumericError, StepUnderflowError
from .leastnorm import DEFAULT_TRUNCATION, TruncationRule, truncated_pinv_solve
from .problems import OdeProblem
from .trial import SegmentSolution, trial_eval


@dataclass
class SolverConfig:
    """Training parameters.

    h hidden nodes per component, n collocation points per segment, residual
    tolerance tol, Gauss-Newton iteration cap maxiter, and a floor on the
    segment width relative to the whole domain.  The method relies on the
    underdetermined regime h > n; smaller h is allowed but warns.
    """

    h: int = 40
    n: int = 20
    tol: float = 1e-6
    maxiter: int = 4
    min_width_factor: float = 2.0**-30
    seed: int = 0
    truncation: TruncationRule = field(default_factory=TruncationRule)

    def __post_init__(self):
        if self.h < 2:
            raise ValueError(f"need h >= 2 hidden nodes, got {self.h}")
        if self.n < 1:
            raise ValueError(f"need n >= 1 collocation points, got {self.n}")
        if not self.tol > 0:
            raise ValueError(f"tolerance must be positive, got {self.tol}")
        if self.maxiter < 1:
            raise ValueError(f"need maxiter >= 1, got {self.maxiter}")
        if not self.min_width_factor > 0:
            raise ValueError(f"min_width_factor must be positive, got {self.min_width_factor}")
        if self.h <= self.n:
            warnings.warn(
                f"h={self.h} <= n={self.n} leaves the collocation system overdetermined; "
                "training expects h > n",
                stacklevel=2,
            )


@dataclass(frozen=True)
class TrainResult:
    converged: bool
    final_residual_norm: float
    iterations: int


def gauss_newton_train(
    problem: OdeProblem,
    seg: SegmentSolution,
    grid: CollocationGrid,
    tol: float,
    maxiter: int,
    truncation: TruncationRule = DEFAULT_TRUNCATION,
) -> TrainResult:
    """Iterate W <- W - pinv(dF/dW) F on seg.weights until ||F||_2 <= tol.

    The convergence test uses the residual of the iterate that fed the latest
    step, so a converged iterate still receives one final refinement step for
    free; the step is reverted if it does not improve the residual.  Stopping
    this way leaves accepted segments with residuals far below tol (one
    Newton contraction deeper), which is what keeps the integrated drift of
    wide smooth segments small.

    An iteration that starts with the residual above tol on the last allowed
    iteration cannot converge whatever its step does, so it is not taken: a
    failed attempt reports the residual after maxiter - 1 steps in
    ``final_residual_norm`` (and hence in ``StepUnderflowError.last_error``)
    and ``iterations = maxiter - 1``.

    Returns without raising on non-finite residuals or Jacobians; these count
    as non-convergence so the adaptive driver can respond by halving the
    interval instead of aborting.
    """
    h, m = seg.basis.h, seg.basis.m
    try:
        resid = assemble_residual(problem, seg, grid)
    except NumericError:
        return TrainResult(False, np.inf, 0)
    err = float(np.linalg.norm(resid))
    if not np.isfinite(err):
        return TrainResult(False, np.inf, 0)
    if err <= tol:
        return TrainResult(True, err, 0)
    for iteration in range(1, maxiter + 1):
        if iteration == maxiter and err > tol:
            break  # no step taken here could pass the pre-step test
        try:
            jac = assemble_jacobian(problem, seg, grid)
            step = -truncated_pinv_solve(jac, resid, truncation)
        except NumericError:
            return TrainResult(False, err, iteration - 1)
        delta = step.reshape(m, h).T
        seg.weights += delta
        try:
            new_resid = assemble_residual(problem, seg, grid)
            new_err = float(np.linalg.norm(new_resid))
        except NumericError:
            new_resid, new_err = None, np.inf
        if err <= tol:
            # the pre-step iterate already satisfied the tolerance; keep the
            # refinement only when it helped
            if not new_err <= err:
                seg.weights -= delta
                new_err = err
            return TrainResult(True, new_err, iteration)
        if not np.isfinite(new_err):
            return TrainResult(False, np.inf, iteration)
        resid, err = new_resid, new_err
    return TrainResult(False, err, maxiter - 1)


@dataclass(frozen=True)
class PiecewiseSolution:
    """Contiguous trained segments covering [x0, x_end], evaluable anywhere."""

    problem_name: str
    m: int
    x0: float
    x_end: float
    segments: tuple
    iterations: tuple
    total_points: int
    knots: np.ndarray | None = None  # derived in __post_init__

    def __post_init__(self):
        if not self.segments:
            raise ValueError("a piecewise solution needs at least one segment")
        starts = [seg.x_start for seg in self.segments]
        stops = [seg.x_stop for seg in self.segments]
        if starts[0] != self.x0 or stops[-1] != self.x_end:
            raise ValueError("segments do not span the stated domain")
        for left_stop, right_start in zip(stops[:-1], starts[1:]):
            if left_stop != right_start:
                raise ValueError("segments are not contiguous")
        object.__setattr__(self, "knots", np.array([self.x0] + stops))
        object.__setattr__(self, "segments", tuple(self.segments))
        object.__setattr__(self, "iterations", tuple(self.iterations))

    @property
    def n_segments(self) -> int:
        return len(self.segments)

    def __call__(self, x) -> np.ndarray:
        return eval_solution(self, x)


def solve_adaptive(problem: OdeProblem, config: SolverConfig) -> PiecewiseSolution:
    """Solve the IVP by adaptive segment training; deterministic in config.seed.

    Raises StepUnderflowError when repeated halving pushes the interval width
    below min_width_factor * (x_end - x0).
    """
    rng = SeededRng(config.seed)
    span = problem.x_end - problem.x0
    floor = config.min_width_factor * span
    x_star = problem.x0
    alpha = problem.alpha.copy()
    width = span
    segments: list[SegmentSolution] = []
    iterations: list[int] = []
    last_err = np.inf
    while x_star < problem.x_end:
        remaining = problem.x_end - x_star
        if width >= remaining:
            width, x_stop = remaining, problem.x_end  # tile the domain exactly
        else:
            x_stop = x_star + width
        basis = sample_basis(x_star, width, config.h, problem.m, rng)
        seg = SegmentSolution(
            basis=basis,
            alpha=alpha,
            weights=np.zeros((config.h, problem.m)),
            x_stop=x_stop,
        )
        grid = make_grid(x_star, width, config.n)
        result = gauss_newton_train(
            problem, seg, grid, config.tol, config.maxiter, config.truncation
        )
        if result.converged:
            segments.append(seg)
            iterations.append(result.iterations)
            alpha = trial_eval(seg, x_stop)
            x_star = x_stop
            width *= 2.0
        else:
            last_err = result.final_residual_norm
            width *= 0.5
            if width < floor:
                raise StepUnderflowError(
                    f"adaptive step underflow at x={x_star!r}: width {width!r} fell below "
                    f"floor {floor!r} (last residual norm {last_err!r})",
                    abscissa=x_star,
                    last_error=last_err,
                )
    return PiecewiseSolution(
        problem_name=problem.name,
        m=problem.m,
        x0=problem.x0,
        x_end=problem.x_end,
        segments=tuple(segments),
        iterations=tuple(iterations),
        total_points=config.n * len(segments),
    )


def eval_solution(sol: PiecewiseSolution, x) -> np.ndarray:
    """Evaluate at x in [x0, x_end]: (m,) for scalar x, (k, m) for k points.

    Points may come in any order, with repeats.  Segments own right-closed
    intervals, with x0 belonging to the first; at interior knots both
    neighbours agree exactly by construction.  Raises ValueError when a
    point lies outside [x0, x_end] or is NaN.
    """
    xs = np.asarray(x, dtype=float)
    scalar = xs.ndim == 0
    pts = np.atleast_1d(xs)
    if pts.size and not (pts.min() >= sol.x0 and pts.max() <= sol.x_end):
        raise ValueError(
            f"evaluation points must lie in [{sol.x0}, {sol.x_end}], "
            f"got range [{pts.min()}, {pts.max()}]"
        )
    idx = np.searchsorted(sol.knots[1:], pts, side="left")
    order = np.argsort(idx, kind="stable")
    bounds = np.searchsorted(idx[order], np.arange(sol.n_segments + 1), side="left")
    out = np.empty((len(pts), sol.m))
    for k in np.flatnonzero(np.diff(bounds)):
        run = order[bounds[k] : bounds[k + 1]]
        out[run] = trial_eval(sol.segments[k], pts[run])
    return out[0] if scalar else out

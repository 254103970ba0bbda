"""Gauss-Newton weight training and the adaptive interval driver.

A solve starts by attempting the whole domain as a single segment.  Each
attempt (:func:`_attempt`) samples a fresh random basis, collocates the
residual on n interior points and runs at most ``maxiter`` Gauss-Newton
iterations from zero weights, each stepping by the minimum-norm
truncated-pseudoinverse solution of the linearized system.  The width rule
in :func:`solve_adaptive` then halves the interval width when the residual
2-norm does not reach ``tol``, and the attempt repeats from the same starting
abscissa; on success the next interval starts where this one stopped, with
twice the width (clamped to the remaining domain).  Chaining each segment's
start state to the previous segment's end value makes the piecewise solution
continuous by construction.  A midpoint residual check before acceptance and
start weights other than zero belong in ``_attempt``, a per-attempt trace
around its call, and another width policy in place of the width rule.
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np

from .basis import SeededRng, sample_basis
from .collocation import assemble_jacobian, assemble_residual, make_grid
from .errors import NumericError, StepUnderflowError
from .leastnorm import truncated_pinv_solve
from .problems import OdeProblem, initial_rhs
from .trial import SegmentSolution, _evaluation_points, _knot_walk, trial_eval

_MIN_WIDTH_FACTOR = 2.0**-30  # width floor, relative to the whole domain


@dataclass(frozen=True)
class SolverConfig:
    """Training parameters.

    h hidden nodes per component, n collocation points per segment, residual
    tolerance tol, Gauss-Newton iteration cap maxiter and the basis seed.  h,
    n, maxiter and seed must be integers (Python or numpy; stored as int).  The
    method relies on the underdetermined regime h > n; smaller h is allowed
    but warns.  Frozen, so the checks hold for the config's life; derive a
    variant with ``dataclasses.replace``, which checks it again.
    """

    h: int = 40
    n: int = 20
    tol: float = 1e-6
    maxiter: int = 4
    seed: int = 0

    def __post_init__(self):
        for name in ("h", "n", "maxiter", "seed"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.h < 2:
            raise ValueError(f"need h >= 2 hidden nodes, got {self.h}")
        if self.n < 1:
            raise ValueError(f"need n >= 1 collocation points, got {self.n}")
        if not 0 < self.tol < np.inf:
            raise ValueError(f"tolerance must be positive and finite, got {self.tol}")
        if self.maxiter < 1:
            raise ValueError(f"need maxiter >= 1, got {self.maxiter}")
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
    grid: np.ndarray,
    tol: float,
    maxiter: int,
) -> TrainResult:
    """Iterate W <- W - pinv(dF/dW) F on seg.weights until ||F||_2 <= tol.

    The convergence test uses the residual of the iterate that fed the latest
    step, so a converged iterate still receives one final refinement step,
    which costs one Jacobian assembly and one SVD per accepted attempt (17 of
    the 114 SVDs of a default HIRES solve at seeds 0-2); the step is reverted
    if it does not improve the residual.  Stopping this way leaves accepted
    segments with residuals far below tol (one Newton contraction deeper),
    which is what keeps the integrated drift of wide smooth segments small.

    An iteration that starts with the residual above tol on the last allowed
    iteration cannot converge whatever its step does, so it is not taken: a
    failed attempt reports the residual after maxiter - 1 steps in
    ``final_residual_norm`` (and hence in ``StepUnderflowError.last_error``)
    and ``iterations = maxiter - 1``.

    Returns without raising on non-finite residuals or Jacobians; these count
    as non-convergence so the adaptive driver can respond by halving the
    interval instead of aborting.  The exception is the refinement step of an
    iterate that already meets tol: when that step's Jacobian or solve cannot
    be computed, the iterate is kept and reported converged, with its residual
    and the steps taken before it.
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
            step = -truncated_pinv_solve(jac, resid)
        except NumericError:
            return TrainResult(err <= tol, err, iteration - 1)
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
    knots: np.ndarray = field(init=False)  # segment boundaries, x0 first

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
        if any(seg.basis.m != self.m for seg in self.segments):
            raise ValueError(f"segments must all have m={self.m} components")
        if len(self.iterations) != len(self.segments):
            raise ValueError(
                f"{len(self.iterations)} iteration counts for {len(self.segments)} segments"
            )
        object.__setattr__(self, "knots", np.array([self.x0] + stops))
        object.__setattr__(self, "segments", tuple(self.segments))
        object.__setattr__(self, "iterations", tuple(self.iterations))

    @property
    def n_segments(self) -> int:
        return len(self.segments)

    def __call__(self, x) -> np.ndarray:
        return eval_solution(self, x)


def _attempt(problem: OdeProblem, config: SolverConfig, rng: SeededRng, x_start: float,
             width: float, x_stop: float, alpha: np.ndarray) -> tuple[SegmentSolution, TrainResult]:
    """One attempt at [x_start, x_stop]: a fresh random basis, zero start weights
    and Gauss-Newton on the n-point collocation grid."""
    seg = SegmentSolution(basis=sample_basis(x_start, width, config.h, problem.m, rng),
                          alpha=alpha, weights=np.zeros((config.h, problem.m)), x_stop=x_stop)
    grid = make_grid(x_start, width, config.n)
    return seg, gauss_newton_train(problem, seg, grid, config.tol, config.maxiter)


def solve_adaptive(problem: OdeProblem, config: SolverConfig) -> PiecewiseSolution:
    """Solve the IVP by adaptive segment training; deterministic in config.seed.

    Raises NumericError when f(x0, alpha) is not finite (``initial_rhs``), as
    the classical integrators do: no width could train from there.  Raises
    StepUnderflowError when repeated halving pushes the interval width below
    ``_MIN_WIDTH_FACTOR`` * (x_end - x0), with ``_MIN_WIDTH_FACTOR`` = 2^-30.
    """
    initial_rhs(problem)
    rng = SeededRng(config.seed)
    span = problem.x_end - problem.x0
    floor = _MIN_WIDTH_FACTOR * span
    x_star, alpha, width = problem.x0, problem.alpha.copy(), span
    segments: list[SegmentSolution] = []
    iterations: list[int] = []
    while x_star < problem.x_end:
        remaining = problem.x_end - x_star
        width = min(width, remaining)
        x_stop = problem.x_end if width == remaining else x_star + width  # tile the domain exactly
        seg, result = _attempt(problem, config, rng, x_star, width, x_stop, alpha)
        if result.converged:
            segments.append(seg)
            iterations.append(result.iterations)
            alpha, x_star = trial_eval(seg, x_stop), x_stop
            width *= 2.0
            continue
        width *= 0.5
        if width < floor:
            err = result.final_residual_norm
            raise StepUnderflowError(
                f"adaptive step underflow at x={x_star!r}: width {width!r} fell below "
                f"floor {floor!r} (last residual norm {err!r})", abscissa=x_star, last_error=err)
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

    Segments own right-closed intervals, with x0 belonging to the first; at
    interior knots both neighbours agree exactly by construction.  Sorted
    points (every metric grid) are evaluated straight into the output, one
    slice per segment cut at the knots, with one byte per point of scratch
    beyond the blocks of ``trial``.  Other points, in any order and with
    repeats, are argsorted once and walked the same way, and each segment's
    values are scattered into place: beyond the output that costs 16 bytes
    per point and the values of the widest segment.  Raises ValueError when
    x has more than one dimension, or when a point lies outside [x0, x_end]
    or is NaN.
    """
    pts, scalar = _evaluation_points(x, sol.x0, sol.x_end)
    out = np.empty((len(pts), sol.m))
    pts, order, bounds = _knot_walk(pts, sol.knots, "right")
    for k in np.flatnonzero(np.diff(bounds)):
        run = slice(bounds[k], bounds[k + 1])
        if order is None:
            trial_eval(sol.segments[k], pts[run], out=out[run])
        else:
            out[order[run]] = trial_eval(sol.segments[k], pts[run])
    return out[0] if scalar else out

"""Gauss-Newton weight training and the adaptive interval driver.

A solve starts by attempting the whole domain as a single segment.  Each
attempt (:func:`_attempt`) samples a fresh random basis, collocates the
residual on n interior points and trains zero start weights by Gauss-Newton
steps, each the minimum-norm truncated-pseudoinverse solution of the
linearized system.  :func:`gauss_newton_train` runs two phases: converge
(at most ``maxiter`` - 1 steps until the residual 2-norm reaches ``tol``),
then refine (one more step, kept only if the norm does not grow).  The width
rule in :func:`solve_adaptive` then halves the interval width when the
residual 2-norm does not reach ``tol``, and the attempt repeats from the same
starting abscissa; on success the next interval starts where this one
stopped, with twice the width (clamped to the remaining domain).  Chaining
each segment's start state to the previous segment's end value makes the
piecewise solution continuous by construction.  A midpoint residual check
before acceptance and start weights other than zero belong in ``_attempt``,
a per-attempt trace around its call, and another width policy in place of
the width rule.
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
from .trial import SegmentSolution, _block_len, _walk_points, trial_eval

_MIN_WIDTH_FACTOR = 2.0**-30  # width floor, relative to the whole domain


@dataclass(frozen=True)
class SolverConfig:
    """Training parameters.

    h hidden nodes per component, n collocation points per segment, residual
    tolerance tol, Gauss-Newton iteration cap maxiter and the basis seed.  h,
    n, maxiter and seed must be integers (Python or numpy; stored as int), tol
    a real number; anything else raises ValueError naming the field.  The
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
        if not (isinstance(self.tol, numbers.Real) and 0 < self.tol < np.inf):
            raise ValueError(f"tol: tolerance must be positive and finite, got {self.tol!r}")
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
    """Outcome of one :func:`gauss_newton_train` call.

    converged: ||F||_2 <= tol was reached in the converge phase.
    final_residual_norm: ||F||_2 at the weights left in the segment, after a
        kept refinement step; inf once F or its norm was not finite.
    iterations: Gauss-Newton steps taken, the refinement step counted whether
        it was kept or undone; a step that could not be computed is not counted.
    """

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
    """Train seg.weights in place by steps W <- W - pinv(dF/dW) F, in two phases.

    Converge: take steps while tol < ||F||_2 < inf and fewer than maxiter - 1
    have been taken; stop early if a step cannot be computed.  No maxiter-th
    step is taken from above tol: whatever it did, the attempt could not pass.
    A failed attempt reports the last residual norm (inf once F or its norm is
    not finite, so that the driver halves the interval instead of aborting)
    and the steps taken.

    Refine: an iterate that converged after at least one step gets one more
    step, kept only if ||F||_2 does not grow; otherwise the converged weights
    are put back.  It costs one Jacobian and one SVD per accepted attempt and
    leaves residuals far below tol, which keeps the drift of wide smooth
    segments small.  When it cannot be computed, the converged iterate stands.
    """
    resid, err = _residual(problem, seg, grid)
    steps = 0
    while tol < err < np.inf and steps < maxiter - 1:
        step = _step(problem, seg, grid, resid)
        if step is None:
            break
        seg.weights += step
        resid, err = _residual(problem, seg, grid)
        steps += 1
    if not err <= tol:
        return TrainResult(False, err, steps)
    step = _step(problem, seg, grid, resid) if steps else None
    if step is None:
        return TrainResult(True, err, steps)
    converged = seg.weights.copy()
    seg.weights += step
    refined = _residual(problem, seg, grid)[1]
    if not refined <= err:
        seg.weights[...] = converged  # subtracting the step need not restore them
        refined = err
    return TrainResult(True, refined, steps + 1)


def _residual(problem: OdeProblem, seg: SegmentSolution, grid: np.ndarray):
    """(F, ||F||_2) at seg's weights, or (None, inf) when F or its norm is not finite."""
    try:
        resid = assemble_residual(problem, seg, grid)
    except NumericError:
        return None, np.inf
    err = float(np.linalg.norm(resid))
    return (resid, err) if np.isfinite(err) else (None, np.inf)


def _step(problem: OdeProblem, seg: SegmentSolution, grid: np.ndarray, resid: np.ndarray):
    """The Gauss-Newton step -pinv(dF/dW) F as an (h, m) array, or None when the
    Jacobian or its solve cannot be computed (NumericError)."""
    try:
        step = -truncated_pinv_solve(assemble_jacobian(problem, seg, grid), resid)
    except NumericError:
        return None
    return step.reshape(seg.basis.m, seg.basis.h).T


@dataclass(frozen=True, eq=False)
class PiecewiseSolution:
    """Contiguous trained segments covering [x0, x_end], evaluable anywhere.

    Compared and hashed by identity, as are its segments and their bases.
    """

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
    interior knots both neighbours agree exactly by construction.  The points
    go through ``trial._walk_points`` in the blocks of ``trial_eval`` (8,192
    for HIRES), which evaluates each segment's run of a block into its rows.
    Beyond the blocks of ``trial``, sorted points (every metric grid) need one
    byte per point, and other points 16 bytes per point and one block of rows.
    Raises ValueError when x has more than one dimension, or when a point
    lies outside [x0, x_end] or is NaN.
    """

    def fill(block, first, counts, rows):
        ends = np.cumsum(counts)
        for k in np.flatnonzero(counts):
            run = slice(ends[k] - counts[k], ends[k])
            trial_eval(sol.segments[first + k], block[run], out=rows[run])

    size = _block_len(sol.segments[0].basis.h, sol.m)  # the segments of a solve share h
    return _walk_points(x, sol.knots, "right", sol.m, size, fill)

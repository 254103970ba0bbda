"""Gauss-Newton weight training and the adaptive interval driver.

A solve starts by attempting the whole domain as a single segment.  Each
attempt (:func:`_attempt`) samples a fresh random basis, collocates the
residual on n interior points and trains zero start weights by Gauss-Newton
steps, each the minimum-norm truncated-pseudoinverse solution of the
linearized system.  :func:`gauss_newton_train` runs two phases: converge
(at most ``maxiter`` - 1 steps until the residual 2-norm reaches ``tol``),
then refine (one more step, kept only if the norm does not grow).

The width rule, in ``_drive`` only: after an attempt whose residual 2-norm
does not reach ``tol``, the next starts at the same abscissa with
``_HALVING`` (1/2) times its width, and StepUnderflowError is raised once
that width is below ``_MIN_WIDTH_FACTOR`` times the domain; after an
accepted attempt, the next starts where it stopped, with twice its width.
``_segment`` clamps each width to the remaining domain and ends the segment
that reaches x_end there exactly.  Chaining each segment's start state to
the previous segment's end value makes the piecewise solution continuous by
construction.  A midpoint residual check before acceptance belongs in
``_attempt``, start weights other than zero in ``_segment``, a per-attempt
trace around the ``_attempt`` call, and another width policy in the width
rule alone: the worker below trains that rule's failure branch.

The failure branch on a worker.  The attempt that follows a failure is known
before the failure happens: the same start, the failure width, the next
basis in the rng stream.  So where the process may use two or more CPUs
(``trial._WORKERS``) and the attempts are large enough (below), one worker
thread per solve trains it while the caller trains the current attempt:
right after the current basis is drawn, the rng is copied, and the worker
draws the next basis from the copy (``_on_worker``), while the failure width
is at or above the floor.  If the current attempt fails, the driver takes
the worker's segment, result and rng; if it converges, the worker's attempt
is abandoned at its next Gauss-Newton step, and the driver goes on without
waiting.  Every attempt the driver uses is the one the one-thread driver
would make, from the same rng state, on its own segment and grid, so every
basis, weight and knot is bit for bit the same; the SVDs run with OpenBLAS
on one thread either way (``leastnorm``).  A failure width that depends on
the failed attempt's outcome, its residual say, cannot be trained ahead.
On HIRES at tol 1e-6, seed 0, the worker runs 38 of the 114 SVDs of a solve
that the caller would otherwise wait for (24 of 104 on ROBER).  The worker
has ended when the solve returns or raises, and an error of its attempt is
raised only if the attempt is used.  So the problem's ``rhs`` and
``ode_jacobian`` run on two threads at once, also for attempts that are
then dropped, and must be safe to call that way (``OdeProblem``).

The worker pays only where the SVD, which runs without the interpreter
lock, is most of an attempt's time.  In smaller attempts most of the time
goes to short numpy calls that hold the lock, so the two threads slow each
other, and the worker trains no attempt when the Gauss-Newton Jacobian, (n*m)
x (m*h), has fewer than ``_WORKER_MIN_JACOBIAN`` entries.  Measured at tol
1e-6, seed 0, on a 2-vCPU Xeon, solve time with the worker against without,
at about 50 % failed attempts in every case: HIRES (160 x 320, 51,200
entries) -17 %; at 28,800 entries ROBER, van der Pol mu=100 and HIRES -7 to
-17 %; at 12,800 to 16,200 entries +3 to +36 %; at the default
``SolverConfig`` ROBER (7,200 entries) +20 %, van der Pol mu=100 (3,200)
+37 % and Prothero-Robinson lam=-1e5 (800) +59 %.
"""

from __future__ import annotations

import copy
import threading
import warnings
from dataclasses import dataclass, field

import numpy as np

from .basis import SeededRng, sample_basis
from .collocation import assemble_jacobian, assemble_residual, make_grid
from .errors import NumericError, StepUnderflowError, _integer, _real
from .leastnorm import truncated_pinv_solve
from .problems import OdeProblem, initial_rhs
from .trial import _WORKERS, SegmentSolution, _block_len, _one_worker, _walk_points, trial_eval

_MIN_WIDTH_FACTOR = 2.0**-30  # width floor, relative to the whole domain
_HALVING = 0.5  # width factor after a failed attempt
_WORKER_MIN_JACOBIAN = 24_000  # Jacobian entries from which a solve trains on a worker


class _Current(threading.local):
    abandoned = None  # the Event that stops this thread's attempt; set on the worker only


_current = _Current()


@dataclass(frozen=True)
class SolverConfig:
    """Training parameters.

    h >= 2 hidden nodes per component, n >= 1 collocation points per segment,
    residual tolerance tol, finite and > 0, Gauss-Newton iteration cap
    maxiter >= 1 and the basis seed, any integer; any other value raises
    ValueError naming the field.  The counts are stored as int.  The method
    relies on the underdetermined regime h > n; smaller h is allowed but
    warns.  Frozen, so the checks hold for the config's life; derive a
    variant with ``dataclasses.replace``, which checks it again.
    """

    h: int = 40
    n: int = 20
    tol: float = 1e-6
    maxiter: int = 4
    seed: int = 0

    def __post_init__(self):
        for name, minimum in (("h", 2), ("n", 1), ("maxiter", 1), ("seed", None)):
            object.__setattr__(self, name, _integer(name, getattr(self, name), minimum))
        _real("tol: tolerance", self.tol, "positive")
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
    Jacobian or its solve cannot be computed (NumericError) or the attempt has
    been abandoned (``_on_worker``)."""
    if _current.abandoned is not None and _current.abandoned.is_set():
        return None
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


def _segment(problem: OdeProblem, config: SolverConfig, rng: SeededRng, x_start: float,
             width: float, alpha: np.ndarray) -> SegmentSolution:
    """A fresh random basis drawn from rng, with zero weights, on [x_start, x_start + width]
    clamped to the remaining domain; a segment that reaches x_end ends there exactly."""
    remaining = problem.x_end - x_start
    width = min(width, remaining)
    x_stop = problem.x_end if width == remaining else x_start + width
    return SegmentSolution(basis=sample_basis(x_start, width, config.h, problem.m, rng),
                           alpha=alpha, weights=np.zeros((config.h, problem.m)), x_stop=x_stop)


def _attempt(problem: OdeProblem, config: SolverConfig, seg: SegmentSolution) -> TrainResult:
    """Gauss-Newton on seg's n-point collocation grid."""
    grid = make_grid(seg.x_start, seg.basis.width, config.n)
    return gauss_newton_train(problem, seg, grid, config.tol, config.maxiter)


def _on_worker(problem: OdeProblem, config: SolverConfig, rng: SeededRng, x_start: float,
               width: float, alpha: np.ndarray, abandoned: threading.Event):
    """The worker's attempt at x_start and width, with a basis drawn from rng:
    (seg, result, rng), or None when abandoned before it started; once
    ``abandoned`` is set, the attempt stops at its next Gauss-Newton step."""
    if abandoned.is_set():
        return None
    _current.abandoned = abandoned
    seg = _segment(problem, config, rng, x_start, width, alpha)
    return seg, _attempt(problem, config, seg), rng


def solve_adaptive(problem: OdeProblem, config: SolverConfig) -> PiecewiseSolution:
    """Solve the IVP by adaptive segment training; deterministic in config.seed.

    The width rule and its worker thread are described in the module
    docstring.  Raises NumericError when f(x0, alpha) is not finite
    (``initial_rhs``), as the classical integrators do: no width could train
    from there.  Raises StepUnderflowError when the width falls below
    ``_MIN_WIDTH_FACTOR`` (2^-30) times x_end - x0.  Where the worker trains,
    problem.rhs and problem.ode_jacobian are called from the caller and the
    worker at once, also for attempts that are dropped, so they must be
    thread-safe: a callback that writes into a shared buffer or keeps a
    counter or cache without a lock can race.  The results stay those of one
    thread as long as each call's result depends on its arguments only.  The
    worker has ended when the call returns or raises.
    """
    initial_rhs(problem)
    if _WORKERS < 2 or config.n * problem.m * problem.m * config.h < _WORKER_MIN_JACOBIAN:
        return _drive(problem, config, None)
    with _one_worker("rpnn-train") as worker:
        return _drive(problem, config, worker)


def _drive(problem: OdeProblem, config: SolverConfig, worker) -> PiecewiseSolution:
    """The width rule of the module docstring; ``worker``, an executor or None,
    trains its failure branch."""
    rng = SeededRng(config.seed)
    span = problem.x_end - problem.x0
    floor = _MIN_WIDTH_FACTOR * span
    x_star, alpha, width = problem.x0, problem.alpha.copy(), span
    segments, iterations = [], []
    pending = None  # (future, abandon event) of the worker's attempt at the failure width
    try:
        while x_star < problem.x_end:
            if pending is not None:  # the current attempt failed: the worker's is next
                (seg, result, rng), pending = pending[0].result(), None
            else:
                seg = _segment(problem, config, rng, x_star, width, alpha)
                if worker is not None and _HALVING * seg.basis.width >= floor:
                    abandon = threading.Event()
                    pending = worker.submit(_on_worker, problem, config, copy.copy(rng), x_star,
                                            _HALVING * seg.basis.width, alpha, abandon), abandon
                result = _attempt(problem, config, seg)
            if result.converged:
                if pending is not None:
                    pending[1].set()
                    pending = None
                segments.append(seg)
                iterations.append(result.iterations)
                alpha, x_star = trial_eval(seg, seg.x_stop), seg.x_stop
                width = 2.0 * seg.basis.width
                continue
            width = _HALVING * seg.basis.width
            if width < floor:
                err = result.final_residual_norm
                raise StepUnderflowError(
                    f"adaptive step underflow at x={x_star!r}: width {width!r} fell below "
                    f"floor {floor!r} (last residual norm {err!r})", abscissa=x_star,
                    last_error=err)
    finally:
        if pending is not None:
            pending[1].set()
    return PiecewiseSolution(problem_name=problem.name, m=problem.m, x0=problem.x0,
                             x_end=problem.x_end, segments=tuple(segments),
                             iterations=tuple(iterations), total_points=config.n * len(segments))


def eval_solution(sol: PiecewiseSolution, x) -> np.ndarray:
    """Evaluate at x in [x0, x_end]: (m,) for scalar x, (k, m) for k points.

    Segments own right-closed intervals, with x0 belonging to the first; at
    interior knots both neighbours agree exactly by construction.  The points
    go through ``trial._walk_points`` in the blocks of ``trial_eval`` (8,192
    for HIRES), which evaluates each segment's run of a block into its rows.
    Where the process may run on two or more CPUs (``trial._WORKERS`` is 2)
    and x has at least two blocks, a worker thread evaluates the second half
    of the blocks while the caller evaluates the first; the thread has ended
    when the call returns or raises.  Each row depends on its own point only,
    and each half writes its own rows, so the values are bitwise those of one
    thread.  Beyond the blocks of ``trial``, of which each walker holds its
    own, sorted points (every metric grid) need one byte per point, and other
    points 16 bytes per point and one block of rows per walker.  Raises
    ValueError when x has more than one dimension, or when a point lies
    outside [x0, x_end] or is NaN.
    """

    def fill(block, first, counts, rows):
        ends = np.cumsum(counts)
        for k in np.flatnonzero(counts):
            run = slice(ends[k] - counts[k], ends[k])
            trial_eval(sol.segments[first + k], block[run], out=rows[run])

    size = _block_len(sol.segments[0].basis.h, sol.m)  # the segments of a solve share h
    return _walk_points(x, sol.knots, "right", sol.m, size, fill, _WORKERS)

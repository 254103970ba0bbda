"""Classical adaptive integrators used as accuracy baselines.

Two methods are provided:

* :func:`dp45_solve` -- the explicit Dormand-Prince 5(4) embedded pair with
  FSAL, the standard adaptive Runge-Kutta workhorse.  Fast on smooth
  problems, stability-limited on stiff ones.
* :func:`sdirk_solve` -- a 5-stage singly-diagonally-implicit Runge-Kutta
  method of order 4 with an embedded order-3 error estimate.  It is L-stable
  and stiffly accurate; each stage is solved by simplified Newton iteration
  with the problem's analytic Jacobian, frozen over the step.  The iteration
  matrix I - h*gamma*J is inverted once per step, and every stage, Newton
  iteration and the error smoothing apply that inverse as a matrix-vector
  product.  numpy has no LU factor/solve pair (and scipy is not a
  dependency); for the small systems here one explicit inverse per step is
  one LAPACK call, where a solve per iteration paid numpy's call overhead on
  every iteration.  Rounding in the inverse only perturbs the Newton
  direction, which the iteration itself corrects.  At tight tolerances this
  serves as the reference trajectory generator.

Both run in one step loop, :func:`_integrate`, as in the MATLAB ODE suite
(Shampine & Reichelt 1997): step-size control needs only a method's error
estimate and order (Hairer, Norsett & Wanner, Solving ODEs I, II.4).  Each
method supplies only its step attempt.  The loop owns everything else: the
start-up rhs check and starting step, the step budget, the underflow check,
clamping to x_end, and the accept/reject rule.  A step is accepted when the
mixed norm max_i |err_i| / (abs_tol + rel_tol * max(|y_i|, |y_new_i|)) is at
most 1, and the next step is h * min(_MAX_FACTOR, max(_MIN_FACTOR,
0.9 * err^(-1/order))), never growing after a rejection, with
``_MIN_FACTOR`` = 0.2 and ``_MAX_FACTOR`` = 5.  A step that fails outright (a
non-finite stage or error, an OverflowError from the rhs, a Newton iteration
that does not converge, a singular iteration matrix) shrinks h by
``_MIN_FACTOR``.  A solve that attempts ``_MAX_STEPS`` = 5,000,000 steps,
accepted or rejected, without reaching x_end raises StepUnderflowError.

Both record the state and its derivative at every accepted point, and
:func:`dense_eval` interpolates either with one formula (Hairer, Norsett &
Wanner, Solving ODEs I, II.6, dopri5's CONTD5).  On a step of length h from
(y0, f0) to (y1, f1),

    y(x0 + theta*h) = y0 + theta*(r2 + (1-theta)*(r3 + theta*(r4 + (1-theta)*r5)))

with r2 = y1 - y0, r3 = h*f0 - r2 and r4 = r2 - h*f1 - r3.  r5 = 0 gives
cubic Hermite, which implicit trajectories use on their (smaller) steps; dp45
trajectories carry r5 = h * sum(d_i k_i), the pair's order-4 continuous
extension.  Like the MATLAB suite's dense output, which works one step's
interpolant at a time, :func:`dense_eval` walks the points over the
abscissae once, by the point walk of ``solver.eval_solution``: one search of
the abscissae into the sorted points gives every step's run, each block forms
its steps' terms, and unsorted points are scattered from one block of scratch.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, StepUnderflowError
from .problems import OdeProblem, initial_rhs
from .trial import _BLOCK_VALUES, _walk_points

_EPS = float(np.finfo(np.float64).eps)

# Dormand-Prince 5(4): stage coefficients, 5th-order weights, error weights, and
# the weights d_i of the dense-output term r5 = h * sum(d_i k_i) (CONTD5).
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = (
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
)
_DP_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])
_DP_D = np.array([-12715105075 / 11282082432, 0.0, 87487479700 / 32700410799,
                  -10690763975 / 1880347072, 701980252875 / 199316789632,
                  -1453857185 / 822651844, 69997945 / 29380423])

# 5-stage SDIRK, gamma = 1/4: order 4, stiffly accurate, L-stable, with an
# embedded order-3 weight vector for the error estimate.
_SD_GAMMA = 0.25
_SD_A = np.array(
    [
        [1 / 4, 0.0, 0.0, 0.0, 0.0],
        [1 / 2, 1 / 4, 0.0, 0.0, 0.0],
        [17 / 50, -1 / 25, 1 / 4, 0.0, 0.0],
        [371 / 1360, -137 / 2720, 15 / 544, 1 / 4, 0.0],
        [25 / 24, -49 / 48, 125 / 16, -85 / 12, 1 / 4],
    ]
)
_SD_C = _SD_A.sum(axis=1)
_SD_B = _SD_A[-1]
_SD_BHAT = np.array([59 / 48, -17 / 96, 225 / 32, -85 / 12, 0.0])
_SD_E = _SD_B - _SD_BHAT

_MAX_NEWTON = 12
_SAFETY = 0.9  # the controller aims at 0.9 of the step the error estimate allows
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_MAX_STEPS = 5_000_000


@dataclass(frozen=True)
class StepControl:
    """Error tolerances shared by both integrators: positive finite real numbers,
    else ValueError naming the field."""

    abs_tol: float
    rel_tol: float

    def __post_init__(self):
        for name in ("abs_tol", "rel_tol"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Real) and 0 < value < np.inf):
                raise ValueError(f"{name}: tolerance must be positive and finite, got {value!r}")


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Accepted integration points with states and derivatives.

    ``extension``, when present, holds each step's quartic dense-output term
    r5, shape (n_steps, m); without it r5 = 0 and the dense output is cubic
    Hermite.  Float fields are not copied; :func:`dense_eval` forms r2..r4 per block.
    Compared and hashed by identity.
    """

    abscissae: np.ndarray
    states: np.ndarray
    derivatives: np.ndarray
    n_rejected: int
    extension: np.ndarray | None = None

    def __post_init__(self):
        for name in ("abscissae", "states", "derivatives", "extension"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        t, y, f = self.abscissae, self.states, self.derivatives
        if not (t.ndim == 1 and y.ndim == 2 and y.shape[0] == len(t) and f.shape == y.shape):
            raise ValueError(f"abscissae {t.shape}, states {y.shape} and derivatives "
                             f"{f.shape} must have shapes (n,), (n, m) and (n, m)")
        if len(t) < 2:
            raise ValueError("a trajectory needs at least 2 abscissae")
        n_steps, m = y.shape[0] - 1, y.shape[1]
        if self.extension is not None and self.extension.shape != (n_steps, m):
            raise ValueError(f"extension {self.extension.shape} must have shape ({n_steps}, {m})")
        arrays = (t, y, f, self.extension)
        if not all(a is None or np.isfinite(a).all() for a in arrays):
            raise ValueError("trajectory abscissae, states, derivatives and extension must be finite")
        if not np.all(np.diff(t) > 0):
            raise ValueError("abscissae must be strictly increasing")

    @property
    def n_steps(self) -> int:
        """Accepted steps, one fewer than the abscissae."""
        return len(self.abscissae) - 1

    def __call__(self, x) -> np.ndarray:
        return dense_eval(self, x)


def _scaled_error(err_vec: np.ndarray, y_old: np.ndarray, y_new: np.ndarray, ctrl: StepControl) -> float:
    scale = ctrl.abs_tol + ctrl.rel_tol * np.maximum(np.abs(y_old), np.abs(y_new))
    return float((np.abs(err_vec) / scale).max())

def _initial_step(problem: OdeProblem, f0: np.ndarray, ctrl: StepControl, order: int) -> float:
    """Small-cost starting guess: compare the state scale with its derivative."""
    span = problem.x_end - problem.x0
    y0 = problem.alpha
    scale = ctrl.abs_tol + ctrl.rel_tol * np.abs(y0)
    d0 = float(np.max(np.abs(y0) / scale))
    d1 = float(np.max(np.abs(f0) / scale))
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6 * span
    else:
        h0 = 0.01 * d0 / d1
    y1 = y0 + h0 * f0
    f1 = np.asarray(problem.rhs(problem.x0 + h0, y1), dtype=float)
    d2 = float(np.max(np.abs(f1 - f0) / scale)) / h0
    if max(d1, d2) < 1e-15:
        h1 = max(1e-6 * span, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / order)
    return min(100.0 * h0, h1, span)


def _check_underflow(h: float, x: float, span: float, last_error: float | None, states,
                     tried: np.ndarray) -> None:
    """Raise StepUnderflowError if h is below the floor at x, naming the scaled error of
    the last attempt and the largest component of its state ``tried`` or of ``states``."""
    if h < 16.0 * _EPS * max(abs(x), span * 1e-3):
        seen = np.vstack([states, tried])
        i, j = np.unravel_index(np.abs(seen).argmax(), seen.shape)
        raise StepUnderflowError(
            f"step size underflow at x={x!r} (h={h!r}); last scaled error {last_error}, "
            f"largest state component y{j + 1} = {seen[i, j]:.3g}",
            abscissa=x, last_error=last_error,
        )


def _grow_factor(err: float, inv_order: float) -> float:
    if err == 0.0:
        return _MAX_FACTOR
    return min(_MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * err**-inv_order))


def _integrate(problem: OdeProblem, ctrl: StepControl, order: int, attempt) -> Trajectory:
    """The adaptive step loop; ``attempt(x, y, f, h)`` is the method's step.

    The attempt returns None when the step failed outright, or
    ``(y_new, err, accept)`` with err the scaled error norm.  On acceptance
    (err <= 1) ``accept(x_new)`` returns f at the new point and the step's
    quartic dense-output term r5, or None for a method without one.

    An OverflowError from the problem counts as a non-finite value where it
    is raised: the built-in problems square a component with ``y ** 2`` on
    Python floats at a single point, which raises where numpy gives inf.  At
    the initial point it raises NumericError; in an attempt or in
    ``accept``, before anything is committed, the step fails outright.
    """
    x, y, f = problem.x0, problem.alpha.copy(), initial_rhs(problem)
    try:
        h = _initial_step(problem, f, ctrl, order)
    except OverflowError:  # from its rhs call one trial step past x0
        raise NumericError(f"rhs not finite at the initial point of {problem.name!r}") from None
    span = problem.x_end - problem.x0
    inv_order = 1.0 / order
    # accepted point i in row i of arrays that double when full; step i's r5 in row i of r5s
    xs, ys, fs, r5s = np.empty(64), np.empty((64, problem.m)), np.empty((64, problem.m)), None
    xs[0], ys[0], fs[0] = x, y, f
    n_steps = n_rejected = 0
    last_error, tried = None, y
    while x < problem.x_end:
        if n_steps + n_rejected >= _MAX_STEPS:
            raise StepUnderflowError(f"step budget {_MAX_STEPS} exhausted at x={x!r}",
                                     abscissa=x, last_error=last_error)
        _check_underflow(h, x, span, last_error, ys[: n_steps + 1], tried)
        h = min(h, problem.x_end - x)
        x_new = problem.x_end if h >= problem.x_end - x else x + h
        try:
            step = attempt(x, y, f, h)
        except OverflowError:
            step = None
        if step is None:
            n_rejected += 1
            h *= _MIN_FACTOR
            continue
        y_new, err, accept = step
        last_error, tried = err, y_new
        if err > 1.0:
            n_rejected += 1
            h *= min(1.0, _grow_factor(err, inv_order))
            continue
        try:
            f_new, r5 = accept(x_new)
        except OverflowError:
            n_rejected += 1
            h *= _MIN_FACTOR
            continue
        x, y, f = x_new, y_new, f_new
        n_steps += 1
        if n_steps == len(xs):
            xs, ys, fs, r5s = (a if a is None else np.concatenate([a, np.empty_like(a)])
                               for a in (xs, ys, fs, r5s))
        xs[n_steps], ys[n_steps], fs[n_steps] = x, y, f
        if r5 is not None:
            r5s = np.empty_like(ys) if r5s is None else r5s
            r5s[n_steps - 1] = r5
        h *= _grow_factor(err, inv_order)
    n = n_steps + 1
    return Trajectory(xs[:n].copy(), ys[:n].copy(), fs[:n].copy(), n_rejected,
                      extension=None if r5s is None else r5s[:n_steps].copy())


# The step attempts multiply their few-element operands with ndarray.dot: the
# same BLAS call as ``@``, whose gufunc dispatch nearly doubles its cost.


def dp45_solve(problem: OdeProblem, ctrl: StepControl) -> Trajectory:
    """Integrate with the explicit Dormand-Prince 5(4) pair."""
    k = np.empty((7, problem.m))

    def attempt(x, y, f, h):
        k[0] = f
        for s in range(1, 7):
            y_stage = y + h * _DP_A[s - 1].dot(k[:s])
            k[s] = problem.rhs(x + _DP_C[s] * h, y_stage)
            # a few m values: a Python pass costs a third of np.isfinite(...).all()
            if not all(map(math.isfinite, k[s].tolist())):
                return None
        y_new = y + h * _DP_B.dot(k)
        err = _scaled_error(h * _DP_E.dot(k), y, y_new, ctrl)
        if not (math.isfinite(err) and np.isfinite(y_new).all()):
            return None
        # FSAL: stage 7 is the rhs at the accepted point
        return y_new, err, lambda x_new: (k[6].copy(), h * _DP_D.dot(k))

    return _integrate(problem, ctrl, 5, attempt)


def _sdirk_stage(problem, inv, x_stage, beta, y_guess, h, scale):
    """Newton-solve one implicit stage through the inverted iteration matrix; returns (Y, ok).

    One finiteness test per iteration, on err, covers f and dy: ``inv.dot(v)``
    spreads a NaN or inf of v to all of dy (0 * inf is NaN), and the max keeps
    it.  Such a stage fails, and numpy may warn of overflow or invalid values.
    """
    y_stage = y_guess
    hg = h * _SD_GAMMA
    prev = np.inf
    for _ in range(_MAX_NEWTON):
        f_stage = np.asarray(problem.rhs(x_stage, y_stage), dtype=float)
        dy = inv.dot(beta - (y_stage - hg * f_stage))
        y_stage = y_stage + dy
        err = float((np.abs(dy) / scale).max())
        if err <= 1e-2:
            return y_stage, True
        # non-finite f or dy makes err non-finite; diverging: give up early
        if not (math.isfinite(err) and err <= 2.0 * prev):
            return y_stage, False
        prev = err
    return y_stage, False


def sdirk_solve(problem: OdeProblem, ctrl: StepControl) -> Trajectory:
    """Integrate with the L-stable SDIRK 4(3) method using analytic Jacobians.

    The embedded error estimate is smoothed through the per-step inverse of
    I - h*gamma*J(x, y), so it stays bounded on very stiff modes.  A singular
    iteration matrix rejects the step like a failed stage.
    """
    eye = np.eye(problem.m)
    k = np.empty((5, problem.m))

    def attempt(x, y, f, h):
        try:
            jac = np.asarray(problem.ode_jacobian(x, y), dtype=float)
        except OverflowError:
            jac = None
        if jac is None or not np.isfinite(jac).all():
            raise NumericError(f"ode_jacobian not finite at x={x!r}")
        try:
            inv = np.linalg.inv(eye - h * _SD_GAMMA * jac)
        except np.linalg.LinAlgError:
            return None
        scale = ctrl.abs_tol + ctrl.rel_tol * np.abs(y)
        y_stage = y
        for s in range(5):
            beta = y + h * _SD_A[s, :s].dot(k[:s]) if s else y
            y_stage, ok = _sdirk_stage(problem, inv, x + _SD_C[s] * h, beta, y_stage, h, scale)
            if not ok:
                return None
            k[s] = (y_stage - beta) / (h * _SD_GAMMA)
        # stiffly accurate: the last stage is the step value
        err = _scaled_error(inv.dot(h * _SD_E.dot(k)), y, y_stage, ctrl)
        if not (math.isfinite(err) and np.isfinite(y_stage).all()):
            return None
        return y_stage, err, lambda x_new: (
            np.asarray(problem.rhs(x_new, y_stage), dtype=float), None)

    return _integrate(problem, ctrl, 4, attempt)


def dense_eval(traj: Trajectory, x) -> np.ndarray:
    """Interpolate the trajectory on the bracketing accepted step.

    The module docstring's formula, exact at accepted abscissae.  Shape
    follows the input: (m,) for scalar x, else (k, m).  Raises ValueError
    when x has more than one dimension, or when a point lies outside the
    trajectory or is NaN.

    Steps own left-closed intervals, the last step x_end too.  The points go
    through ``trial._walk_points`` in blocks of ``_BLOCK_VALUES // (4*m)``
    points (2,048 for m = 8); unsorted ones are argsorted once (16 bytes per
    point) and scattered from one block of scratch.  A block forms the terms
    r2..r5 of its steps and repeats each step's rows (left abscissa, width,
    terms and state) over the step's run, so that with theta spelled out to
    (points, m) every pass runs in place over contiguous slabs in L2 cache,
    in about half the time of strided terms and a new array per pass (HIRES,
    2-vCPU Xeon).  The scratch grows by the block's step terms, at most one
    row per point.  Each operation acts on one point or step, so the values
    are bit for bit one pass's.
    """
    t, y, f = traj.abscissae, traj.states, traj.derivatives
    m = y.shape[1]

    def fill(block, first, counts, rows):
        last = first + len(counts)
        steps, ends = slice(first, last), slice(first + 1, last + 1)
        h = t[ends] - t[steps]
        width = np.repeat(h, counts)
        theta = np.repeat((block - np.repeat(t[steps], counts)) / width, m).reshape(-1, m)
        rest = 1.0 - theta
        h = np.repeat(h, m).reshape(-1, m)  # spelled out: a (steps, 1) broadcast runs slower
        terms = np.empty((5, last - first, m))  # r2..r5 and y0 of the steps
        terms[0] = y[ends] - y[steps]
        terms[1] = h * f[steps] - terms[0]
        terms[2] = terms[0] - h * f[ends] - terms[1]
        terms[3] = 0.0 if traj.extension is None else traj.extension[steps]
        terms[4] = y[steps]
        r2, r3, r4, acc, y0 = np.repeat(terms, counts, axis=1)
        for factor, term in ((rest, r4), (theta, r3), (rest, r2)):  # innermost first
            acc *= factor
            acc += term
        acc *= theta
        np.add(y0, acc, out=rows)
        # theta == 1 at x_end, and where rounding makes it 1 just left of a
        # knot: take the right state, which y0 + r2 need not round to
        at_end = theta[:, 0] == 1.0
        if at_end.any():
            right = np.searchsorted(t, block[at_end], side="right")
            rows[at_end] = y[np.minimum(right, len(t) - 1)]

    return _walk_points(x, t, "left", m, max(1, _BLOCK_VALUES // (4 * m)), fill)

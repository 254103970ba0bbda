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

Both record the state and its derivative at every accepted point for dense
output through :func:`dense_eval`: dp45 trajectories additionally carry the
pair's quartic continuous extension, while implicit trajectories interpolate
with cubic Hermite on their (smaller) steps.  Step acceptance uses the mixed
norm max_i |err_i| / (abs_tol + rel_tol * |y_i|).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, StepUnderflowError
from .problems import OdeProblem

_EPS = float(np.finfo(np.float64).eps)

# Dormand-Prince 5(4): stage coefficients, 5th-order weights, error weights.
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


def _dp_dense_coefficients() -> np.ndarray:
    """Quartic continuous-extension weights b_i(theta) for the 5(4) pair.

    Solves the continuous order conditions through order 4 plus endpoint
    value and slope matching, so the dense output is a C^1 interpolant that
    reproduces the accepted states and derivatives at every knot.  The
    system is solvable with the pair's seven stages alone (no extra
    evaluations); returns the (7, 4) coefficient matrix of theta^1..theta^4.
    """
    a_full = np.zeros((7, 7))
    for s, row in enumerate(_DP_A):
        a_full[s + 1, : s + 1] = row
    c = _DP_C
    weights = [np.ones(7), c, c**2, a_full @ c, c**3, c * (a_full @ c),
               a_full @ c**2, a_full @ (a_full @ c)]
    targets = [(1, 1.0), (2, 1 / 2), (3, 1 / 3), (3, 1 / 6),
               (4, 1 / 4), (4, 1 / 8), (4, 1 / 12), (4, 1 / 24)]
    rows, vals = [], []
    for (power, value), w in zip(targets, weights):
        for d in range(4):
            row = np.zeros(28)
            row[d::4] = w
            rows.append(row)
            vals.append(value if d + 1 == power else 0.0)
    for i in range(7):  # b_i(1) = b_i: dense value at theta=1 is the step value
        row = np.zeros(28)
        row[4 * i : 4 * i + 4] = 1.0
        rows.append(row)
        vals.append(_DP_B[i])
    for i in range(7):  # b_i'(0) = delta_{i,1}: slope at theta=0 is f(x, y)
        row = np.zeros(28)
        row[4 * i] = 1.0
        rows.append(row)
        vals.append(1.0 if i == 0 else 0.0)
    for i in range(7):  # b_i'(1) = delta_{i,7}: slope at theta=1 is f(x+h, y_new)
        row = np.zeros(28)
        row[4 * i : 4 * i + 4] = np.arange(1.0, 5.0)
        rows.append(row)
        vals.append(1.0 if i == 6 else 0.0)
    matrix, rhs = np.array(rows), np.array(vals)
    sol, *_ = np.linalg.lstsq(matrix, rhs, rcond=None)
    if np.abs(matrix @ sol - rhs).max() > 1e-10:
        raise AssertionError("dense-output conditions are inconsistent")
    return sol.reshape(7, 4)


_DP_DENSE = _dp_dense_coefficients()

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


@dataclass(frozen=True)
class StepControl:
    """Adaptive step-size parameters shared by both integrators."""

    abs_tol: float
    rel_tol: float
    safety: float = 0.9
    min_factor: float = 0.2
    max_factor: float = 5.0
    initial_step: float | None = None
    max_steps: int = 5_000_000

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise ValueError("tolerances must be positive")
        if not 0 < self.min_factor <= self.max_factor:
            raise ValueError("need 0 < min_factor <= max_factor")


@dataclass(frozen=True)
class Trajectory:
    """Accepted integration points with states and derivatives.

    ``extension``, when present, holds per-step quartic dense-output
    coefficients of shape (n_steps, 4, m); otherwise dense evaluation falls
    back to cubic Hermite interpolation of states and derivatives.
    """

    abscissae: np.ndarray
    states: np.ndarray
    derivatives: np.ndarray
    n_steps: int
    n_rejected: int
    extension: np.ndarray | None = None

    def __post_init__(self):
        if len(self.abscissae) != len(self.states) or len(self.states) != len(self.derivatives):
            raise ValueError("inconsistent trajectory shapes")
        if len(self.abscissae) > 1 and not np.all(np.diff(self.abscissae) > 0):
            raise ValueError("abscissae must be strictly increasing")
        if self.extension is not None and len(self.extension) != len(self.abscissae) - 1:
            raise ValueError("extension must hold one coefficient block per step")

    def __call__(self, x) -> np.ndarray:
        return dense_eval(self, x)


def _scaled_error(err_vec: np.ndarray, y_old: np.ndarray, y_new: np.ndarray, ctrl: StepControl) -> float:
    scale = ctrl.abs_tol + ctrl.rel_tol * np.maximum(np.abs(y_old), np.abs(y_new))
    return float((np.abs(err_vec) / scale).max())

def _initial_step(problem: OdeProblem, f0: np.ndarray, ctrl: StepControl, order: int) -> float:
    """Small-cost starting guess: compare the state scale with its derivative."""
    span = problem.x_end - problem.x0
    if ctrl.initial_step is not None:
        return min(float(ctrl.initial_step), span)
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


def _check_underflow(h: float, x: float, span: float) -> None:
    if h < 16.0 * _EPS * max(abs(x), span * 1e-3):
        raise StepUnderflowError(
            f"step size underflow at x={x!r} (h={h!r})", abscissa=x, last_error=None
        )


def _grow_factor(err: float, ctrl: StepControl, inv_order: float) -> float:
    if err == 0.0:
        return ctrl.max_factor
    return min(ctrl.max_factor, max(ctrl.min_factor, ctrl.safety * err**-inv_order))


def dp45_solve(problem: OdeProblem, ctrl: StepControl) -> Trajectory:
    """Integrate with the explicit Dormand-Prince 5(4) pair."""
    x, y = problem.x0, problem.alpha.copy()
    f = np.asarray(problem.rhs(x, y), dtype=float)
    if not np.isfinite(f).all():
        raise NumericError(f"rhs not finite at the initial point of {problem.name!r}")
    span = problem.x_end - problem.x0
    h = _initial_step(problem, f, ctrl, order=5)
    xs, ys, fs, ext = [x], [y.copy()], [f.copy()], []
    n_steps = n_rejected = 0
    k = np.empty((7, problem.m))
    while x < problem.x_end:
        if n_steps + n_rejected >= ctrl.max_steps:
            raise StepUnderflowError(
                f"step budget {ctrl.max_steps} exhausted at x={x!r}", abscissa=x
            )
        _check_underflow(h, x, span)
        h = min(h, problem.x_end - x)
        last = h >= problem.x_end - x
        k[0] = f
        finite = True
        for s in range(1, 7):
            y_stage = y + h * (_DP_A[s - 1] @ k[:s])
            k[s] = problem.rhs(x + _DP_C[s] * h, y_stage)
            if not np.isfinite(k[s]).all():
                finite = False
                break
        if finite:
            y_new = y + h * (_DP_B @ k)
            err = _scaled_error(h * (_DP_E @ k), y, y_new, ctrl)
            finite = np.isfinite(err) and np.isfinite(y_new).all()
        if finite and err <= 1.0:
            x = problem.x_end if last else x + h
            y = y_new
            f = k[6].copy()  # FSAL: stage 7 is the rhs at the accepted point
            xs.append(x)
            ys.append(y.copy())
            fs.append(f.copy())
            ext.append(_DP_DENSE.T @ k)  # (4, m) dense coefficients
            n_steps += 1
            h *= _grow_factor(err, ctrl, 0.2)
        else:
            n_rejected += 1
            if not finite:
                h *= ctrl.min_factor
            else:
                h *= min(1.0, _grow_factor(err, ctrl, 0.2))
    return Trajectory(np.array(xs), np.array(ys), np.array(fs), n_steps, n_rejected,
                      extension=np.array(ext))


def _sdirk_stage(problem, inv, x_stage, beta, y_guess, h, scale):
    """Newton-solve one implicit stage through the inverted iteration matrix; returns (Y, ok)."""
    y_stage = y_guess
    hg = h * _SD_GAMMA
    prev = np.inf
    for _ in range(_MAX_NEWTON):
        f_stage = np.asarray(problem.rhs(x_stage, y_stage), dtype=float)
        if not np.isfinite(f_stage).all():
            return y_stage, False
        dy = inv @ (beta - (y_stage - hg * f_stage))
        if not np.isfinite(dy).all():
            return y_stage, False
        y_stage = y_stage + dy
        err = float((np.abs(dy) / scale).max())
        if err <= 1e-2:
            return y_stage, True
        if err > 2.0 * prev:  # diverging: give up early, the step will shrink
            return y_stage, False
        prev = err
    return y_stage, False


def sdirk_solve(problem: OdeProblem, ctrl: StepControl) -> Trajectory:
    """Integrate with the L-stable SDIRK 4(3) method using analytic Jacobians.

    One iteration matrix I - h*gamma*J(x, y) is formed and inverted per step;
    the inverse serves every stage's Newton iteration, and the embedded error
    estimate is smoothed through it so it stays bounded on very stiff modes.
    An explicit inverse, not LU, because numpy exposes no factor/solve pair.
    A singular iteration matrix rejects the step like a failed stage.
    """
    x, y = problem.x0, problem.alpha.copy()
    m = problem.m
    f = np.asarray(problem.rhs(x, y), dtype=float)
    if not np.isfinite(f).all():
        raise NumericError(f"rhs not finite at the initial point of {problem.name!r}")
    span = problem.x_end - problem.x0
    h = _initial_step(problem, f, ctrl, order=4)
    xs, ys, fs = [x], [y.copy()], [f.copy()]
    n_steps = n_rejected = 0
    eye = np.eye(m)
    k = np.empty((5, m))
    while x < problem.x_end:
        if n_steps + n_rejected >= ctrl.max_steps:
            raise StepUnderflowError(
                f"step budget {ctrl.max_steps} exhausted at x={x!r}", abscissa=x
            )
        _check_underflow(h, x, span)
        h = min(h, problem.x_end - x)
        last = h >= problem.x_end - x
        jac = np.asarray(problem.ode_jacobian(x, y), dtype=float)
        if not np.isfinite(jac).all():
            raise NumericError(f"ode_jacobian not finite at x={x!r}")
        try:
            inv = np.linalg.inv(eye - h * _SD_GAMMA * jac)
        except np.linalg.LinAlgError:
            n_rejected += 1
            h *= ctrl.min_factor
            continue
        scale = ctrl.abs_tol + ctrl.rel_tol * np.abs(y)
        ok = True
        y_stage = y
        for s in range(5):
            beta = y + h * (_SD_A[s, :s] @ k[:s]) if s else y
            y_stage, ok = _sdirk_stage(
                problem, inv, x + _SD_C[s] * h, beta, y_stage, h, scale
            )
            if not ok:
                break
            k[s] = (y_stage - beta) / (h * _SD_GAMMA)
        if ok:
            y_new = y_stage  # stiffly accurate: the last stage is the step value
            raw = h * (_SD_E @ k)
            err = _scaled_error(inv @ raw, y, y_new, ctrl)
            ok = np.isfinite(err) and np.isfinite(y_new).all()
        if ok and err <= 1.0:
            x = problem.x_end if last else x + h
            y = y_new
            f = np.asarray(problem.rhs(x, y), dtype=float)
            xs.append(x)
            ys.append(y.copy())
            fs.append(f.copy())
            n_steps += 1
            h *= _grow_factor(err, ctrl, 0.25)
        else:
            n_rejected += 1
            h *= ctrl.min_factor if not ok else min(1.0, _grow_factor(err, ctrl, 0.25))
    return Trajectory(np.array(xs), np.array(ys), np.array(fs), n_steps, n_rejected)


def dense_eval(traj: Trajectory, x) -> np.ndarray:
    """Interpolate the trajectory on the bracketing accepted step.

    Uses the integrator's own quartic continuous extension when the
    trajectory carries one, and cubic Hermite interpolation of the stored
    states and derivatives otherwise.  Either way the values are exact at
    accepted abscissae.  Shape follows the input: (m,) for scalar x, else
    (k, m).  Raises ValueError when a point lies outside the trajectory or
    is NaN.
    """
    xs = np.asarray(x, dtype=float)
    scalar = xs.ndim == 0
    pts = np.atleast_1d(xs)
    t = traj.abscissae
    if pts.size and not (pts.min() >= t[0] and pts.max() <= t[-1]):
        raise ValueError(
            f"evaluation points must lie in [{t[0]}, {t[-1]}], "
            f"got range [{pts.min()}, {pts.max()}]"
        )
    idx = np.clip(np.searchsorted(t, pts, side="right") - 1, 0, len(t) - 2)
    dt = (t[idx + 1] - t[idx])[:, None]
    theta = ((pts - t[idx]) / (t[idx + 1] - t[idx]))[:, None]
    if traj.extension is not None:
        coeff = traj.extension[idx]  # (k, 4, m)
        poly = coeff[:, 3]
        for d in (2, 1, 0):
            poly = poly * theta + coeff[:, d]
        out = traj.states[idx] + dt * theta * poly
        # exact right-trajectory endpoint (theta == 1 only occurs there)
        at_end = theta[:, 0] == 1.0
        if np.any(at_end):
            out[at_end] = traj.states[idx[at_end] + 1]
    else:
        t2, t3 = theta * theta, theta * theta * theta
        out = (
            (2 * t3 - 3 * t2 + 1) * traj.states[idx]
            + (t3 - 2 * t2 + theta) * dt * traj.derivatives[idx]
            + (-2 * t3 + 3 * t2) * traj.states[idx + 1]
            + (t3 - t2) * dt * traj.derivatives[idx + 1]
        )
    return out[0] if scalar else out

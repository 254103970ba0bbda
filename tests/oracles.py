"""Pointwise reference implementations used as test oracles.

These are the slow, one-point-at-a-time forms that the library's vectorized
code replaces, or helpers that only tests need: single Gaussian bumps, the
plain broadcast forms of a basis's Gaussians and of psi and dpsi/dx, the
per-weight trial-function derivatives, the flat index bijections of the
collocation system, checked rhs/Jacobian evaluation at one point, the
pointwise definitions of the four benchmark problems, residual/Jacobian
assembly with one rhs/Jacobian call per collocation point, dense output
of a classical trajectory in one pass over the whole array of points, the
cubic Hermite interpolant in its basis-function form, the sdirk stage
solve that tests the finiteness of f and of the Newton correction on every
iteration, the paper's adaptive driver written out from the public
pieces of one training attempt, and the effective rank that the truncated
pseudoinverse solve keeps.
"""

import dataclasses
import math

import numpy as np

from rpnn_ode import (
    NumericError,
    OdeProblem,
    PiecewiseSolution,
    SeededRng,
    SegmentSolution,
    gauss_newton_train,
    leastnorm,
    make_benchmark,
    make_grid,
    sample_basis,
    trial_eval,
)
from rpnn_ode.integrators import _MAX_NEWTON, _SD_GAMMA


def rbf_value(c: float, b: float, inv_sq_width: float, x: float):
    """Single Gaussian bump exp(-(x + b - c)^2 * inv_sq_width), in (0, 1]."""
    u = x + b - c
    return np.exp(-(u * u) * inv_sq_width)


def rbf_dx(c: float, b: float, inv_sq_width: float, x: float):
    """Derivative of :func:`rbf_value` with respect to x."""
    u = x + b - c
    return -2.0 * u * inv_sq_width * np.exp(-(u * u) * inv_sq_width)


def gaussians(basis, x) -> np.ndarray:
    """All Gaussian values of a basis at x: (h, m) for scalar x, (k, h, m) for (k,)."""
    u = np.asarray(x, dtype=float)[..., None, None] + basis.biases - basis.centers[:, None]
    return np.exp(-(u * u) * basis.inv_sq_widths)


def gaussians_dx(basis, x) -> np.ndarray:
    """d/dx of :func:`gaussians`, same shape conventions."""
    u = np.asarray(x, dtype=float)[..., None, None] + basis.biases - basis.centers[:, None]
    return -2.0 * u * basis.inv_sq_widths * np.exp(-(u * u) * basis.inv_sq_widths)


def broadcast_eval(seg, xs) -> np.ndarray:
    """psi at a 1-d array of points from the plain (k, h, m) broadcast formula."""
    ramp = (xs - seg.x_start)[:, None]
    return seg.alpha + ramp * (gaussians(seg.basis, xs) * seg.weights).sum(axis=1)


def broadcast_dx(seg, xs) -> np.ndarray:
    """dpsi/dx at a 1-d array of points from the plain (k, h, m) broadcast formula."""
    ramp = (xs - seg.x_start)[:, None]
    n_vals = (gaussians(seg.basis, xs) * seg.weights).sum(axis=1)
    return n_vals + ramp * (gaussians_dx(seg.basis, xs) * seg.weights).sum(axis=1)


def _check_indices(seg, j: int, i: int) -> None:
    if not (0 <= j < seg.basis.h and 0 <= i < seg.basis.m):
        raise ValueError(
            f"index out of range: j={j}, i={i} for h={seg.basis.h}, m={seg.basis.m}"
        )


def trial_dw(seg, x: float, j: int, i: int) -> float:
    """d psi_i / d w_ji at x (0-based node j, component i).

    Linear in the weights, so the value is independent of the current weights.
    """
    _check_indices(seg, j, i)
    b = seg.basis
    g = rbf_value(b.centers[j], b.biases[j, i], b.inv_sq_widths[j, i], x)
    return (x - seg.x_start) * g


def trial_dxdw(seg, x: float, j: int, i: int) -> float:
    """Mixed derivative d^2 psi_i / (dx dw_ji) at x (0-based indices)."""
    _check_indices(seg, j, i)
    b = seg.basis
    c, bias, isw = b.centers[j], b.biases[j, i], b.inv_sq_widths[j, i]
    return rbf_value(c, bias, isw, x) + (x - seg.x_start) * rbf_dx(c, bias, isw, x)


def residual_index(l: int, i: int, n: int) -> int:
    """Flat residual index of point l, component i (all 0-based)."""
    return i * n + l


def residual_coords(q: int, n: int) -> tuple[int, int]:
    """Inverse of :func:`residual_index`: (l, i)."""
    return q % n, q // n


def weight_index(j: int, k: int, h: int) -> int:
    """Flat weight index of node j, component k (all 0-based)."""
    return k * h + j


def weight_coords(p: int, h: int) -> tuple[int, int]:
    """Inverse of :func:`weight_index`: (j, k)."""
    return p % h, p // h


def rhs_eval(problem: OdeProblem, x: float, y: np.ndarray) -> np.ndarray:
    """Evaluate f(x, y) at one point with shape and finiteness checks."""
    y = np.asarray(y, dtype=float)
    if y.shape != (problem.m,):
        raise ValueError(f"state must have shape ({problem.m},), got {y.shape}")
    out = np.asarray(problem.rhs(x, y), dtype=float)
    if out.shape != (problem.m,):
        raise ValueError(f"rhs returned shape {out.shape}, expected ({problem.m},)")
    if not np.all(np.isfinite(out)):
        raise NumericError(f"rhs of {problem.name!r} returned non-finite values at x={x}")
    return out


def jacobian_eval(problem: OdeProblem, x: float, y: np.ndarray) -> np.ndarray:
    """Evaluate the (m, m) matrix d f_i / d y_k at one point, with checks."""
    y = np.asarray(y, dtype=float)
    if y.shape != (problem.m,):
        raise ValueError(f"state must have shape ({problem.m},), got {y.shape}")
    out = np.asarray(problem.ode_jacobian(x, y), dtype=float)
    if out.shape != (problem.m, problem.m):
        raise ValueError(
            f"ode_jacobian returned shape {out.shape}, expected ({problem.m}, {problem.m})"
        )
    if not np.all(np.isfinite(out)):
        raise NumericError(f"ode_jacobian of {problem.name!r} returned non-finite values at x={x}")
    return out


def _pointwise_callbacks(problem: OdeProblem):
    """The benchmark rhs and Jacobian as they were written for one point."""
    if problem.name == "prothero_robinson":
        lam = problem.params["lambda"]

        def rhs(x, y):
            return np.array([lam * (y[0] - math.sin(x)) + math.cos(x)])

        def jac(x, y):
            return np.array([[lam]])

    elif problem.name == "van_der_pol":
        mu = problem.params["mu"]

        def rhs(x, y):
            return np.array([y[1], mu * (1.0 - y[0] ** 2) * y[1] - y[0]])

        def jac(x, y):
            return np.array(
                [[0.0, 1.0], [-2.0 * mu * y[0] * y[1] - 1.0, mu * (1.0 - y[0] ** 2)]]
            )

    elif problem.name == "rober":
        k1, k2, k3 = problem.params["k1"], problem.params["k2"], problem.params["k3"]

        def rhs(x, y):
            r1 = k1 * y[0]
            r2 = k2 * y[1] * y[2]
            r3 = k3 * y[1] ** 2
            return np.array([-r1 + r2, r1 - r2 - r3, r3])

        def jac(x, y):
            return np.array(
                [
                    [-k1, k2 * y[2], k2 * y[1]],
                    [k1, -k2 * y[2] - 2.0 * k3 * y[1], -k2 * y[1]],
                    [0.0, 2.0 * k3 * y[1], 0.0],
                ]
            )

    else:

        def rhs(x, y):
            y1, y2, y3, y4, y5, y6, y7, y8 = y
            return np.array(
                [
                    -1.71 * y1 + 0.43 * y2 + 8.32 * y3 + 0.0007,
                    1.71 * y1 - 8.75 * y2,
                    -10.03 * y3 + 0.43 * y4 + 0.035 * y5,
                    8.32 * y2 + 1.71 * y3 - 1.12 * y4,
                    -1.745 * y5 + 0.43 * y6 + 0.43 * y7,
                    -280.0 * y6 * y8 + 0.69 * y4 + 1.71 * y5 - 0.43 * y6 + 0.69 * y7,
                    280.0 * y6 * y8 - 1.81 * y7,
                    -280.0 * y6 * y8 + 1.81 * y7,
                ]
            )

        def jac(x, y):
            y6, y8 = y[5], y[7]
            J = np.zeros((8, 8))
            J[0, 0], J[0, 1], J[0, 2] = -1.71, 0.43, 8.32
            J[1, 0], J[1, 1] = 1.71, -8.75
            J[2, 2], J[2, 3], J[2, 4] = -10.03, 0.43, 0.035
            J[3, 1], J[3, 2], J[3, 3] = 8.32, 1.71, -1.12
            J[4, 4], J[4, 5], J[4, 6] = -1.745, 0.43, 0.43
            J[5, 3], J[5, 4] = 0.69, 1.71
            J[5, 5], J[5, 6], J[5, 7] = -280.0 * y8 - 0.43, 0.69, -280.0 * y6
            J[6, 5], J[6, 6], J[6, 7] = 280.0 * y8, -1.81, 280.0 * y6
            J[7, 5], J[7, 6], J[7, 7] = -280.0 * y8, 1.81, -280.0 * y6
            return J

    return rhs, jac


def pointwise_benchmark(name: str, **params) -> OdeProblem:
    """A benchmark problem whose rhs and Jacobian accept one point only."""
    problem = make_benchmark(name, **params)
    rhs, jac = _pointwise_callbacks(problem)
    return dataclasses.replace(problem, rhs=rhs, ode_jacobian=jac)


def assemble_residual_loop(problem, seg, xs) -> np.ndarray:
    """Residual assembly with one rhs call per collocation point."""
    n, m = len(xs), problem.m
    g, gx = seg.basis._gaussians_and_dx(xs)
    ramp = (xs - seg.x_start)[:, None]
    n_vals = (g * seg.weights).sum(axis=1)
    psi = seg.alpha + ramp * n_vals
    dpsi = n_vals + ramp * (gx * seg.weights).sum(axis=1)
    f = np.empty((n, m))
    for l in range(n):
        f[l] = problem.rhs(xs[l], psi[l])
    resid = dpsi - f
    if not np.all(np.isfinite(resid)):
        raise NumericError(f"non-finite residual for {problem.name!r}")
    return resid.T.ravel()


def assemble_jacobian_loop(problem, seg, xs) -> np.ndarray:
    """Jacobian assembly with one ode_jacobian call per collocation point."""
    n, m, h = len(xs), problem.m, seg.basis.h
    g, gx = seg.basis._gaussians_and_dx(xs)
    ramp = (xs - seg.x_start)[:, None]
    psi = seg.alpha + ramp * (g * seg.weights).sum(axis=1)
    dw = ramp[:, :, None] * g
    dxdw = g + ramp[:, :, None] * gx
    jf = np.empty((n, m, m))
    for l in range(n):
        jf[l] = problem.ode_jacobian(xs[l], psi[l])
    jac = -np.einsum("lik,ljk->ilkj", jf, dw)
    diag = np.arange(m)
    jac[diag, :, diag, :] += dxdw.transpose(2, 0, 1)
    out = jac.reshape(n * m, m * h)
    if not np.all(np.isfinite(out)):
        raise NumericError(f"non-finite Jacobian for {problem.name!r}")
    return out


def whole_array_dense_eval(traj, x) -> np.ndarray:
    """Dense output of a classical trajectory in one pass over all points.

    The one formula of ``integrators``, with the step terms formed from the
    trajectory's states, derivatives and quartic term (zero when absent);
    (m,) for scalar x, else (k, m).
    """
    xs = np.asarray(x, dtype=float)
    pts = np.atleast_1d(xs)
    t, y, f = traj.abscissae, traj.states, traj.derivatives
    idx = np.clip(np.searchsorted(t, pts, side="right") - 1, 0, len(t) - 2)
    h = (t[idx + 1] - t[idx])[:, None]
    theta = ((pts - t[idx]) / (t[idx + 1] - t[idx]))[:, None]
    r2 = y[idx + 1] - y[idx]
    r3 = h * f[idx] - r2
    r4 = r2 - h * f[idx + 1] - r3
    r5 = 0.0 if traj.extension is None else traj.extension[idx]
    out = y[idx] + theta * (r2 + (1.0 - theta) * (r3 + theta * (r4 + (1.0 - theta) * r5)))
    # exact right-trajectory endpoint (theta == 1 only occurs there)
    at_end = theta[:, 0] == 1.0
    out[at_end] = y[idx[at_end] + 1]
    return out[0] if xs.ndim == 0 else out


def hermite_dense_eval(traj, x) -> np.ndarray:
    """Cubic Hermite interpolation of a trajectory's states and derivatives, in
    the basis-function form; (m,) for scalar x, else (k, m)."""
    xs = np.asarray(x, dtype=float)
    pts = np.atleast_1d(xs)
    t = traj.abscissae
    idx = np.clip(np.searchsorted(t, pts, side="right") - 1, 0, len(t) - 2)
    dt = (t[idx + 1] - t[idx])[:, None]
    theta = ((pts - t[idx]) / (t[idx + 1] - t[idx]))[:, None]
    t2, t3 = theta * theta, theta * theta * theta
    out = (
        (2 * t3 - 3 * t2 + 1) * traj.states[idx]
        + (t3 - 2 * t2 + theta) * dt * traj.derivatives[idx]
        + (-2 * t3 + 3 * t2) * traj.states[idx + 1]
        + (t3 - t2) * dt * traj.derivatives[idx + 1]
    )
    return out[0] if xs.ndim == 0 else out


def sdirk_stage_checking_every_pass(problem, inv, x_stage, beta, y_guess, h, scale):
    """``integrators._sdirk_stage`` with np.isfinite passes on f and dy each iteration."""
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


def paper_driver(problem, config) -> PiecewiseSolution:
    """The paper's adaptive loop: attempt the whole domain, halve the width
    after a failed attempt, double it after an accepted one, and clamp it to
    the remaining domain with the last segment ending at x_end exactly.
    Every attempt draws a fresh basis and starts Gauss-Newton from zero
    weights.  It omits the start-up check and the width floor."""
    rng = SeededRng(config.seed)
    x_start, alpha, width = problem.x0, problem.alpha.copy(), problem.x_end - problem.x0
    segments, iterations = [], []
    while x_start < problem.x_end:
        remaining = problem.x_end - x_start
        if width >= remaining:
            width, x_stop = remaining, problem.x_end
        else:
            x_stop = x_start + width
        basis = sample_basis(x_start, width, config.h, problem.m, rng)
        seg = SegmentSolution(basis=basis, alpha=alpha,
                              weights=np.zeros((config.h, problem.m)), x_stop=x_stop)
        grid = make_grid(x_start, width, config.n)
        result = gauss_newton_train(problem, seg, grid, config.tol, config.maxiter)
        if result.converged:
            segments.append(seg)
            iterations.append(result.iterations)
            alpha, x_start = trial_eval(seg, x_stop), x_stop
            width *= 2.0
        else:
            width *= 0.5
    return PiecewiseSolution(problem_name=problem.name, m=problem.m, x0=problem.x0,
                             x_end=problem.x_end, segments=tuple(segments),
                             iterations=tuple(iterations), total_points=config.n * len(segments))


def effective_rank(a, rcond=None) -> int:
    """Number of singular values s > rcond * s_max, the rank truncated_pinv_solve keeps.

    Counts the kept mask of the library's own cutoff (``leastnorm._truncated_svd``),
    so the rcond rule and the one-BLAS-thread pin under test are the library's.
    """
    _, _, _, keep = leastnorm._truncated_svd(leastnorm._as_matrix(a), rcond)
    return int(np.count_nonzero(keep))

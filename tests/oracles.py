"""Pointwise reference implementations used as test oracles.

These are the slow, one-point-at-a-time forms that the library's vectorized
code replaces, or helpers that only tests need: single Gaussian bumps, the
per-weight trial-function derivatives, the flat index bijections of the
collocation system, checked rhs/Jacobian evaluation at one point, the
pointwise definitions of the four benchmark problems, and residual/Jacobian
assembly with one rhs/Jacobian call per collocation point.
"""

import dataclasses
import math

import numpy as np

from rpnn_ode import NumericError, OdeProblem, make_benchmark


def rbf_value(c: float, b: float, inv_sq_width: float, x: float):
    """Single Gaussian bump exp(-(x + b - c)^2 * inv_sq_width), in (0, 1]."""
    u = x + b - c
    return np.exp(-(u * u) * inv_sq_width)


def rbf_dx(c: float, b: float, inv_sq_width: float, x: float):
    """Derivative of :func:`rbf_value` with respect to x."""
    u = x + b - c
    return -2.0 * u * inv_sq_width * np.exp(-(u * u) * inv_sq_width)


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


def assemble_residual_loop(problem, seg, grid) -> np.ndarray:
    """Residual assembly with one rhs call per collocation point."""
    xs = grid.points
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


def assemble_jacobian_loop(problem, seg, grid) -> np.ndarray:
    """Jacobian assembly with one ode_jacobian call per collocation point."""
    xs = grid.points
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

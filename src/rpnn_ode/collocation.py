"""Residual and Jacobian assembly over a collocation grid.

The stacked residual is F[q] = dpsi_i/dx(x_l) - f_i(x_l, psi(x_l)) with the
flat index q = i*n + l (component-major, point-minor).  Its Jacobian with
respect to the flattened weights W[p], p = k*h + j, combines the mixed
derivative of the trial solution (only on the diagonal component blocks,
since dpsi_i/dx depends only on component i's weights) with the chain-rule
coupling through the ODE Jacobian d f_i / d y_k.

A grid is a non-empty 1-d float array of points (:func:`make_grid`).  Each
assembly calls the problem's vectorized ``rhs`` or ``ode_jacobian`` once, on
all n points, and broadcasts the result to (n, m) or (n, m, m).  Each row
depends on its own point only, so the points may come in any order:
permuted points give the rows permuted.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError, _integer, _real
from .problems import OdeProblem
from .trial import SegmentSolution

__all__ = ["make_grid", "assemble_residual", "assemble_jacobian"]


def make_grid(x_start: float, delta_x: float, n: int) -> np.ndarray:
    """n Chebyshev-clustered points in (x_start, x_start + delta_x], as a float array.

    Points follow x_l = x_start + delta_x * (1 - cos(pi*l/n))/2, l = 1..n:
    clustered toward both interval ends, left endpoint excluded, right
    endpoint included exactly.  Edge clustering puts collocation pressure on
    initial and terminal layers, where stiff transients live; leaving those
    regions uncollocated lets training converge on the nodes while the
    solution drifts between them.  The right endpoint doubles as the next
    segment's starting state.  The assemblies take points in any order.
    n >= 1, x_start finite, and delta_x finite and > 0; any other value
    raises ValueError naming the argument.
    """
    _integer("n", n, 1)
    _real("x_start", x_start)
    _real("delta_x", delta_x, "positive")
    fractions = 0.5 * (1.0 - np.cos(np.pi * np.arange(1, n + 1) / n))
    points = x_start + delta_x * fractions
    points[-1] = x_start + delta_x
    return points


def _trial_on_points(problem: OdeProblem, seg: SegmentSolution, grid):
    """Points xs and the trial terms at them: g, dg/dx (n, h, m), ramp x - x_start
    (n, 1), node sums N and psi = alpha + ramp*N (n, m).  ValueError unless xs is
    a non-empty 1-d array (no points: a residual of norm 0) and the m agree."""
    xs = np.asarray(grid, dtype=float)
    if xs.ndim != 1 or len(xs) < 1:
        raise ValueError(f"collocation points must be a non-empty 1-d array, got {xs.shape}")
    if problem.m != seg.basis.m:
        raise ValueError(f"problem dimension {problem.m} is not the segment's {seg.basis.m}")
    g, gx = seg.basis._gaussians_and_dx(xs)
    ramp = (xs - seg.x_start)[:, None]
    n_vals = (g * seg.weights).sum(axis=1)
    return xs, g, gx, ramp, n_vals, seg.alpha + ramp * n_vals


def assemble_residual(problem: OdeProblem, seg: SegmentSolution, grid: np.ndarray) -> np.ndarray:
    """Stacked residual F of length n*m; raises NumericError on non-finite values."""
    xs, _, gx, ramp, n_vals, psi = _trial_on_points(problem, seg, grid)
    dpsi = n_vals + ramp * (gx * seg.weights).sum(axis=1)
    resid = dpsi - np.broadcast_to(problem.rhs(xs, psi), psi.shape)
    if not np.all(np.isfinite(resid)):
        raise NumericError(f"non-finite residual for {problem.name!r} on [{xs.min()}, {xs.max()}]")
    return resid.T.ravel()


def assemble_jacobian(problem: OdeProblem, seg: SegmentSolution, grid: np.ndarray) -> np.ndarray:
    """Jacobian dF/dW of shape (n*m, m*h); raises NumericError on non-finite values."""
    xs, g, gx, ramp, _, psi = _trial_on_points(problem, seg, grid)
    n, m, h = len(xs), problem.m, seg.basis.h
    dw = ramp[:, :, None] * g  # (n, h, k): d psi_k / d w_jk at x_l
    dxdw = g + ramp[:, :, None] * gx
    jf = np.broadcast_to(problem.ode_jacobian(xs, psi), (n, m, m))
    # jac[i, l, k, j] = delta_ik * dxdw[l, j, i] - jf[l, i, k] * dw[l, j, k], built
    # C-contiguous, so that the reshape below is a view.  The off-diagonal part
    # is bitwise -np.einsum("lik,ljk->ilkj", jf, dw): einsum sums each product
    # into a zeroed output, which makes a -0.0 product +0.0, so the product goes
    # through + 0.0 before its sign flips (the SVD may see the sign of a zero).
    jac = np.empty((m, n, m, h))
    np.multiply(jf.transpose(1, 0, 2)[:, :, :, None], dw.transpose(0, 2, 1), out=jac)
    np.add(jac, 0.0, out=jac)
    np.negative(jac, out=jac)
    diag = np.arange(m)
    jac[diag, :, diag, :] += dxdw.transpose(2, 0, 1)
    out = jac.reshape(n * m, m * h)
    if not np.all(np.isfinite(out)):
        raise NumericError(f"non-finite Jacobian for {problem.name!r} on [{xs.min()}, {xs.max()}]")
    return out

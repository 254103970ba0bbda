"""Residual and Jacobian assembly over a collocation grid.

The stacked residual is F[q] = dpsi_i/dx(x_l) - f_i(x_l, psi(x_l)) with the
flat index q = i*n + l (component-major, point-minor).  Its Jacobian with
respect to the flattened weights W[p], p = k*h + j, combines the mixed
derivative of the trial solution (only on the diagonal component blocks,
since dpsi_i/dx depends only on component i's weights) with the chain-rule
coupling through the ODE Jacobian d f_i / d y_k.

Each assembly calls the problem's vectorized ``rhs`` or ``ode_jacobian``
once, on all n points of the grid, and broadcasts the result to (n, m) or
(n, m, m).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .problems import OdeProblem
from .trial import SegmentSolution

__all__ = ["CollocationGrid", "make_grid", "assemble_residual", "assemble_jacobian"]


@dataclass(frozen=True)
class CollocationGrid:
    """Strictly increasing abscissae where the residual is enforced."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.atleast_1d(np.asarray(self.points, dtype=float))
        if pts.ndim != 1 or len(pts) < 1:
            raise ValueError("grid must hold at least one point")
        if len(pts) > 1 and not np.all(np.diff(pts) > 0):
            raise ValueError("grid points must be strictly increasing")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return len(self.points)


def make_grid(x_start: float, delta_x: float, n: int) -> CollocationGrid:
    """n Chebyshev-clustered points in (x_start, x_start + delta_x].

    Points follow x_l = x_start + delta_x * (1 - cos(pi*l/n))/2, l = 1..n:
    clustered toward both interval ends, left endpoint excluded, right
    endpoint included exactly.  Edge clustering puts collocation pressure on
    initial and terminal layers, where stiff transients live; leaving those
    regions uncollocated lets training converge on the nodes while the
    solution drifts between them.  The right endpoint doubles as the next
    segment's starting state.
    """
    if n < 1:
        raise ValueError(f"need at least one collocation point, got n={n}")
    if not delta_x > 0:
        raise ValueError(f"interval width must be positive, got {delta_x}")
    fractions = 0.5 * (1.0 - np.cos(np.pi * np.arange(1, n + 1) / n))
    points = x_start + delta_x * fractions
    points[-1] = x_start + delta_x
    return CollocationGrid(points)


def _check_dims(problem: OdeProblem, seg: SegmentSolution) -> None:
    if problem.m != seg.basis.m:
        raise ValueError(
            f"problem dimension {problem.m} does not match segment dimension {seg.basis.m}"
        )


def assemble_residual(problem: OdeProblem, seg: SegmentSolution, grid: CollocationGrid) -> np.ndarray:
    """Stacked residual F of length n*m; raises NumericError on non-finite values."""
    _check_dims(problem, seg)
    xs = grid.points
    n, m = len(xs), problem.m
    g, gx = seg.basis._gaussians_and_dx(xs)
    ramp = (xs - seg.x_start)[:, None]
    n_vals = (g * seg.weights).sum(axis=1)
    psi = seg.alpha + ramp * n_vals
    dpsi = n_vals + ramp * (gx * seg.weights).sum(axis=1)
    resid = dpsi - np.broadcast_to(problem.rhs(xs, psi), (n, m))
    if not np.all(np.isfinite(resid)):
        raise NumericError(f"non-finite residual for {problem.name!r} on [{xs[0]}, {xs[-1]}]")
    return resid.T.ravel()


def assemble_jacobian(problem: OdeProblem, seg: SegmentSolution, grid: CollocationGrid) -> np.ndarray:
    """Jacobian dF/dW of shape (n*m, m*h); raises NumericError on non-finite values."""
    _check_dims(problem, seg)
    xs = grid.points
    n, m, h = len(xs), problem.m, seg.basis.h
    g, gx = seg.basis._gaussians_and_dx(xs)  # (n, h, m) each
    ramp = (xs - seg.x_start)[:, None]
    psi = seg.alpha + ramp * (g * seg.weights).sum(axis=1)
    dw = ramp[:, :, None] * g  # (n, h, k): d psi_k / d w_jk at x_l
    dxdw = g + ramp[:, :, None] * gx
    jf = np.broadcast_to(problem.ode_jacobian(xs, psi), (n, m, m))
    # jac[i, l, k, j] = delta_ik * dxdw[l, j, i] - jf[l, i, k] * dw[l, j, k]
    jac = -np.einsum("lik,ljk->ilkj", jf, dw)
    diag = np.arange(m)
    jac[diag, :, diag, :] += dxdw.transpose(2, 0, 1)
    out = jac.reshape(n * m, m * h)
    if not np.all(np.isfinite(out)):
        raise NumericError(f"non-finite Jacobian for {problem.name!r} on [{xs[0]}, {xs[-1]}]")
    return out

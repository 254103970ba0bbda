"""Residual and Jacobian assembly over a collocation grid.

The stacked residual is F[q] = dpsi_i/dx(x_l) - f_i(x_l, psi(x_l)) with the
flat index q = i*n + l (component-major, point-minor).  Its Jacobian with
respect to the flattened weights W[p], p = k*h + j, combines the mixed
derivative of the trial solution (only on the diagonal component blocks,
since dpsi_i/dx depends only on component i's weights) with the chain-rule
coupling through the ODE Jacobian d f_i / d y_k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .problems import OdeProblem
from .trial import SegmentSolution

__all__ = [
    "CollocationGrid",
    "make_grid",
    "assemble_residual",
    "assemble_jacobian",
    "residual_index",
    "residual_coords",
    "weight_index",
    "weight_coords",
]


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
    f = np.empty((n, m))
    for l in range(n):
        f[l] = problem.rhs(xs[l], psi[l])
    resid = dpsi - f
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
    jf = np.empty((n, m, m))
    for l in range(n):
        jf[l] = problem.ode_jacobian(xs[l], psi[l])
    # jac[i, l, k, j] = delta_ik * dxdw[l, j, i] - jf[l, i, k] * dw[l, j, k]
    jac = -np.einsum("lik,ljk->ilkj", jf, dw)
    diag = np.arange(m)
    jac[diag, :, diag, :] += dxdw.transpose(2, 0, 1)
    out = jac.reshape(n * m, m * h)
    if not np.all(np.isfinite(out)):
        raise NumericError(f"non-finite Jacobian for {problem.name!r} on [{xs[0]}, {xs[-1]}]")
    return out

"""Per-segment trial functions.

The trial solution on a segment is psi_i(x) = alpha_i + (x - x_start)*N_i(x)
with N_i a linear combination of the segment's Gaussian bumps.  The ramp
factor makes psi match the segment's initial values at x_start exactly, for
any weights, so training only has to care about the differential equation.

Dense evaluation works through the points in blocks of B = _BLOCK_VALUES //
(h*m) points, so that one block's scratch stays in L2 cache.  A block lives
in a flat (B, h*m) buffer allocated once per call; column j*m + i belongs to
node j of component i, matching the row-major flattening of the (h, m)
parameter arrays (the centers are repeated m times).  Every step runs in
place, in the order of :meth:`RbfSegmentBasis.gaussians`: (x + b) - c,
square, negate, times 1/sigma^2, exp, times the weights.  The sum over nodes
is then taken as ``buf.reshape(k, h, m).sum(axis=1)``: that is the layout and
reduction of the plain broadcast formula alpha + ramp*(g*weights).sum(axis=1),
so numpy adds the same terms in the same order and the result is bitwise
identical to it.  The order of a numpy sum depends on the memory layout: a
reduced axis that is contiguous is summed pairwise, a strided one term by
term.  So an (h, k, m) layout reduced over axis 0 looks equivalent but is
not: for m = 1 the node axis is contiguous in (k, h, 1) and strided in
(h, k, 1), and the last bits differ (by up to about 1e-14).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import RbfSegmentBasis

_BLOCK_VALUES = 1 << 16  # scratch values per block: 512 KiB of float64


@dataclass
class SegmentSolution:
    """One trained interval: fixed basis, start state, output weights.

    ``weights`` has shape (h, m); column i holds the output weights of
    component i.  Weights are mutated during training and treated as
    immutable afterwards.
    """

    basis: RbfSegmentBasis
    alpha: np.ndarray
    weights: np.ndarray
    x_stop: float

    def __post_init__(self):
        self.alpha = np.atleast_1d(np.asarray(self.alpha, dtype=float))
        self.weights = np.asarray(self.weights, dtype=float)
        h, m = self.basis.h, self.basis.m
        if self.alpha.shape != (m,):
            raise ValueError(f"alpha must have shape ({m},), got {self.alpha.shape}")
        if self.weights.shape != (h, m):
            raise ValueError(f"weights must have shape ({h}, {m}), got {self.weights.shape}")
        if not (np.all(np.isfinite(self.alpha)) and np.all(np.isfinite(self.weights))):
            raise ValueError("alpha and weights must be finite")
        if not self.x_stop > self.x_start:
            raise ValueError(f"x_stop {self.x_stop} must exceed x_start {self.x_start}")
        if abs((self.x_stop - self.x_start) - self.basis.width) > 1e-9 * self.basis.width:
            raise ValueError("segment endpoints are inconsistent with the basis width")

    @property
    def x_start(self) -> float:
        return self.basis.x_start


def _block_len(h: int, m: int) -> int:
    """Points per evaluation block for h nodes and m components."""
    return max(1, _BLOCK_VALUES // (h * m))


def _combine(seg: SegmentSolution, xs: np.ndarray, derivative: bool) -> np.ndarray:
    """Evaluate psi or dpsi/dx at a 1-d array of points, block by block."""
    b = seg.basis
    h, m = b.h, b.m
    bias = b.biases.ravel()
    center = np.repeat(b.centers, m)
    isw = b.inv_sq_widths.ravel()
    w = seg.weights.ravel()
    size = max(1, min(len(xs), _block_len(h, m)))
    u_buf = np.empty((size, h * m))
    g_buf = np.empty((size, h * m))
    out = np.empty((len(xs), m))
    for lo in range(0, len(xs), size):
        block = xs[lo : lo + size]
        k = len(block)
        u, g = u_buf[:k], g_buf[:k]
        np.add(block[:, None], bias, out=u)
        np.subtract(u, center, out=u)
        np.multiply(u, u, out=g)
        np.negative(g, out=g)
        np.multiply(g, isw, out=g)
        np.exp(g, out=g)
        if derivative:  # u becomes (((-2 u) isw) g) w, from the unweighted g
            np.multiply(u, -2.0, out=u)
            np.multiply(u, isw, out=u)
            np.multiply(u, g, out=u)
            np.multiply(u, w, out=u)
        np.multiply(g, w, out=g)
        n_vals = g.reshape(k, h, m).sum(axis=1)
        ramp = (block - seg.x_start)[:, None]
        if derivative:
            out[lo : lo + k] = n_vals + ramp * u.reshape(k, h, m).sum(axis=1)
        else:
            out[lo : lo + k] = seg.alpha + ramp * n_vals
    return out


def trial_eval(seg: SegmentSolution, x) -> np.ndarray:
    """Trial solution at x: (m,) for scalar x, (k, m) for an array of k points.

    Points outside [x_start, x_stop] are permitted; the Gaussian tails decay
    smoothly, so extrapolation is well defined.
    """
    xs = np.asarray(x, dtype=float)
    if xs.ndim == 0:
        return _combine(seg, xs[None], derivative=False)[0]
    return _combine(seg, xs, derivative=False)


def trial_dx(seg: SegmentSolution, x) -> np.ndarray:
    """d psi / dx at x, same shape conventions as :func:`trial_eval`."""
    xs = np.asarray(x, dtype=float)
    if xs.ndim == 0:
        return _combine(seg, xs[None], derivative=True)[0]
    return _combine(seg, xs, derivative=True)

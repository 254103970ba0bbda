"""Per-segment trial functions.

The trial solution on a segment is psi_i(x) = alpha_i + (x - x_start)*N_i(x)
with N_i a linear combination of the segment's Gaussian bumps.  The ramp
factor makes psi match the segment's initial values at x_start exactly, for
any weights, so training only has to care about the differential equation.

Dense evaluation works through the points in blocks of B = _BLOCK_VALUES //
(h*m) points, so that one block's scratch stays in L2 cache.  A block of k
points uses the first k*h*m values of one flat buffer allocated per call.
Every step runs in place, in the order of the plain (k, h, m) broadcast
formula psi = alpha + ramp*(g*weights).sum(axis=1) with g = exp(-((x + b) -
c)^2 * 1/sigma^2): (x + b) - c, square, times -1/sigma^2, exp, times the
weights.  Elementwise results do not depend on the layout.  Folding the sign
into -1/sigma^2 is exact: IEEE rounding is symmetric in sign, so (-p)*s and
p*(-s) are the same double.

The sum over nodes is what fixes the bits, and the order of a numpy sum
depends on the memory layout: a reduced axis that is contiguous is summed
pairwise, a strided one term by term.  For m > 1 the node axis of the
formula's (k, h, m) array is strided, so each output is ((g_0 + g_1) + g_2)
+ ...  The block is laid out node-major, (h, m, k), with the parameters as
(h, m, 1) columns over contiguous runs of points (the centers, which all
components share, as (h, 1, 1)); ``g.sum(axis=0)`` then
adds the h contiguous (m, k) slabs one after another, the same terms in the
same order, so the result is bitwise identical to the formula.  For m = 1 the
formula's node axis is contiguous and summed pairwise, and a node-major sum
would differ in the last bits (by up to about 1e-14).  So m = 1 keeps the
point-major (k, h) layout, with the parameters as (h,) rows, and sums over
its contiguous node axis as the formula does.
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


def _combine(seg: SegmentSolution, xs: np.ndarray) -> np.ndarray:
    """Evaluate psi at a 1-d array of points, block by block."""
    b = seg.basis
    h, m = b.h, b.m
    params = (b.biases, b.centers[:, None], -b.inv_sq_widths, seg.weights)
    if m > 1:  # node-major (h, m, k): parameters are (h, m, 1) columns
        bias, center, nisw, w = (p[:, :, None] for p in params)
    else:  # point-major (k, h): parameters are (h,) rows
        bias, center, nisw, w = (p.ravel() for p in params)
    size = max(1, min(len(xs), _block_len(h, m)))
    buf = np.empty(size * h * m)
    out = np.empty((len(xs), m))
    for lo in range(0, len(xs), size):
        block = xs[lo : lo + size]
        k = len(block)
        g = buf[: k * h * m].reshape((h, m, k) if m > 1 else (k, h))
        np.add(block if m > 1 else block[:, None], bias, out=g)
        np.subtract(g, center, out=g)
        np.multiply(g, g, out=g)
        np.multiply(g, nisw, out=g)
        np.exp(g, out=g)
        np.multiply(g, w, out=g)
        sums = g.sum(axis=0).T if m > 1 else g.sum(axis=1)[:, None]
        ramp = (block - seg.x_start)[:, None]
        out[lo : lo + k] = seg.alpha + ramp * sums
    return out


def trial_eval(seg: SegmentSolution, x) -> np.ndarray:
    """Trial solution at x: (m,) for scalar x, (k, m) for an array of k points.

    Points outside [x_start, x_stop] are permitted; the Gaussian tails decay
    smoothly, so extrapolation is well defined.
    """
    xs = np.asarray(x, dtype=float)
    if xs.ndim == 0:
        return _combine(seg, xs[None])[0]
    return _combine(seg, xs)

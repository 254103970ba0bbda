"""Per-segment trial functions.

The trial solution on a segment is psi_i(x) = alpha_i + (x - x_start)*N_i(x)
with N_i a linear combination of the segment's Gaussian bumps.  The ramp
factor makes psi match the segment's initial values at x_start exactly, for
any weights, so training only has to care about the differential equation.

Dense evaluation works through the points in blocks, writes each block into
its rows of the output (``eval_solution`` passes a segment's run of points in
a block of ``_walk_points`` with its rows) and runs every step in place, in
the order of the plain (k, h, m) broadcast formula psi = alpha +
ramp*(g*weights).sum(axis=1) with g = exp(-((x + b) - c)^2 * 1/sigma^2):
(x + b) - c, square, times -1/sigma^2, exp, times the weights.  Elementwise results do not depend on
the layout.  Folding the sign into -1/sigma^2 is exact: IEEE rounding is
symmetric in sign, so (-p)*s and p*(-s) are the same double.

The sum over nodes is what fixes the bits, and the order of a numpy sum
depends on the memory layout: a reduced axis that is contiguous is summed
pairwise, a strided one term by term.  For m > 1 the node axis of the
formula's (k, h, m) array is strided, so each output is ((g_0 + g_1) + g_2)
+ ...  So an m > 1 block is laid out node-major, a group of nodes at a
time: the group's terms fill a (nodes, m, k) slab, with the parameters as
(nodes, m, 1) columns over contiguous runs of points (the centers, which all
components share, as (nodes, 1, 1)).  The first group's ``g.sum(axis=0)``
adds its contiguous (m, k) slabs one after another, and each later node's
slab is added to that sum in turn, the same terms in the same order as the
formula, so the result is bitwise identical to it.  For m = 1 the formula's
node axis is contiguous and summed pairwise, and a node-major sum would
differ in the last bits (by up to about 1e-14).  So m = 1 keeps a
point-major (k, h) block of every node, with the parameters as (h,) rows,
and sums over its contiguous node axis as the formula does.

Block sizes.  An m = 1 block holds B = _BLOCK_VALUES // h points, so that its
(k, h) scratch stays in L2 cache.  An m > 1 block holds B = _BLOCK_VALUES // m
points (8,192 for HIRES) and a slab holds as many nodes as fit in
_BLOCK_VALUES values, at least one and at most h: one node in a full HIRES
block, every node in a call on at most _BLOCK_VALUES // (h*m) points, such
as a short segment or the one-point evaluation at the end of each accepted
segment.  The slab and the (m, k) sum, 512 KiB each at most, stay in L2
cache, and where the points or the nodes are cut changes no operation on a
point.  Rows are long on purpose: three of the six passes broadcast an (m, 1)
column per node (the first also broadcasts the points over the rows), and
numpy runs such a pass over rows of fewer than a few thousand values through
its iterator buffer, at three to four times the cost of a contiguous pass.
A block of every node at once, with k = 204 points for HIRES, ran every such
pass in 204-value rows.  Measured on a 2-vCPU Xeon (AVX-512, numpy 2.4), the
passes over 8,192-point rows cost about 2.3 ns per node value, and one
``eval_solution`` of the 150,001-point HIRES grid took 0.13-0.18 s against
0.25 s with 204-point blocks; ROBER, van der Pol and Prothero-Robinson,
whose segments are mostly short, did not get slower.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import RbfSegmentBasis

_BLOCK_VALUES = 1 << 16  # values per scratch array: 512 KiB of float64


@dataclass(eq=False)
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


def _walk_points(x, knots: np.ndarray, side: str, m: int, size: int, fill) -> np.ndarray:
    """Values at x in [knots[0], knots[-1]]: (m,) for scalar x, (k, m) for k points.

    The point walk of both dense evaluators.  Raises ValueError when x has
    more than one dimension, or when a point lies outside the knots or is NaN.
    Unsorted points are argsorted once (16 bytes per point; the sort need not
    be stable).  One search of the knots into the sorted points cuts them into
    intervals: the first owns knots[0], the last knots[-1], and an interior
    knot the one on its left for ``side="right"``, on its right otherwise.
    ``fill(block, first, counts, rows)`` writes the values at a sorted block
    of ``size`` points into rows, counts[j] of them (perhaps 0) in interval
    first + j; rows is the block's slice of the output for sorted points,
    else one block of scratch that is scattered into place.
    """
    xs = np.asarray(x, dtype=float)
    if xs.ndim > 1:
        raise ValueError(f"evaluation points must be a scalar or 1-d, got shape {xs.shape}")
    pts = np.atleast_1d(xs)
    if pts.size and not (pts.min() >= knots[0] and pts.max() <= knots[-1]):
        raise ValueError(f"evaluation points must lie in [{knots[0]}, {knots[-1]}], "
                         f"got range [{pts.min()}, {pts.max()}]")
    order = None
    if np.any(pts[1:] < pts[:-1]):
        order = np.argsort(pts)
        pts = pts[order]
    bounds = np.searchsorted(pts, knots, side=side)
    bounds[0], bounds[-1] = 0, len(pts)
    out = np.empty((len(pts), m))
    buf = None if order is None else np.empty((min(size, len(pts)), m))
    for start in range(0, len(pts), size):
        block = pts[start : start + size]
        stop = start + len(block)
        first = np.searchsorted(bounds, start, side="right") - 1
        last = np.searchsorted(bounds, stop - 1, side="right")
        counts = np.diff(np.clip(bounds[first : last + 1], start, stop))
        rows = out[start:stop] if order is None else buf[: len(block)]
        fill(block, first, counts, rows)
        if order is not None:
            out[order[start:stop]] = rows
    return out[0] if xs.ndim == 0 else out


def _block_len(h: int, m: int) -> int:
    """Points per evaluation block for h nodes and m components.

    An m = 1 block's (k, h) array holds every node; an m > 1 block's points
    fill one node's (m, k) slab.
    """
    return max(1, _BLOCK_VALUES // (h if m == 1 else m))


def _node_terms(x, bias, center, nisw, w, g: np.ndarray) -> None:
    """g = w * exp(((x + bias) - center)^2 * nisw), in place in g, step by step."""
    np.add(x, bias, out=g)
    np.subtract(g, center, out=g)
    np.multiply(g, g, out=g)
    np.multiply(g, nisw, out=g)
    np.exp(g, out=g)
    np.multiply(g, w, out=g)


def _combine(seg: SegmentSolution, xs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Evaluate psi at a 1-d array of points, block by block, into out (k, m) if given."""
    b = seg.basis
    h, m = b.h, b.m
    size = max(1, min(len(xs), _block_len(h, m)))
    nisw = -b.inv_sq_widths
    if out is None:
        out = np.empty((len(xs), m))
    if m == 1:  # point-major (k, h): parameters are (h,) rows
        params = [p.ravel() for p in (b.biases, b.centers, nisw, seg.weights)]
        buf = np.empty(size * h)
    else:  # node-major (nodes, m, k): parameters are (h, m, 1) columns
        params = [p[:, :, None] for p in (b.biases, b.centers[:, None], nisw, seg.weights)]
        group = max(1, min(h, _BLOCK_VALUES // (m * size)))  # nodes per slab
        buf, acc = np.empty(group * m * size), np.empty(m * size)
    for lo in range(0, len(xs), size):
        block = xs[lo : lo + size]
        k = len(block)
        if m == 1:
            g = buf[: k * h].reshape(k, h)
            _node_terms(block[:, None], *params, g)
            sums = g.sum(axis=1)[:, None]
        else:
            sums = acc[: m * k].reshape(m, k)
            for j in range(0, h, group):
                g = buf[: min(group, h - j) * m * k].reshape(-1, m, k)
                _node_terms(block, *(p[j : j + group] for p in params), g)
                if j == 0:
                    np.sum(g, axis=0, out=sums)
                else:
                    for slab in g:
                        np.add(sums, slab, out=sums)
            sums = sums.T
        rows = out[lo : lo + k]
        np.multiply((block - seg.x_start)[:, None], sums, out=rows)
        np.add(seg.alpha, rows, out=rows)
    return out


def trial_eval(seg: SegmentSolution, x, out: np.ndarray | None = None) -> np.ndarray:
    """Trial solution at x: (m,) for scalar x, (k, m) for an array of k points.

    Points outside [x_start, x_stop] are permitted; the Gaussian tails decay
    smoothly, so extrapolation is well defined.  ``out``, a (k, m) float
    array for k points, receives the values in place and is returned.
    """
    xs = np.asarray(x, dtype=float)
    if xs.ndim == 0:
        return _combine(seg, xs[None])[0]
    return _combine(seg, xs, out)

"""Randomized Gaussian radial-basis segments.

Each solver interval [x_start, x_start + width] carries h Gaussian bumps per
solution component.  Centers are equidistant across the interval; per-node
biases and inverse squared widths are drawn uniformly from intervals scaled
to the segment width, so the basis is neither too steep nor too flat at any
collocation point.  Only the linear output weights are trained later; the
basis itself stays fixed once sampled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import _integer, _real

_MASK64 = (1 << 64) - 1
_XS_MULT = 0x2545F4914F6CDD1D
_DOUBLE_SCALE = 1.0 / (1 << 53)


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


class SeededRng:
    """Deterministic xorshift64* uniform generator.

    State advances as ``x ^= x >> 12; x ^= x << 25; x ^= x >> 27`` and each
    output is the top 53 bits of ``x * 0x2545F4914F6CDD1D`` scaled to [0, 1).
    The seed passes through one splitmix64 scramble so nearby seeds give
    unrelated streams.  Identical seeds yield bitwise-identical streams on
    every platform.  The seed is any integer (Python or numpy), taken modulo
    2^64; any other value raises ValueError naming it.  Instances hold
    mutable state and must not be shared between threads.
    """

    def __init__(self, seed: int):
        self.seed = _integer("seed", seed) & _MASK64
        self._state = _splitmix64(self.seed) or 0x9E3779B97F4A7C15

    def uniform(self, low: float, high: float, size=None):
        """Draw i.i.d. uniforms from [low, high), both finite; scalar when size is None."""
        _real("low", low)
        _real("high", high)
        if not high > low:
            raise ValueError(f"empty interval [{low}, {high})")
        n = 1 if size is None else int(np.prod(size))
        out = np.empty(n)
        s = self._state
        for i in range(n):
            s ^= s >> 12
            s = (s ^ (s << 25)) & _MASK64
            s ^= s >> 27
            out[i] = ((s * _XS_MULT & _MASK64) >> 11) * _DOUBLE_SCALE
        self._state = s
        out = low + (high - low) * out
        if size is None:
            return float(out[0])
        return out.reshape(size)


@dataclass(frozen=True, eq=False)
class RbfSegmentBasis:
    """Fixed random parameters of one segment's RBF expansion.

    centers: (h,) equidistant node centers spanning the segment.
    biases: (h, m) additive input shifts, drawn from [-width/6, 0].
    inv_sq_widths: (h, m) values 1/sigma^2, always inside
        [3/(8*width^2), 81/(2*width^2)]; the widths sigma themselves are the
        uniformly distributed quantity.

    Node j of component i contributes exp(-(x + b_ji - c_j)^2 / sigma_ji^2).
    """

    h: int
    m: int
    x_start: float
    width: float
    centers: np.ndarray
    biases: np.ndarray
    inv_sq_widths: np.ndarray

    def __post_init__(self):
        _integer("h", self.h, 1)
        _integer("m", self.m, 1)
        _real("width", self.width, "positive")
        if self.centers.shape != (self.h,):
            raise ValueError(f"centers must have shape ({self.h},)")
        if self.biases.shape != (self.h, self.m):
            raise ValueError(f"biases must have shape ({self.h}, {self.m})")
        if self.inv_sq_widths.shape != (self.h, self.m):
            raise ValueError(f"inv_sq_widths must have shape ({self.h}, {self.m})")
        params = (self.x_start, self.centers, self.biases, self.inv_sq_widths)
        if not all(np.all(np.isfinite(v)) for v in params):
            raise ValueError("x_start, centers, biases and inv_sq_widths must be finite")
        if not np.all(self.inv_sq_widths > 0):
            raise ValueError("inverse squared widths must be strictly positive")

    def _gaussians_and_dx(self, x) -> tuple[np.ndarray, np.ndarray]:
        """Gaussian values g and dg/dx at x, from one exp.

        Each has shape (h, m) for scalar x and (k, h, m) for x of shape (k,).
        """
        u = np.asarray(x, dtype=float)[..., None, None] + self.biases - self.centers[:, None]
        g = np.exp(-(u * u) * self.inv_sq_widths)
        return g, -2.0 * u * self.inv_sq_widths * g


def sample_basis(x_start: float, delta_x: float, h: int, m: int, rng: SeededRng) -> RbfSegmentBasis:
    """Draw a fresh random basis for the interval [x_start, x_start + delta_x].

    Centers are the h equidistant points covering the interval endpoints.
    Biases are drawn first, then widths, each as an (h, m) block filled in
    row-major order, so a given rng state fixes the basis.  The width sigma
    is the uniformly distributed variable, over the interval whose inverse
    squares span [3/(8*delta_x^2), 81/(2*delta_x^2)]; a uniform draw of
    1/sigma^2 itself would pile most nodes at the narrow end and lose the
    broad, smooth bumps the approximation quality rests on.
    """
    _integer("h", h, 2)
    _integer("m", m, 1)
    _real("x_start", x_start)
    _real("delta_x", delta_x, "positive")
    centers = np.linspace(x_start, x_start + delta_x, h)
    biases = rng.uniform(-delta_x / 6.0, 0.0, size=(h, m))
    sigma = rng.uniform(np.sqrt(2.0 / 81.0) * delta_x, np.sqrt(8.0 / 3.0) * delta_x, size=(h, m))
    inv_sq_widths = 1.0 / (sigma * sigma)
    return RbfSegmentBasis(
        h=h,
        m=m,
        x_start=float(x_start),
        width=float(delta_x),
        centers=centers,
        biases=biases,
        inv_sq_widths=inv_sq_widths,
    )

"""Benchmark stiff initial-value problems with analytic Jacobians.

Four classic stiff IVPs are provided through :func:`make_benchmark`:

* ``prothero_robinson`` -- scalar y' = lam*(y - sin x) + cos x on [0, 2*pi];
  the exact solution is sin(x) regardless of lam.
* ``van_der_pol`` -- relaxation oscillator, first-order form, on [0, 3*mu]
  ([0, 30] for mu = 1).
* ``rober`` -- three-species autocatalytic kinetics on [0, 40].
* ``hires`` -- eight-equation plant-physiology kinetics on [0, 321.8122].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import NumericError

RhsFn = Callable[[np.ndarray, np.ndarray], np.ndarray]
JacFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True, eq=False)
class OdeProblem:
    """First-order system y' = f(x, y) with y(x0) = alpha, posed on [x0, x_end].

    ``rhs`` and ``ode_jacobian`` are vectorized over points.  Given abscissae
    x of shape (k,) and states y of shape (k, m), ``rhs`` returns f at the k
    points, shape (k, m), and ``ode_jacobian`` the partials d f_i / d y_k,
    shape (k, m, m).  A scalar x with y of shape (m,) gives (m,) and (m, m);
    the classical integrators call them that way, one point at a time.  The
    results only need to broadcast to those shapes, so a callback that does
    not depend on the point may return a constant such as ``np.eye(m)``.
    Write components as ``y1, y2 = y.T`` or ``y[..., 0]``: a pointwise-only
    callback that indexes ``y[i]`` picks a point, not a component, of a
    block, and is not supported.  The built-ins take one point as Python
    floats, for speed; a user callback need not.  ``analytic``, when present,
    maps an array of abscissae to a (len(x), m) array of exact solution
    values.  Instances are immutable and safe to share between threads.
    They compare and hash by identity, so a problem can be a dict key.
    """

    name: str
    m: int
    x0: float
    x_end: float
    alpha: np.ndarray
    rhs: RhsFn
    ode_jacobian: JacFn
    analytic: Optional[Callable[[np.ndarray], np.ndarray]] = None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"system dimension must be >= 1, got {self.m}")
        if not -math.inf < self.x0 < self.x_end < math.inf:
            raise ValueError(f"need finite x0 < x_end, got [{self.x0}, {self.x_end}]")
        alpha = np.atleast_1d(np.asarray(self.alpha, dtype=float))
        if alpha.shape != (self.m,):
            raise ValueError(f"alpha must have shape ({self.m},), got {alpha.shape}")
        object.__setattr__(self, "alpha", alpha)


def initial_rhs(problem: OdeProblem) -> np.ndarray:
    """The start-up check of every solver: f(x0, alpha) as a float array, or
    NumericError when it is not finite, an OverflowError from the rhs included."""
    try:
        f = np.asarray(problem.rhs(problem.x0, problem.alpha), dtype=float)
        if np.isfinite(f).all():
            return f
    except OverflowError:
        pass
    raise NumericError(f"rhs not finite at the initial point of {problem.name!r}")


def _components(y):
    """The components of y: Python floats at one point (m,), rows of y.T for a block (k, m).

    The built-in problems compute a single point on Python floats, whose + - *
    are numpy scalars' IEEE double operations at a fraction of the call cost.
    ``y ** 2`` is libm ``pow`` on a Python float, as on a numpy scalar, but
    numpy computes it as ``y * y`` on a block; the two may differ in the last
    bit, so block and single-point values of van der Pol and ROBER agree to
    rounding only.  Keep ``y ** 2``: ``y * y`` would change the single-point
    values, and with them the last bits of every sdirk and dp45 trajectory.
    """
    return y.tolist() if y.ndim == 1 else y.T


def _jacobian_block(template: np.ndarray, y: np.ndarray) -> np.ndarray:
    """A fresh copy of the constant (m, m) part of a Jacobian for each point of y."""
    out = np.empty(y.shape[:-1] + template.shape)
    out[...] = template
    return out


def _prothero_robinson(lam: float) -> OdeProblem:
    if not -math.inf < lam < 0:
        raise ValueError(f"lambda must be finite and negative, got {lam}")

    def rhs(x, y):
        (y1,) = _components(y)
        return np.array([lam * (y1 - np.sin(x)) + np.cos(x)]).T

    def jac(x, y):
        return np.array([[lam]])

    def analytic(xs):
        return np.sin(np.asarray(xs, dtype=float))[..., None]

    return OdeProblem(
        name="prothero_robinson",
        m=1,
        x0=0.0,
        x_end=2.0 * math.pi,
        alpha=np.array([0.0]),
        rhs=rhs,
        ode_jacobian=jac,
        analytic=analytic,
        params={"lambda": lam},
    )


def _van_der_pol(mu: float) -> OdeProblem:
    if not 0 < mu < math.inf:
        raise ValueError(f"mu must be finite and positive, got {mu}")
    template = np.array([[0.0, 1.0], [0.0, 0.0]])

    def rhs(x, y):
        y1, y2 = _components(y)
        return np.array([y2, mu * (1.0 - y1 ** 2) * y2 - y1]).T

    def jac(x, y):
        y1, y2 = _components(y)
        J = _jacobian_block(template, y)
        J[..., 1, 0] = -2.0 * mu * y1 * y2 - 1.0
        J[..., 1, 1] = mu * (1.0 - y1 ** 2)
        return J

    # Interval spans roughly three relaxation periods T ~ mu*(3 - 2*ln 2);
    # the mildly stiff mu=1 case conventionally uses [0, 30] instead.
    x_end = 30.0 if mu == 1 else 3.0 * mu
    return OdeProblem(
        name="van_der_pol",
        m=2,
        x0=0.0,
        x_end=x_end,
        alpha=np.array([2.0, 0.0]),
        rhs=rhs,
        ode_jacobian=jac,
        params={"mu": mu},
    )


def _rober() -> OdeProblem:
    k1, k2, k3 = 0.04, 1.0e4, 3.0e7
    template = np.array([[-k1, 0.0, 0.0], [k1, 0.0, 0.0], [0.0, 0.0, 0.0]])

    def rhs(x, y):
        y1, y2, y3 = _components(y)
        r1 = k1 * y1
        r2 = k2 * y2 * y3
        r3 = k3 * y2 ** 2
        return np.array([-r1 + r2, r1 - r2 - r3, r3]).T

    def jac(x, y):
        _, y2, y3 = _components(y)
        J = _jacobian_block(template, y)
        J[..., 0, 1], J[..., 0, 2] = k2 * y3, k2 * y2
        J[..., 1, 1], J[..., 1, 2] = -k2 * y3 - 2.0 * k3 * y2, -k2 * y2
        J[..., 2, 1] = 2.0 * k3 * y2
        return J

    return OdeProblem(
        name="rober",
        m=3,
        x0=0.0,
        x_end=40.0,
        alpha=np.array([1.0, 0.0, 0.0]),
        rhs=rhs,
        ode_jacobian=jac,
        params={"k1": k1, "k2": k2, "k3": k3},
    )


def _hires() -> OdeProblem:
    template = np.zeros((8, 8))
    template[0, 0], template[0, 1], template[0, 2] = -1.71, 0.43, 8.32
    template[1, 0], template[1, 1] = 1.71, -8.75
    template[2, 2], template[2, 3], template[2, 4] = -10.03, 0.43, 0.035
    template[3, 1], template[3, 2], template[3, 3] = 8.32, 1.71, -1.12
    template[4, 4], template[4, 5], template[4, 6] = -1.745, 0.43, 0.43
    template[5, 3], template[5, 4], template[5, 6] = 0.69, 1.71, 0.69
    template[6, 6], template[7, 6] = -1.81, 1.81

    def rhs(x, y):
        y1, y2, y3, y4, y5, y6, y7, y8 = _components(y)
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
        ).T

    def jac(x, y):
        *_, y6, _, y8 = _components(y)
        J = _jacobian_block(template, y)
        J[..., 5, 5], J[..., 5, 7] = -280.0 * y8 - 0.43, -280.0 * y6
        J[..., 6, 5], J[..., 6, 7] = 280.0 * y8, 280.0 * y6
        J[..., 7, 5], J[..., 7, 7] = -280.0 * y8, -280.0 * y6
        return J

    return OdeProblem(
        name="hires",
        m=8,
        x0=0.0,
        x_end=321.8122,
        alpha=np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0057]),
        rhs=rhs,
        ode_jacobian=jac,
    )


_ALIASES = {"pr": "prothero_robinson", "vdp": "van_der_pol"}

BENCHMARK_NAMES = ("prothero_robinson", "van_der_pol", "rober", "hires")

DEFAULT_LAMBDA = -1.0e5
DEFAULT_MU = 1000.0


def canonical_name(name: str) -> str:
    """Full name of a benchmark problem given its name or alias, any case.

    ``"pr"`` and ``"vdp"`` stand for ``prothero_robinson`` and
    ``van_der_pol``.  Unknown names raise ValueError.
    """
    key = str(name).lower()
    key = _ALIASES.get(key, key)
    if key not in BENCHMARK_NAMES:
        raise ValueError(f"unknown benchmark problem {name!r}; choose from {BENCHMARK_NAMES}")
    return key


def make_benchmark(name: str, **params) -> OdeProblem:
    """Build one of the four benchmark problems by name or alias.

    ``prothero_robinson`` accepts ``lam`` (default -1e5, must be negative) and
    ``van_der_pol`` accepts ``mu`` (default 1000, must be positive); the other
    problems take no parameters.  Unknown names or parameters, and parameter
    values that are not real numbers or out of range, raise ValueError.
    """
    key = canonical_name(name)
    if key == "prothero_robinson":
        return _prothero_robinson(_only_param(key, params, "lam", DEFAULT_LAMBDA))
    if key == "van_der_pol":
        return _van_der_pol(_only_param(key, params, "mu", DEFAULT_MU))
    _reject_extra(key, params)
    return _rober() if key == "rober" else _hires()


def _only_param(key: str, params: dict, name: str, default: float) -> float:
    """Problem key's one parameter, as a float; raises ValueError for any other."""
    value = params.pop(name, default)
    _reject_extra(key, params)
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a real number, got {value!r}") from None


def _reject_extra(name: str, params: dict) -> None:
    if params:
        raise ValueError(f"unexpected parameters for {name!r}: {sorted(params)}")

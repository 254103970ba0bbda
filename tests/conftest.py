import threading

import numpy as np
import pytest

from rpnn_ode import StepControl, make_benchmark, sdirk_solve


def fd_jacobian(fn, x, step=None):
    """Central-difference Jacobian of fn: R^k -> R^l at x (oracle helper)."""
    x = np.asarray(x, dtype=float)
    fx = np.asarray(fn(x), dtype=float)
    out = np.empty((fx.size, x.size))
    for k in range(x.size):
        d = step if step is not None else 6e-6 * max(1.0, abs(x[k]))
        xp = x.copy()
        xp[k] += d
        xm = x.copy()
        xm[k] -= d
        out[:, k] = (np.asarray(fn(xp), dtype=float) - np.asarray(fn(xm), dtype=float)) / (2 * d)
    return out


def fd_scalar(fn, x, step=1e-6):
    """Central difference of a scalar function (oracle helper)."""
    return (fn(x + step) - fn(x - step)) / (2 * step)


@pytest.fixture(scope="session")
def reference_cache():
    """Memoized tight-tolerance implicit reference trajectories per problem."""
    cache = {}

    def get(name, tol=1e-12, **params):
        key = (name, tol, tuple(sorted(params.items())))
        if key not in cache:
            problem = make_benchmark(name, **params)
            cache[key] = sdirk_solve(problem, StepControl(abs_tol=tol, rel_tol=tol))
        return cache[key]

    return get


@pytest.fixture
def thread_starts(monkeypatch):
    """The threads started through ``threading.Thread`` during the test, in order."""
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Counted)
    return started

"""The one-BLAS-thread pin around the Gauss-Newton SVDs (leastnorm._svd).

The pin must not change the weights of a benchmark solve, must hand the caller
back the thread count it had, and must apply to every SVD whatever its size.
"""

import sys
import threading

import numpy as np
import pytest

from rpnn_ode import (
    NumericError,
    SolverConfig,
    effective_rank,
    leastnorm,
    make_benchmark,
    solve_adaptive,
    truncated_pinv_solve,
)

THREADS = leastnorm._openblas_threads()
needs_openblas = pytest.mark.skipif(
    THREADS is None, reason="numpy is not linked to OpenBLAS, so there is no thread count to pin"
)


@pytest.fixture
def two_threads():
    """OpenBLAS set to 2 threads, so that the pin to 1 is observable."""
    get, set_ = THREADS
    before = get()
    set_(2)
    yield get, set_
    set_(before)


def _no_openblas(monkeypatch):
    monkeypatch.setattr(leastnorm, "_openblas_threads", lambda: None)


@needs_openblas
@pytest.mark.parametrize("name, params", [
    ("hires", {}), ("rober", {}), ("vdp", {"mu": 100}), ("pr", {"lam": -1e5}),
])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pinned_solve_is_bitwise_the_threaded_one(monkeypatch, two_threads, name, params, seed):
    problem = make_benchmark(name, **params)
    config = SolverConfig(tol=1e-6, seed=seed)
    pinned = solve_adaptive(problem, config)
    _no_openblas(monkeypatch)
    threaded = solve_adaptive(problem, config)
    assert np.array_equal(pinned.knots, threaded.knots)
    assert len(pinned.segments) == len(threaded.segments)
    for a, b in zip(pinned.segments, threaded.segments):
        assert np.array_equal(a.weights, b.weights)


@needs_openblas
def test_thread_count_is_restored_after_every_call(two_threads):
    get, _ = two_threads
    rng = np.random.default_rng(0)
    a = rng.normal(size=(40, 80))
    truncated_pinv_solve(a, rng.normal(size=40))
    assert get() == 2
    effective_rank(a)
    assert get() == 2
    solve_adaptive(make_benchmark("rober"), SolverConfig(tol=1e-3, seed=0))
    assert get() == 2


@needs_openblas
def test_thread_count_is_restored_when_the_svd_fails(monkeypatch, two_threads):
    get, _ = two_threads
    seen = []

    def failing_svd(a, full_matrices=True):
        seen.append(get())
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", failing_svd)
    with pytest.raises(NumericError, match="SVD failed"):
        truncated_pinv_solve(np.eye(3), np.ones(3))
    with pytest.raises(NumericError, match="SVD failed"):
        effective_rank(np.eye(3))
    assert seen == [1, 1]
    assert get() == 2


@needs_openblas
@pytest.mark.parametrize("shape", [(10, 20), (20, 10), (160, 320), (961, 1922), (4000, 481)])
def test_every_svd_runs_on_one_thread(monkeypatch, two_threads, shape):
    get, _ = two_threads
    seen = []

    def recording_svd(a, full_matrices=True):
        seen.append(get())
        return None, np.ones(min(a.shape)), None

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    assert effective_rank(np.zeros(shape)) == min(shape)
    assert seen == [1]
    assert get() == 2


@needs_openblas
def test_concurrent_solves_restore_the_thread_count(two_threads):
    get, _ = two_threads
    rng = np.random.default_rng(1)
    a = rng.normal(size=(60, 120))
    b = rng.normal(size=60)
    expected = truncated_pinv_solve(a, b)
    results = []

    def work():
        for _ in range(40):
            results.append(np.array_equal(truncated_pinv_solve(a, b), expected))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work) for _ in range(6)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert len(results) == 6 * 40 and all(results)
    assert get() == 2


def test_solves_without_openblas(monkeypatch):
    _no_openblas(monkeypatch)
    x = truncated_pinv_solve(np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([2.0, 3.0]))
    assert np.allclose(x, [2.0, 0.0], atol=1e-14)
    assert effective_rank(np.diag([3.0, 2.0, 0.0])) == 2
    problem = make_benchmark("pr", lam=-1e5)
    sol = solve_adaptive(problem, SolverConfig(tol=1e-6, seed=0))
    xs = np.linspace(problem.x0, problem.x_end, 101)
    assert np.max(np.abs(sol(xs) - problem.analytic(xs))) <= 1e-6

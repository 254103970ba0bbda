import math

import numpy as np
import pytest

from rpnn_ode import (
    OdeProblem,
    PiecewiseSolution,
    SeededRng,
    SegmentSolution,
    SolverConfig,
    StepUnderflowError,
    assemble_residual,
    eval_solution,
    gauss_newton_train,
    make_benchmark,
    make_grid,
    sample_basis,
    solve_adaptive,
    trial_eval,
)
from rpnn_ode import solver as solver_module
from rpnn_ode.errors import NumericError
from rpnn_ode.solver import TrainResult, assemble_jacobian, truncated_pinv_solve

DECAY = OdeProblem(name="decay", m=1, x0=0.0, x_end=1.0, alpha=np.array([1.0]),
                   rhs=lambda x, y: -y, ode_jacobian=lambda x, y: -np.eye(1))

FLAT = OdeProblem(name="flat", m=1, x0=0.0, x_end=1.0, alpha=np.array([0.7]),
                  rhs=lambda x, y: np.zeros(1), ode_jacobian=lambda x, y: np.zeros((1, 1)))


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(h=1)
    with pytest.raises(ValueError):
        SolverConfig(n=0)
    with pytest.raises(ValueError):
        SolverConfig(tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(maxiter=0)
    with pytest.raises(ValueError):
        SolverConfig(min_width_factor=0.0)
    with pytest.warns(UserWarning):
        SolverConfig(h=10, n=20)


def test_gauss_newton_solves_scalar_decay():
    basis = sample_basis(0.0, 1.0, 40, 1, SeededRng(0))
    seg = SegmentSolution(basis=basis, alpha=np.array([1.0]), weights=np.zeros((40, 1)), x_stop=1.0)
    grid = make_grid(0.0, 1.0, 20)
    result = gauss_newton_train(DECAY, seg, grid, tol=1e-8, maxiter=4)
    assert result.converged
    assert result.final_residual_norm <= 1e-8
    assert abs(trial_eval(seg, 1.0)[0] - math.exp(-1.0)) <= 1e-6


def test_gauss_newton_converged_at_entry_returns_immediately():
    basis = sample_basis(0.0, 1.0, 6, 1, SeededRng(1))
    seg = SegmentSolution(basis=basis, alpha=FLAT.alpha.copy(), weights=np.zeros((6, 1)), x_stop=1.0)
    result = gauss_newton_train(FLAT, seg, make_grid(0.0, 1.0, 4), tol=1e-10, maxiter=4)
    assert result.converged
    assert result.iterations == 0
    assert result.final_residual_norm == 0.0
    assert np.all(seg.weights == 0.0)


def test_gauss_newton_non_finite_is_non_convergence():
    bad = OdeProblem(name="nan", m=1, x0=0.0, x_end=1.0, alpha=np.zeros(1),
                     rhs=lambda x, y: np.array([np.nan]),
                     ode_jacobian=lambda x, y: np.array([[np.nan]]))
    basis = sample_basis(0.0, 1.0, 6, 1, SeededRng(2))
    seg = SegmentSolution(basis=basis, alpha=np.zeros(1), weights=np.zeros((6, 1)), x_stop=1.0)
    result = gauss_newton_train(bad, seg, make_grid(0.0, 1.0, 4), tol=1e-6, maxiter=4)
    assert not result.converged
    assert not np.isfinite(result.final_residual_norm)


@pytest.mark.parametrize("maxiter", [1, 2, 4])
def test_failing_attempt_skips_the_step_that_cannot_converge(maxiter, monkeypatch):
    calls = []

    def counting(*args):
        calls.append(1)
        return assemble_jacobian(*args)

    monkeypatch.setattr(solver_module, "assemble_jacobian", counting)
    basis = sample_basis(0.0, 1.0, 40, 1, SeededRng(0))
    seg = SegmentSolution(basis=basis, alpha=np.array([1.0]), weights=np.zeros((40, 1)), x_stop=1.0)
    result = gauss_newton_train(DECAY, seg, make_grid(0.0, 1.0, 20), tol=1e-300, maxiter=maxiter)
    assert not result.converged
    assert len(calls) == maxiter - 1
    assert result.iterations == maxiter - 1
    assert np.isfinite(result.final_residual_norm) and result.final_residual_norm > 1e-300


def train_every_iteration(problem, seg, grid, tol, maxiter, truncation):
    """Oracle: the Gauss-Newton loop that also takes the last, futile step."""
    h, m = seg.basis.h, seg.basis.m
    try:
        resid = assemble_residual(problem, seg, grid)
    except NumericError:
        return TrainResult(False, np.inf, 0)
    err = float(np.linalg.norm(resid))
    if not np.isfinite(err):
        return TrainResult(False, np.inf, 0)
    if err <= tol:
        return TrainResult(True, err, 0)
    for iteration in range(1, maxiter + 1):
        try:
            jac = assemble_jacobian(problem, seg, grid)
            step = -truncated_pinv_solve(jac, resid, truncation)
        except NumericError:
            return TrainResult(False, err, iteration - 1)
        delta = step.reshape(m, h).T
        seg.weights += delta
        try:
            new_resid = assemble_residual(problem, seg, grid)
            new_err = float(np.linalg.norm(new_resid))
        except NumericError:
            new_resid, new_err = None, np.inf
        if err <= tol:
            if not new_err <= err:
                seg.weights -= delta
                new_err = err
            return TrainResult(True, new_err, iteration)
        if not np.isfinite(new_err):
            return TrainResult(False, np.inf, iteration)
        resid, err = new_resid, new_err
    return TrainResult(False, err, maxiter)


def test_solve_adaptive_is_bitwise_the_every_iteration_loop(monkeypatch):
    rob = make_benchmark("rober")
    config = SolverConfig(tol=1e-6, seed=0)
    sol = solve_adaptive(rob, config)
    results = []

    def recording(*args):
        results.append(train_every_iteration(*args))
        return results[-1]

    monkeypatch.setattr(solver_module, "gauss_newton_train", recording)
    oracle = solve_adaptive(rob, config)
    assert any(not r.converged for r in results)  # the skipped step was reached
    assert np.array_equal(sol.knots, oracle.knots)
    assert sol.iterations == oracle.iterations
    for a, b in zip(sol.segments, oracle.segments, strict=True):
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.alpha, b.alpha)
        assert np.array_equal(a.basis.biases, b.basis.biases)


def test_constant_problem_solves_in_one_segment():
    sol = solve_adaptive(FLAT, SolverConfig(tol=1e-8, seed=0))
    assert sol.n_segments == 1
    assert sol.total_points == 20
    assert sol.iterations == (0,)
    xs = np.linspace(0.0, 1.0, 50)
    assert np.all(eval_solution(sol, xs) == 0.7)


def test_prothero_robinson_low_tolerance_point_budget():
    pr = make_benchmark("pr", lam=-1e5)
    sol = solve_adaptive(pr, SolverConfig(tol=1e-3, seed=0))
    assert 20 <= sol.total_points <= 80
    grid = np.linspace(0.0, 2 * math.pi, 3000)
    assert np.abs(eval_solution(sol, grid)[:, 0] - np.sin(grid)).max() <= 1e-5


def test_prothero_robinson_adaptive_solve_matches_sine():
    pr = make_benchmark("pr", lam=-1e5)
    sol = solve_adaptive(pr, SolverConfig(tol=1e-6, seed=0))
    grid = np.linspace(0.0, 2 * math.pi, 3000)
    assert np.abs(eval_solution(sol, grid)[:, 0] - np.sin(grid)).max() <= 1e-6


def test_eval_solution_basics():
    rob = make_benchmark("rober")
    sol = solve_adaptive(rob, SolverConfig(tol=1e-3, seed=0))
    assert np.all(eval_solution(sol, rob.x0) == rob.alpha)
    assert eval_solution(sol, 1.0).shape == (3,)
    xs = np.linspace(0.0, 40.0, 101)
    batch = eval_solution(sol, xs)
    assert batch.shape == (101, 3)
    for k in (0, 17, 64, 100):
        assert np.all(batch[k] == eval_solution(sol, xs[k]))
    with pytest.raises(ValueError):
        eval_solution(sol, -0.1)
    with pytest.raises(ValueError):
        eval_solution(sol, 40.0001)
    assert np.all(eval_solution(sol, 40.0) == trial_eval(sol.segments[-1], 40.0))


def test_continuity_at_knots_is_exact():
    rob = make_benchmark("rober")
    sol = solve_adaptive(rob, SolverConfig(tol=1e-3, seed=0))
    assert sol.n_segments >= 2
    for left, right in zip(sol.segments[:-1], sol.segments[1:]):
        handoff = trial_eval(left, left.x_stop)
        assert np.all(handoff == right.alpha)
        assert np.all(trial_eval(right, right.x_start) == handoff)
        assert np.all(eval_solution(sol, left.x_stop) == handoff)


def test_converged_segments_satisfy_tolerance_post_hoc():
    rob = make_benchmark("rober")
    config = SolverConfig(tol=1e-3, seed=0)
    sol = solve_adaptive(rob, config)
    for seg in sol.segments:
        grid = make_grid(seg.x_start, seg.x_stop - seg.x_start, config.n)
        resid = assemble_residual(rob, seg, grid)
        assert np.linalg.norm(resid) <= config.tol


def test_solution_tiles_domain_exactly():
    hires = make_benchmark("hires")
    sol = solve_adaptive(hires, SolverConfig(tol=1e-3, seed=3))
    assert sol.segments[0].x_start == hires.x0
    assert sol.segments[-1].x_stop == hires.x_end
    for left, right in zip(sol.segments[:-1], sol.segments[1:]):
        assert left.x_stop == right.x_start
    assert sol.total_points == 20 * sol.n_segments
    assert len(sol.iterations) == sol.n_segments


def test_deterministic_under_fixed_seed():
    pr = make_benchmark("pr", lam=-1e5)
    a = solve_adaptive(pr, SolverConfig(tol=1e-6, seed=11))
    b = solve_adaptive(pr, SolverConfig(tol=1e-6, seed=11))
    assert a.n_segments == b.n_segments
    for sa, sb in zip(a.segments, b.segments):
        assert np.all(sa.weights == sb.weights)
        assert np.all(sa.basis.biases == sb.basis.biases)
        assert np.all(sa.basis.inv_sq_widths == sb.basis.inv_sq_widths)
        assert np.all(sa.alpha == sb.alpha)
    c = solve_adaptive(pr, SolverConfig(tol=1e-6, seed=12))
    assert any(np.any(sc.weights != sa.weights)
               for sc, sa in zip(c.segments, a.segments)) or c.n_segments != a.n_segments


def test_step_underflow_raises_with_diagnostics():
    bad = OdeProblem(name="hopeless", m=1, x0=0.0, x_end=1.0, alpha=np.zeros(1),
                     rhs=lambda x, y: np.array([np.nan]),
                     ode_jacobian=lambda x, y: np.array([[np.nan]]))
    with pytest.raises(StepUnderflowError) as info:
        solve_adaptive(bad, SolverConfig(tol=1e-6, seed=0, min_width_factor=2.0**-6))
    assert info.value.abscissa == 0.0
    assert "underflow" in str(info.value)


@pytest.mark.parametrize("tol", [1e-3, 1e-6])
@pytest.mark.parametrize("name,params", [
    ("prothero_robinson", {"lam": -1e5}),
    ("van_der_pol", {"mu": 10.0}),
    ("rober", {}),
    ("hires", {}),
])
def test_no_step_underflow_on_benchmarks(name, params, tol):
    problem = make_benchmark(name, **params)
    sol = solve_adaptive(problem, SolverConfig(tol=tol, seed=0))
    assert sol.segments[-1].x_stop == problem.x_end


def test_rober_conservation():
    rob = make_benchmark("rober")
    sol = solve_adaptive(rob, SolverConfig(tol=1e-6, seed=0))
    xs = np.linspace(0.0, 40.0, 1000)
    totals = eval_solution(sol, xs).sum(axis=1)
    assert np.abs(totals - 1.0).max() <= 1e-6


def random_piecewise(seed, m, h=12, n_segments=5):
    """A contiguous piecewise solution of random segments (no training)."""
    rng = SeededRng(seed)
    knots = np.concatenate([[0.0], np.cumsum(rng.uniform(0.2, 1.5, size=(n_segments,)))])
    segments = []
    for start, stop in zip(knots[:-1], knots[1:]):
        segments.append(SegmentSolution(
            basis=sample_basis(start, stop - start, h, m, rng),
            alpha=rng.uniform(-1.0, 1.0, size=(m,)),
            weights=rng.uniform(-3.0, 3.0, size=(h, m)), x_stop=stop))
    return PiecewiseSolution(problem_name="random", m=m, x0=0.0, x_end=knots[-1],
                             segments=tuple(segments), iterations=(0,) * n_segments,
                             total_points=0)


def masked_broadcast_eval(sol, pts):
    """Oracle: one boolean mask per segment, broadcast (k, h, m) formula."""
    idx = np.searchsorted(sol.knots[1:], pts, side="left")
    out = np.empty((len(pts), sol.m))
    for k in np.unique(idx):
        seg, mask = sol.segments[k], idx == k
        ramp = (pts[mask] - seg.x_start)[:, None]
        out[mask] = seg.alpha + ramp * (seg.basis.gaussians(pts[mask]) * seg.weights).sum(axis=1)
    return out


@pytest.mark.parametrize("m", [1, 2, 3, 8])
def test_eval_solution_is_bitwise_the_masked_broadcast_formula(m):
    sol = random_piecewise(40 + m, m)
    for count in (0, 1, 2, 1000):
        xs = np.linspace(sol.x0, sol.x_end, count)
        assert np.array_equal(eval_solution(sol, xs), masked_broadcast_eval(sol, xs))
    assert np.array_equal(eval_solution(sol, sol.knots), masked_broadcast_eval(sol, sol.knots))


@pytest.mark.parametrize("m", [1, 2, 3, 8])
def test_eval_solution_any_order_is_the_sorted_result_permuted(m):
    sol = random_piecewise(60 + m, m)
    rng = np.random.default_rng(m)
    xs = np.concatenate([rng.uniform(sol.x0, sol.x_end, 500), sol.knots, sol.knots[1:4]])
    shuffled = xs[rng.permutation(len(xs))]
    order = np.argsort(shuffled, kind="stable")
    assert np.array_equal(eval_solution(sol, shuffled)[order], eval_solution(sol, shuffled[order]))


def test_eval_solution_rejects_nan():
    sol = random_piecewise(7, 2)
    with pytest.raises(ValueError):
        eval_solution(sol, math.nan)
    with pytest.raises(ValueError):
        eval_solution(sol, np.array([0.5, math.nan, 1.0]))

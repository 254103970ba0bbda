import dataclasses
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from oracles import broadcast_eval, paper_driver
from rpnn_ode import (
    OdeProblem,
    PiecewiseSolution,
    SeededRng,
    SegmentSolution,
    SolverConfig,
    StepControl,
    StepUnderflowError,
    assemble_residual,
    dense_eval,
    dp45_solve,
    eval_solution,
    gauss_newton_train,
    make_benchmark,
    make_grid,
    sample_basis,
    sdirk_solve,
    solve_adaptive,
    trial_eval,
)
from rpnn_ode import solver as solver_module
from rpnn_ode import trial as trial_module
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
    # a string or None used to raise TypeError from the comparison
    for value in (math.inf, math.nan, "1e-3", None, [1e-3], 1e-3j):
        with pytest.raises(ValueError, match="tol"):
            SolverConfig(tol=value)
    assert SolverConfig(tol=np.float32(0.5)).tol == 0.5
    for name in ("h", "n", "maxiter"):
        for value in (40.0, 2.5, np.float64(20.0), "20", None):
            with pytest.raises(ValueError, match=name):
                SolverConfig(**{name: value})
    config = SolverConfig(h=np.int64(40), n=np.int32(20), maxiter=np.uint8(4))
    assert (config.h, config.n, config.maxiter) == (40, 20, 4)
    assert all(type(v) is int for v in (config.h, config.n, config.maxiter))
    with pytest.warns(UserWarning):
        SolverConfig(h=10, n=20)


def test_config_rejects_a_seed_that_is_not_an_integer():
    # 1.5 used to solve bit for bit as seed 1; None and NaN failed only in the solve
    for value in (1.5, 1.0, math.nan, None, "1", np.float64(2.0)):
        with pytest.raises(ValueError, match="seed"):
            SolverConfig(seed=value)
    config = SolverConfig(seed=np.int64(7))
    assert config.seed == 7 and type(config.seed) is int


def test_config_is_frozen_and_replace_checks_again():
    config = SolverConfig(tol=1e-3)
    for name, value in (("seed", 1.5), ("tol", -1.0)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(config, name, value)
    assert (config.seed, config.tol) == (0, 1e-3)
    with pytest.raises(ValueError, match="tolerance"):
        dataclasses.replace(config, tol=-1.0)
    with pytest.raises(ValueError, match="seed"):
        dataclasses.replace(config, seed=1.5)
    assert dataclasses.replace(config, seed=np.int64(3)).seed == 3


def test_array_dataclasses_compare_and_hash_by_identity():
    # == of two equal but separately built instances used to raise numpy's
    # "truth value of an array is ambiguous", and hash() "unhashable type"
    ctrl = StepControl(1e-6, 1e-6)
    build = {
        "problem": lambda: make_benchmark("hires"),
        "solution": lambda: solve_adaptive(make_benchmark("pr"), SolverConfig(tol=1e-3)),
        "segment": lambda: solve_adaptive(make_benchmark("pr"), SolverConfig(tol=1e-3)).segments[0],
        "basis": lambda: sample_basis(0.0, 1.0, 4, 3, SeededRng(5)),
        "trajectory": lambda: dp45_solve(make_benchmark("hires"), ctrl),
    }
    for kind, make in build.items():
        first, second = make(), make()
        assert first == first and first != second, kind
        assert {first: kind, second: kind}[first] == kind
        assert hash(first) != hash(second), kind
    # the scalar-only dataclasses keep value equality
    assert SolverConfig(tol=1e-3) == SolverConfig(tol=1e-3)
    assert hash(StepControl(1e-6, 1e-3)) == hash(StepControl(1e-6, 1e-3))
    assert TrainResult(True, 0.5, 2) == TrainResult(True, 0.5, 2)


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


@pytest.mark.parametrize("failing", ["assemble_jacobian", "truncated_pinv_solve"])
def test_a_converged_iterate_is_kept_when_its_refinement_step_cannot_be_computed(failing,
                                                                                 monkeypatch):
    # one step solves the linear decay to rounding; the refinement step's second call raises
    calls = []
    original = getattr(solver_module, failing)

    def second_call_raises(*args):
        calls.append(1)
        if len(calls) == 2:
            raise NumericError("refinement step failed")
        return original(*args)

    monkeypatch.setattr(solver_module, failing, second_call_raises)
    basis = sample_basis(0.0, 1.0, 40, 1, SeededRng(0))
    seg = SegmentSolution(basis=basis, alpha=np.array([1.0]), weights=np.zeros((40, 1)), x_stop=1.0)
    grid = make_grid(0.0, 1.0, 20)
    result = gauss_newton_train(DECAY, seg, grid, tol=1e-8, maxiter=4)
    assert len(calls) == 2
    assert result.converged and result.iterations == 1
    assert result.final_residual_norm == float(np.linalg.norm(assemble_residual(DECAY, seg, grid)))
    assert result.final_residual_norm <= 1e-8
    assert abs(trial_eval(seg, 1.0)[0] - math.exp(-1.0)) <= 1e-6


def test_a_rejected_refinement_puts_back_the_converged_weights_exactly(monkeypatch):
    # a refinement step of -1e17 is rejected; subtracting it again would round
    # the weights to multiples of 16 (7.08 off, a residual of 65.9)
    calls, converged = [], []
    basis = sample_basis(0.0, 1.0, 40, 1, SeededRng(0))
    seg = SegmentSolution(basis=basis, alpha=np.array([1.0]), weights=np.zeros((40, 1)), x_stop=1.0)

    def huge_refinement(a, b):
        calls.append(1)
        step = truncated_pinv_solve(a, b)
        if len(calls) < 2:
            return step
        converged.append(seg.weights.copy())
        return np.full_like(step, 1e17)

    monkeypatch.setattr(solver_module, "truncated_pinv_solve", huge_refinement)
    grid = make_grid(0.0, 1.0, 20)
    result = gauss_newton_train(DECAY, seg, grid, tol=1e-8, maxiter=4)
    assert len(calls) == 2 and result.converged and result.iterations == 2
    assert seg.weights.tobytes() == converged[0].tobytes()
    assert result.final_residual_norm == float(np.linalg.norm(assemble_residual(DECAY, seg, grid)))
    assert result.final_residual_norm <= 1e-8


def test_an_initial_residual_whose_norm_overflows_is_non_convergence():
    # every residual entry is finite, but the sum of their squares is not
    huge = OdeProblem(name="huge", m=1, x0=0.0, x_end=1.0, alpha=np.zeros(1),
                      rhs=lambda x, y: np.full_like(y, 1e300),
                      ode_jacobian=lambda x, y: np.zeros((1, 1)))
    basis = sample_basis(0.0, 1.0, 6, 1, SeededRng(2))
    seg = SegmentSolution(basis=basis, alpha=np.zeros(1), weights=np.zeros((6, 1)), x_stop=1.0)
    grid = make_grid(0.0, 1.0, 4)
    assert np.all(np.isfinite(assemble_residual(huge, seg, grid)))
    with np.errstate(over="ignore"):
        result = gauss_newton_train(huge, seg, grid, tol=1e-6, maxiter=4)
    assert result == TrainResult(False, np.inf, 0)
    assert np.all(seg.weights == 0.0)


@pytest.mark.parametrize("bad_residual", ["raises", "overflowing norm"])
def test_a_residual_that_fails_after_a_step_is_non_convergence(bad_residual, monkeypatch):
    # the first residual is fine; the one after the first step raises
    # NumericError or has finite entries whose norm overflows
    calls = []

    def second_call_fails(problem, seg, grid):
        calls.append(1)
        resid = assemble_residual(problem, seg, grid)
        if len(calls) == 1:
            return resid
        if bad_residual == "raises":
            raise NumericError("non-finite residual")
        return np.full_like(resid, 1e300)

    monkeypatch.setattr(solver_module, "assemble_residual", second_call_fails)
    basis = sample_basis(0.0, 1.0, 40, 1, SeededRng(0))
    seg = SegmentSolution(basis=basis, alpha=np.array([1.0]), weights=np.zeros((40, 1)), x_stop=1.0)
    with np.errstate(over="ignore"):
        result = gauss_newton_train(DECAY, seg, make_grid(0.0, 1.0, 20), tol=1e-8, maxiter=4)
    assert len(calls) == 2
    assert result == TrainResult(False, np.inf, 1)

def train_every_iteration(problem, seg, grid, tol, maxiter):
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
            step = -truncated_pinv_solve(jac, resid)
        except NumericError:
            return TrainResult(err <= tol, err, iteration - 1)
        delta = step.reshape(m, h).T
        before = seg.weights.copy()
        seg.weights += delta
        try:
            new_resid = assemble_residual(problem, seg, grid)
            new_err = float(np.linalg.norm(new_resid))
        except NumericError:
            new_resid, new_err = None, np.inf
        if err <= tol:
            if not new_err <= err:
                seg.weights[...] = before
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


def test_step_underflow_raises_with_diagnostics(monkeypatch):
    # finite at the initial point only, so that the start-up check passes
    bad = OdeProblem(name="hopeless", m=1, x0=0.0, x_end=1.0, alpha=np.zeros(1),
                     rhs=lambda x, y: np.where(np.asarray(x)[..., None] > 0.0, np.nan, 0.0),
                     ode_jacobian=lambda x, y: np.array([[np.nan]]))
    monkeypatch.setattr(solver_module, "_MIN_WIDTH_FACTOR", 2.0**-6)
    with pytest.raises(StepUnderflowError) as info:
        solve_adaptive(bad, SolverConfig(tol=1e-6, seed=0))
    assert info.value.abscissa == 0.0
    assert "underflow" in str(info.value)
    assert f"floor {2.0**-6!r}" in str(info.value)


@pytest.mark.parametrize("rhs", [
    None,  # the built-in van der Pol squares y1 = 1e160 on Python floats: OverflowError
    lambda x, y: np.full(np.shape(y), np.nan),
    lambda x, y: np.full(np.shape(y), -np.inf),
])
def test_an_rhs_not_finite_at_the_initial_point_raises_numeric_error(rhs):
    problem = dataclasses.replace(make_benchmark("vdp", mu=1), alpha=np.array([1e160, 0.0]))
    if rhs is not None:
        problem = dataclasses.replace(problem, rhs=rhs)
    with pytest.raises(NumericError, match="rhs not finite at the initial point of 'van_der_pol"):
        solve_adaptive(problem, SolverConfig(tol=1e-6, seed=0))


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


def count_training_calls(monkeypatch) -> list:
    """Count the solver's residual, Jacobian and pinv-solve calls; returns a list
    that gets (iterations, residuals, Jacobians, solves) of each training run."""
    counts = dict.fromkeys(("assemble_residual", "assemble_jacobian", "truncated_pinv_solve"), 0)

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    for name in counts:
        monkeypatch.setattr(solver_module, name, counted(name, getattr(solver_module, name)))
    train, attempts = solver_module.gauss_newton_train, []

    def recording(*args):
        before = dict(counts)
        result = train(*args)
        attempts.append((result.iterations, *(counts[k] - before[k] for k in counts)))
        return result

    monkeypatch.setattr(solver_module, "gauss_newton_train", recording)
    return attempts


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name,params", [
    ("prothero_robinson", {"lam": -1e5}),
    ("van_der_pol", {"mu": 10.0}),
    ("rober", {}),
    ("hires", {}),
])
def test_solve_adaptive_is_bitwise_the_paper_driver(name, params, seed, monkeypatch):
    problem = make_benchmark(name, **params)
    attempts = count_training_calls(monkeypatch)
    for tol in (1e-3, 1e-6):
        attempts.clear()
        config = SolverConfig(tol=tol, seed=seed)
        sol, oracle = solve_adaptive(problem, config), paper_driver(problem, config)
        # each attempt assembles one residual before its steps and one after
        # each, and one Jacobian and one SVD per step
        assert len(attempts) >= sol.n_segments
        for iterations, residuals, jacobians, solves in attempts:
            assert (residuals, jacobians, solves) == (iterations + 1, iterations, iterations)
        assert np.array_equal(sol.knots, oracle.knots)
        assert sol.iterations == oracle.iterations and sol.total_points == oracle.total_points
        for seg, ref in zip(sol.segments, oracle.segments):
            for a, b in ((seg.weights, ref.weights), (seg.alpha, ref.alpha),
                         (seg.basis.centers, ref.basis.centers),
                         (seg.basis.biases, ref.basis.biases),
                         (seg.basis.inv_sq_widths, ref.basis.inv_sq_widths)):
                assert a.tobytes() == b.tobytes()


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
        mask = idx == k
        out[mask] = broadcast_eval(sol.segments[k], pts[mask])
    return out


@pytest.mark.parametrize("m", [1, 2, 3, 8])
def test_eval_solution_is_bitwise_the_masked_broadcast_formula(m):
    sol = random_piecewise(40 + m, m)
    for count in (0, 1, 2, 1000):
        xs = np.linspace(sol.x0, sol.x_end, count)
        assert np.array_equal(eval_solution(sol, xs), masked_broadcast_eval(sol, xs))
    # descending, on the knots, and sorted with repeats
    grid = np.linspace(sol.x0, sol.x_end, 999)
    for xs in (grid[::-1], sol.knots, sol.knots[::-1], np.repeat(sol.knots, 3),
               np.sort(np.concatenate([grid, sol.knots, sol.knots[1:-1]]))):
        assert np.array_equal(eval_solution(sol, xs), masked_broadcast_eval(sol, xs))
    # a knot belongs to the segment on its left, x0 to the first
    for k, x in enumerate(sol.knots):
        seg = sol.segments[max(k - 1, 0)]
        assert np.array_equal(eval_solution(sol, x), broadcast_eval(seg, np.array([x]))[0])
    # unsorted, with repeated points and knot abscissae
    rng = np.random.default_rng(m)
    xs = np.concatenate([rng.uniform(sol.x0, sol.x_end, 700), sol.knots, sol.knots[2:4]])
    xs = np.concatenate([xs, xs[:50]])[rng.permutation(len(xs) + 50)]
    assert np.array_equal(eval_solution(sol, xs), masked_broadcast_eval(sol, xs))
    for x in (sol.x0, sol.knots[2], sol.x_end):
        assert np.array_equal(eval_solution(sol, x), masked_broadcast_eval(sol, np.array([x]))[0])


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


@pytest.mark.parametrize("shape", [(2, 3), (1, 1), (3, 1, 2)])
def test_eval_solution_rejects_multidimensional_points(shape):
    sol = random_piecewise(7, 2)
    pts = np.linspace(sol.x0, sol.x_end, math.prod(shape)).reshape(shape)
    with pytest.raises(ValueError, match="1-d"):
        eval_solution(sol, pts)


@pytest.mark.parametrize("method", ["rpnn", "dp45", "sdirk"])
def test_both_evaluators_take_lists_and_views_and_reject_arrays_outside_the_domain(method):
    # empty arrays, scalars, repeats, x_end and NaN have their own tests per evaluator
    if method == "rpnn":
        sol = random_piecewise(90, 2)
        knots = sol.knots

        def evaluate(x):
            return eval_solution(sol, x)
    else:
        solve = dp45_solve if method == "dp45" else sdirk_solve
        traj = solve(make_benchmark("vdp", mu=1.0), StepControl(1e-6, 1e-6))
        knots = traj.abscissae

        def evaluate(x):
            return dense_eval(traj, x)
    lo, hi = knots[0], knots[-1]
    ends = evaluate(np.array([lo, hi]))
    for x, row in ((lo, 0), (hi, 1)):
        assert np.array_equal(evaluate(np.array(x)), ends[row])  # a 0-d array is a scalar
        assert np.array_equal(evaluate([x]), ends[[row]])
    assert evaluate([]).shape == (0, 2)
    grid = np.linspace(lo, hi, 1001)
    want = evaluate(grid)
    assert np.array_equal(evaluate(list(grid)), want)
    assert np.array_equal(evaluate(grid[::-3]), want[::-3])  # a descending strided view
    for bad in ([lo - 1e-3, hi], [hi, hi + 1e-3, lo], [hi, math.nan, lo]):
        with pytest.raises(ValueError, match="must lie in"):
            evaluate(bad)


def test_piecewise_solution_rejects_a_component_count_its_segments_do_not_have():
    sol = random_piecewise(8, 2)
    fields = dict(problem_name="random", x0=sol.x0, x_end=sol.x_end, segments=sol.segments,
                  iterations=sol.iterations, total_points=0)
    assert PiecewiseSolution(m=2, **fields).m == 2
    with pytest.raises(ValueError, match="m=3"):
        PiecewiseSolution(m=3, **fields)


def test_piecewise_solution_rejects_one_iteration_count_per_segment_too_few_or_many():
    sol = random_piecewise(9, 2)
    fields = dict(problem_name="random", m=2, x0=sol.x0, x_end=sol.x_end,
                  segments=sol.segments, total_points=0)
    for iterations in ((1,), (0,) * (sol.n_segments + 1)):
        with pytest.raises(ValueError, match="iteration counts"):
            PiecewiseSolution(iterations=iterations, **fields)


def test_piecewise_solution_rejects_no_segments_a_wrong_domain_and_a_gap():
    sol = random_piecewise(10, 2)
    fields = dict(problem_name="random", m=2, x0=sol.x0, x_end=sol.x_end, segments=sol.segments,
                  iterations=sol.iterations, total_points=0)
    with pytest.raises(ValueError, match="at least one segment"):
        PiecewiseSolution(**{**fields, "segments": (), "iterations": ()})
    for bounds in ({"x0": sol.x0 - 0.5}, {"x_end": sol.x_end + 0.5}):
        with pytest.raises(ValueError, match="do not span the stated domain"):
            PiecewiseSolution(**{**fields, **bounds})
    first, *rest = sol.segments
    width = first.x_stop - first.x_start - 0.1  # a gap of 0.1 before the second segment
    shrunk = SegmentSolution(basis=sample_basis(first.x_start, width, 12, 2, SeededRng(0)),
                             alpha=first.alpha, weights=first.weights, x_stop=first.x_start + width)
    with pytest.raises(ValueError, match="not contiguous"):
        PiecewiseSolution(**{**fields, "segments": (shrunk, *rest)})


@pytest.fixture(scope="module")
def solved():
    """solved(name, seed): the default-config solve of a benchmark, made once."""
    cache = {}
    params = {"hires": {}, "rober": {}, "vdp": {"mu": 100.0}, "pr": {}}

    def get(name, seed):
        if (name, seed) not in cache:
            cache[name, seed] = solve_adaptive(make_benchmark(name, **params[name]),
                                               SolverConfig(seed=seed))
        return cache[name, seed]

    return get


@pytest.mark.parametrize("name", ["hires", "rober", "vdp", "pr"])
def test_eval_solution_of_the_benchmarks_is_bitwise_the_masked_broadcast_formula(solved, name):
    for seed in range(4):
        sol = solved(name, seed)
        xs = np.linspace(sol.x0, sol.x_end, 20_001)
        assert np.array_equal(eval_solution(sol, xs), masked_broadcast_eval(sol, xs)), seed
        rng = np.random.default_rng(seed)
        ys = np.concatenate([xs, sol.knots, xs[::7]])
        ys = ys[rng.permutation(len(ys))]
        assert np.array_equal(eval_solution(sol, ys), masked_broadcast_eval(sol, ys)), seed


def test_concurrent_evaluations_each_get_the_serial_bits():
    sols = [random_piecewise(70 + m, m, n_segments=3) for m in (1, 2, 3, 8)]
    xs = [np.linspace(sol.x0, sol.x_end, 60_000) for sol in sols]
    serial = [eval_solution(sol, x) for sol, x in zip(sols, xs)]
    start = threading.Barrier(len(sols))
    results = [[] for _ in sols]

    def evaluate(i):
        start.wait()
        for _ in range(5):
            results[i].append(eval_solution(sols[i], xs[i]))

    threads = [threading.Thread(target=evaluate, args=(i,)) for i in range(len(sols))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for want, got in zip(serial, results):
        assert len(got) == 5 and all(np.array_equal(want, values) for values in got)


def _peak_bytes_of_evaluation(sol, xs) -> int:
    tracemalloc.start()
    try:
        eval_solution(sol, xs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_dense_evaluation_of_hires_stays_within_its_scratch_budget(solved):
    sol = solved("hires", 0)
    xs = np.linspace(sol.x0, sol.x_end, 150_001)
    block_bytes = 8 * trial_module._BLOCK_VALUES
    budget = (8 * sol.m * len(xs)  # the result
              + 2 * block_bytes  # one node's slab and the sum over nodes
              + len(xs)  # the order check, one byte per point
              + 2**20)
    peak = _peak_bytes_of_evaluation(sol, xs)
    assert peak < budget, (peak, budget)


def shuffled_scratch_budget(sol, n: int) -> int:
    """Bytes an evaluation of n unsorted points may hold: the output, the sort
    and one block of rows beside the blocks of ``trial``, with 512 KiB to spare."""
    block_bytes = 8 * trial_module._BLOCK_VALUES
    rows = trial_module._block_len(sol.segments[0].basis.h, sol.m)
    return (8 * sol.m * n  # the result
            + 16 * n  # the sort order and the sorted points
            + n  # the order check, one byte per point
            + 8 * sol.m * rows  # one block of rows, scattered into the result
            + (1 if sol.m == 1 else 2) * block_bytes  # the (k, h) block; or a slab and the sum
            + 2**19)


def test_shuffled_dense_evaluation_of_hires_stays_within_its_scratch_budget(solved):
    sol = solved("hires", 0)
    xs = np.linspace(sol.x0, sol.x_end, 150_001)
    np.random.default_rng(0).shuffle(xs)
    budget = shuffled_scratch_budget(sol, len(xs))
    peak = _peak_bytes_of_evaluation(sol, xs)
    assert peak < budget, (peak, budget)


def test_shuffled_dense_evaluation_of_one_segment_holds_one_block_of_its_values():
    sol = solve_adaptive(make_benchmark("pr", lam=-1.0), SolverConfig(tol=1e-3, seed=0))
    assert sol.n_segments == 1
    xs = np.linspace(sol.x0, sol.x_end, 150_001)
    np.random.default_rng(0).shuffle(xs)
    budget = shuffled_scratch_budget(sol, len(xs))
    peak = _peak_bytes_of_evaluation(sol, xs)
    assert peak < budget, (peak, budget)

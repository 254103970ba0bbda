import math

import numpy as np
import pytest

from rpnn_ode import (
    OdeProblem,
    StepControl,
    StepUnderflowError,
    dense_eval,
    dp45_solve,
    make_benchmark,
    sdirk_solve,
)
from rpnn_ode.integrators import (
    _DP_B,
    _DP_E,
    _MAX_NEWTON,
    _SD_A,
    _SD_B,
    _SD_BHAT,
    _SD_C,
    _SD_E,
    _SD_GAMMA,
    Trajectory,
    _check_underflow,
    _grow_factor,
    _initial_step,
    _scaled_error,
)

DECAY = OdeProblem(name="decay", m=1, x0=0.0, x_end=1.0, alpha=np.array([1.0]),
                   rhs=lambda x, y: -y, ode_jacobian=lambda x, y: -np.eye(1))

OSCILLATOR = OdeProblem(
    name="harmonic", m=2, x0=0.0, x_end=2 * math.pi, alpha=np.array([1.0, 0.0]),
    rhs=lambda x, y: np.array([y[1], -y[0]]),
    ode_jacobian=lambda x, y: np.array([[0.0, 1.0], [-1.0, 0.0]]),
)

FLAT = OdeProblem(name="flat", m=1, x0=0.0, x_end=1.0, alpha=np.array([2.0]),
                  rhs=lambda x, y: np.zeros(1), ode_jacobian=lambda x, y: np.zeros((1, 1)))


def test_dp45_tableau_order_conditions():
    c = np.array([0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
    assert abs(_DP_B.sum() - 1.0) <= 1e-14
    assert abs(_DP_B @ c - 0.5) <= 1e-14
    assert abs(_DP_B @ c**2 - 1 / 3) <= 1e-14
    assert abs(_DP_B @ c**3 - 1 / 4) <= 1e-14
    assert abs(_DP_B @ c**4 - 1 / 5) <= 1e-14
    # the error weights annihilate order-4 trees but not order-5 ones
    assert abs(_DP_E.sum()) <= 1e-14
    assert abs(_DP_E @ c) <= 1e-14
    assert np.abs(_DP_E).max() > 0


def test_sdirk_tableau_order_and_stability():
    c = _SD_C
    a = _SD_A
    b = _SD_B
    conds = [
        (b.sum(), 1.0), (b @ c, 1 / 2), (b @ c**2, 1 / 3), (b @ (a @ c), 1 / 6),
        (b @ c**3, 1 / 4), (b @ (c * (a @ c)), 1 / 8), (b @ (a @ c**2), 1 / 12),
        (b @ (a @ (a @ c)), 1 / 24),
    ]
    for got, want in conds:
        assert abs(got - want) <= 1e-13
    # embedded weights: order 3 but not order 4
    bh = _SD_BHAT
    for got, want in ((bh.sum(), 1.0), (bh @ c, 1 / 2), (bh @ c**2, 1 / 3), (bh @ (a @ c), 1 / 6)):
        assert abs(got - want) <= 1e-13
    assert abs(bh @ c**3 - 1 / 4) > 1e-3
    # L-stability: R(inf) = 1 - b^T A^{-1} 1 = 0
    assert abs(1.0 - b @ np.linalg.solve(a, np.ones(5))) <= 1e-12
    # stiffly accurate
    assert np.all(a[-1] == b)


def test_dp45_decay_accuracy():
    traj = dp45_solve(DECAY, StepControl(1e-10, 1e-10))
    assert abs(traj.states[-1, 0] - math.exp(-1.0)) <= 1e-8
    assert traj.abscissae[0] == 0.0 and traj.abscissae[-1] == 1.0


def test_dp45_harmonic_oscillator_period():
    traj = dp45_solve(OSCILLATOR, StepControl(1e-10, 1e-10))
    assert np.abs(traj.states[-1] - OSCILLATOR.alpha).max() <= 1e-7


def test_dp45_flat_problem_exact_and_cheap():
    traj = dp45_solve(FLAT, StepControl(1e-8, 1e-8))
    assert np.all(traj.states == 2.0)
    assert traj.n_steps <= 30


def test_dp45_fixed_step_order_is_five():
    # forced constant step: halving h must shrink the global error by ~2^5
    errors = {}
    for steps in (64, 128):
        ctrl = StepControl(abs_tol=1e6, rel_tol=1e6, initial_step=1.0 / steps,
                           min_factor=1.0, max_factor=1.0)
        traj = dp45_solve(DECAY, ctrl)
        assert traj.n_steps == steps
        errors[steps] = abs(traj.states[-1, 0] - math.exp(-1.0))
    ratio = errors[64] / errors[128]
    assert 16.0 <= ratio <= 64.0


def test_sdirk_decay_accuracy():
    traj = sdirk_solve(DECAY, StepControl(1e-12, 1e-12))
    assert abs(traj.states[-1, 0] - math.exp(-1.0)) <= 1e-10


def test_sdirk_rober_conservation():
    rob = make_benchmark("rober")
    traj = sdirk_solve(rob, StepControl(1e-10, 1e-10))
    assert traj.abscissae[-1] == 40.0
    totals = traj.states.sum(axis=1)
    assert np.abs(totals - 1.0).max() <= 1e-8


@pytest.mark.parametrize("name,params", [
    ("prothero_robinson", {"lam": -1e5}),
    ("van_der_pol", {"mu": 100.0}),
    ("rober", {}),
    ("hires", {}),
])
def test_sdirk_completes_benchmarks_at_tight_tolerance(name, params, reference_cache):
    traj = reference_cache(name, **params)
    problem = make_benchmark(name, **params)
    assert traj.abscissae[0] == problem.x0
    assert traj.abscissae[-1] == problem.x_end
    assert np.all(np.isfinite(traj.states))


def solve_stage_every_iteration(problem, matrix, x_stage, beta, y_guess, h, scale):
    """Oracle: Newton-solve one stage with np.linalg.solve on every iteration."""
    y_stage = y_guess.copy()
    prev = np.inf
    for _ in range(_MAX_NEWTON):
        f_stage = np.asarray(problem.rhs(x_stage, y_stage), dtype=float)
        if not np.all(np.isfinite(f_stage)):
            return y_stage, False
        g = y_stage - h * _SD_GAMMA * f_stage - beta
        try:
            dy = np.linalg.solve(matrix, -g)
        except np.linalg.LinAlgError:
            return y_stage, False
        if not np.all(np.isfinite(dy)):
            return y_stage, False
        y_stage = y_stage + dy
        err = float(np.max(np.abs(dy) / scale))
        if err <= 1e-2:
            return y_stage, True
        if err > 2.0 * prev:
            return y_stage, False
        prev = err
    return y_stage, False


def sdirk_solve_every_iteration(problem, ctrl):
    """Oracle: sdirk_solve with the iteration matrix solved afresh each time."""
    x, y = problem.x0, problem.alpha.copy()
    f = np.asarray(problem.rhs(x, y), dtype=float)
    span = problem.x_end - problem.x0
    h = _initial_step(problem, f, ctrl, order=4)
    xs, ys, fs = [x], [y.copy()], [f.copy()]
    n_steps = n_rejected = 0
    k = np.empty((5, problem.m))
    while x < problem.x_end:
        _check_underflow(h, x, span)
        h = min(h, problem.x_end - x)
        last = h >= problem.x_end - x
        matrix = np.eye(problem.m) - h * _SD_GAMMA * problem.ode_jacobian(x, y)
        scale = ctrl.abs_tol + ctrl.rel_tol * np.abs(y)
        ok = True
        y_stage = y
        for s in range(5):
            beta = y + h * (_SD_A[s, :s] @ k[:s]) if s else y
            y_stage, ok = solve_stage_every_iteration(
                problem, matrix, x + _SD_C[s] * h, beta, y_stage, h, scale
            )
            if not ok:
                break
            k[s] = (y_stage - beta) / (h * _SD_GAMMA)
        if ok:
            y_new = y_stage
            err = _scaled_error(np.linalg.solve(matrix, h * (_SD_E @ k)), y, y_new, ctrl)
            ok = np.isfinite(err) and np.all(np.isfinite(y_new))
        if ok and err <= 1.0:
            x = problem.x_end if last else x + h
            y = y_new
            f = np.asarray(problem.rhs(x, y), dtype=float)
            xs.append(x)
            ys.append(y.copy())
            fs.append(f.copy())
            n_steps += 1
            h *= _grow_factor(err, ctrl, 0.25)
        else:
            n_rejected += 1
            h *= ctrl.min_factor if not ok else min(1.0, _grow_factor(err, ctrl, 0.25))
    return Trajectory(np.array(xs), np.array(ys), np.array(fs), n_steps, n_rejected)


@pytest.mark.parametrize("name,params", [("hires", {}), ("rober", {}), ("van_der_pol", {"mu": 1.0})])
def test_sdirk_matches_the_solve_every_iteration_oracle(name, params):
    problem = make_benchmark(name, **params)
    ctrl = StepControl(1e-10, 1e-10)
    traj = sdirk_solve(problem, ctrl)
    oracle = sdirk_solve_every_iteration(problem, ctrl)
    assert traj.n_steps == oracle.n_steps
    assert traj.n_rejected == oracle.n_rejected
    grid = np.linspace(problem.x0, problem.x_end, 20001)
    want = dense_eval(oracle, grid)
    assert (np.abs(dense_eval(traj, grid) - want) / (1.0 + np.abs(want))).max() <= 1e-10


def test_sdirk_recovers_from_a_singular_iteration_matrix():
    # h * gamma * lambda = 1 * 0.25 * 4 makes 1 - h*gamma*lambda exactly zero
    growth = OdeProblem(name="growth", m=1, x0=0.0, x_end=1.0, alpha=np.array([1.0]),
                        rhs=lambda x, y: 4.0 * y, ode_jacobian=lambda x, y: np.array([[4.0]]))
    traj = sdirk_solve(growth, StepControl(1e-8, 1e-8, initial_step=1.0))
    assert traj.n_rejected >= 1
    assert abs(traj.states[-1, 0] / math.exp(4.0) - 1.0) <= 1e-7


def test_dense_eval_exact_at_accepted_points():
    traj = dp45_solve(OSCILLATOR, StepControl(1e-8, 1e-8))
    for k in (0, 1, len(traj.abscissae) // 2, len(traj.abscissae) - 1):
        assert np.all(dense_eval(traj, traj.abscissae[k]) == traj.states[k])


def test_dense_eval_accuracy_between_points():
    tol = 1e-8
    traj = dp45_solve(DECAY, StepControl(tol, tol))
    xs = np.linspace(0.013, 0.987, 100)
    err = np.abs(dense_eval(traj, xs)[:, 0] - np.exp(-xs)).max()
    assert err <= 10 * tol


def test_hermite_fallback_accuracy_between_points():
    # implicit trajectories carry no extension; their smaller steps keep the
    # cubic Hermite error within the same 10x band
    tol = 1e-8
    traj = sdirk_solve(DECAY, StepControl(tol, tol))
    assert traj.extension is None
    xs = np.linspace(0.013, 0.987, 100)
    err = np.abs(dense_eval(traj, xs)[:, 0] - np.exp(-xs)).max()
    assert err <= 10 * tol


def test_dense_eval_reproduces_linear_solutions():
    linear = OdeProblem(name="line", m=1, x0=0.0, x_end=3.0, alpha=np.array([0.0]),
                        rhs=lambda x, y: np.array([2.0]),
                        ode_jacobian=lambda x, y: np.zeros((1, 1)))
    traj = dp45_solve(linear, StepControl(1e-6, 1e-6))
    xs = np.linspace(0.0, 3.0, 57)
    assert np.abs(dense_eval(traj, xs)[:, 0] - 2.0 * xs).max() <= 1e-12


def test_dense_eval_domain_validation_and_shapes():
    traj = dp45_solve(DECAY, StepControl(1e-8, 1e-8))
    assert dense_eval(traj, 0.5).shape == (1,)
    assert dense_eval(traj, np.array([0.1, 0.9])).shape == (2, 1)
    with pytest.raises(ValueError):
        dense_eval(traj, -0.01)
    with pytest.raises(ValueError):
        dense_eval(traj, 1.01)


def test_dense_eval_rejects_nan():
    traj = dp45_solve(DECAY, StepControl(1e-8, 1e-8))
    with pytest.raises(ValueError):
        dense_eval(traj, math.nan)
    with pytest.raises(ValueError):
        dense_eval(traj, np.array([0.1, math.nan, 0.9]))


def test_step_control_validation():
    with pytest.raises(ValueError):
        StepControl(abs_tol=0.0, rel_tol=1e-6)
    with pytest.raises(ValueError):
        StepControl(abs_tol=1e-6, rel_tol=-1.0)
    with pytest.raises(ValueError):
        StepControl(abs_tol=1e-6, rel_tol=1e-6, min_factor=2.0, max_factor=1.0)


def test_step_budget_exhaustion_raises():
    with pytest.raises(StepUnderflowError):
        dp45_solve(DECAY, StepControl(1e-10, 1e-10, max_steps=3))

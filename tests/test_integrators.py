import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from oracles import hermite_dense_eval, sdirk_stage_checking_every_pass, whole_array_dense_eval
from rpnn_ode import (
    OdeProblem,
    StepControl,
    StepUnderflowError,
    dense_eval,
    dp45_solve,
    make_benchmark,
    sdirk_solve,
)
from rpnn_ode import integrators
from rpnn_ode.errors import NumericError
from rpnn_ode.integrators import (
    _BLOCK_VALUES,
    _DP_A,
    _DP_B,
    _DP_C,
    _DP_D,
    _DP_E,
    _MAX_NEWTON,
    _MIN_FACTOR,
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


def test_dp45_fixed_step_order_is_five(monkeypatch):
    # forced constant step: halving h must shrink the global error by ~2^5
    monkeypatch.setattr(integrators, "_MIN_FACTOR", 1.0)
    monkeypatch.setattr(integrators, "_MAX_FACTOR", 1.0)
    errors = {}
    for steps in (64, 128):
        monkeypatch.setattr(integrators, "_initial_step", lambda *args, h=1.0 / steps: h)
        traj = dp45_solve(DECAY, StepControl(abs_tol=1e6, rel_tol=1e6))
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
    n_rejected = 0
    k = np.empty((5, problem.m))
    while x < problem.x_end:
        _check_underflow(h, x, span, None, ys, y)
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
            h *= _grow_factor(err, 0.25)
        else:
            n_rejected += 1
            h *= _MIN_FACTOR if not ok else min(1.0, _grow_factor(err, 0.25))
    return Trajectory(np.array(xs), np.array(ys), np.array(fs), n_rejected)


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


def test_sdirk_recovers_from_a_singular_iteration_matrix(monkeypatch):
    # h * gamma * lambda = 1 * 0.25 * 4 makes 1 - h*gamma*lambda exactly zero
    growth = OdeProblem(name="growth", m=1, x0=0.0, x_end=1.0, alpha=np.array([1.0]),
                        rhs=lambda x, y: 4.0 * y, ode_jacobian=lambda x, y: np.array([[4.0]]))
    monkeypatch.setattr(integrators, "_initial_step", lambda *args: 1.0)
    traj = sdirk_solve(growth, StepControl(1e-8, 1e-8))
    assert traj.n_rejected >= 1
    assert abs(traj.states[-1, 0] / math.exp(4.0) - 1.0) <= 1e-7


def test_dense_eval_exact_at_accepted_points():
    for solve in (dp45_solve, sdirk_solve):
        traj = solve(OSCILLATOR, StepControl(1e-8, 1e-8))
        for k in (0, 1, len(traj.abscissae) // 2, len(traj.abscissae) - 1):
            assert np.all(dense_eval(traj, traj.abscissae[k]) == traj.states[k])


def dp45_dense_weights() -> np.ndarray:
    """(7, 4) coefficients of theta^1..theta^4 in b_i(theta), expanded from the
    dense-output form: y(x0 + theta*h) = y0 + h * sum_i b_i(theta) k_i."""
    e1, e7 = np.eye(7)[0], np.eye(7)[6]
    r2, r3, r5 = _DP_B, e1 - _DP_B, _DP_D  # per unit h*k_i
    r4 = r2 - e7 - r3
    # theta*r2 + theta(1-theta)*r3 + theta^2(1-theta)*r4 + theta^2(1-theta)^2*r5
    return np.stack([r2 + r3, -r3 + r4 + r5, -r4 - 2 * r5, r5], axis=1)


def test_dp45_dense_output_meets_the_continuous_order_conditions():
    coef = dp45_dense_weights()
    a = np.zeros((7, 7))
    for s, row in enumerate(_DP_A):
        a[s + 1, : s + 1] = row
    c = _DP_C
    # sum_i b_i(theta) w_i = value * theta^power for each tree through order 4
    conditions = [(np.ones(7), 1, 1.0), (c, 2, 1 / 2), (c**2, 3, 1 / 3), (a @ c, 3, 1 / 6),
                  (c**3, 4, 1 / 4), (c * (a @ c), 4, 1 / 8), (a @ c**2, 4, 1 / 12),
                  (a @ (a @ c), 4, 1 / 24)]
    for w, power, value in conditions:
        want = np.zeros(4)
        want[power - 1] = value
        assert np.abs(w @ coef - want).max() <= 1e-14
    powers = np.arange(1.0, 5.0)
    assert np.abs(coef.sum(axis=1) - _DP_B).max() <= 1e-14  # b_i(1) = b_i
    assert np.abs(coef[:, 0] - np.eye(7)[0]).max() <= 1e-14  # b_i'(0) = delta_i1
    assert np.abs(coef @ powers - np.eye(7)[6]).max() <= 1e-14  # b_i'(1) = delta_i7
    assert _DP_D[1] == 0.0


def test_dp45_dense_output_is_within_half_the_tolerance_on_average():
    tol = 1e-6
    problem = make_benchmark("prothero_robinson", lam=-10.0)
    traj = dp45_solve(problem, StepControl(tol, tol))
    grid = np.linspace(problem.x0, problem.x_end, 20001)
    want = problem.analytic(grid)
    mixed = np.abs(dense_eval(traj, grid) - want) / (1.0 + np.abs(want))
    assert mixed.mean() <= 0.5 * tol


def test_dense_eval_accuracy_between_points():
    tol = 1e-8
    traj = dp45_solve(DECAY, StepControl(tol, tol))
    xs = np.linspace(0.013, 0.987, 100)
    err = np.abs(dense_eval(traj, xs)[:, 0] - np.exp(-xs)).max()
    assert err <= 10 * tol


def test_hermite_fallback_accuracy_between_points():
    # implicit trajectories carry no quartic term, so their dense output is
    # cubic Hermite; their smaller steps keep its error within the same 10x band
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


@pytest.mark.parametrize("shape", [(2, 2), (2, 3), (1, 1), (3, 1, 2)])
def test_dense_eval_rejects_multidimensional_points(shape):
    ctrl = StepControl(1e-8, 1e-8)
    pts = np.linspace(0.1, 0.9, math.prod(shape)).reshape(shape)
    for traj in (dp45_solve(DECAY, ctrl), sdirk_solve(DECAY, ctrl)):
        with pytest.raises(ValueError, match="1-d"):
            dense_eval(traj, pts)


def test_trajectory_rejects_too_few_or_non_finite_points():
    traj = dp45_solve(OSCILLATOR, StepControl(1e-6, 1e-6))
    fields = {f.name: getattr(traj, f.name) for f in dataclasses.fields(traj) if f.init}
    assert Trajectory(**fields).n_steps == traj.n_steps
    for n in (0, 1):
        with pytest.raises(ValueError, match="at least 2"):
            Trajectory(traj.abscissae[:n], traj.states[:n], traj.derivatives[:n], 0)
    n, m = traj.states.shape
    inconsistent = [("states", traj.states[:, :1]), ("states", traj.states[:-1]),
                    ("states", traj.states.ravel()), ("derivatives", traj.derivatives[:, :1]),
                    ("derivatives", traj.derivatives[1:]), ("abscissae", traj.abscissae[:, None]),
                    ("extension", traj.extension[:, None, :]), ("extension", traj.extension[1:]),
                    ("extension", np.zeros((n - 1, 4, m))), ("extension", np.zeros((n - 1, 1)))]
    for name, value in inconsistent:
        with pytest.raises(ValueError, match="shape"):
            Trajectory(**{**fields, name: value})
    assert Trajectory(**{**fields, "extension": None}).extension is None
    for name in ("abscissae", "states", "derivatives", "extension"):
        for bad in (math.nan, math.inf, -math.inf):
            values = fields[name].copy()
            values.flat[-1] = bad
            with pytest.raises(ValueError, match="finite"):
                Trajectory(**{**fields, name: values})


def test_trajectory_takes_list_fields_or_rejects_them_with_value_error():
    traj = dp45_solve(OSCILLATOR, StepControl(1e-6, 1e-6))
    fields = {f.name: getattr(traj, f.name) for f in dataclasses.fields(traj) if f.init}
    listed = Trajectory(**{**fields, **{name: fields[name].tolist() for name in
                                        ("abscissae", "states", "derivatives", "extension")}})
    pts = np.linspace(traj.abscissae[0], traj.abscissae[-1], 101)
    assert np.array_equal(dense_eval(listed, pts), dense_eval(traj, pts))
    ragged = fields["states"].tolist()
    ragged[1] = ragged[1][:1]
    for name, value in [("abscissae", 3.0), ("abscissae", [[0.0, 1.0]]), ("states", ragged),
                        ("derivatives", fields["derivatives"][:, 0].tolist()),
                        ("extension", fields["extension"][1:].tolist()), ("states", "x")]:
        with pytest.raises(ValueError):
            Trajectory(**{**fields, name: value})


def test_check_underflow_names_the_largest_state_reached():
    states = np.array([[1.0, -2.0], [-7.5, 3.0], [0.5, 0.25]])
    for tried, named in (([0.1, 0.2], "y1 = -7.5"), ([0.1, 9.0], "y2 = 9")):
        with pytest.raises(StepUnderflowError, match=named):
            _check_underflow(1e-30, 1.0, 1.0, 2.0, states, np.array(tried))
    _check_underflow(1e-3, 1.0, 1.0, 2.0, states, np.zeros(2))  # above the floor


# benchmark parameters and a cut span per problem: ROBER's dp45 step is
# stability-bound, so its span is cut to keep the solve short
CLASSICAL = {"hires": ({}, {}), "rober": ({}, {"x_end": 1.0}),
             "van_der_pol": ({"mu": 1.0}, {}), "prothero_robinson": ({"lam": -10.0}, {})}


@pytest.fixture(scope="module")
def classical_trajectory():
    """Memoized dp45 and sdirk trajectories of the four benchmark problems at 1e-6."""
    cache = {}

    def get(name, method):
        if (name, method) not in cache:
            params, span = CLASSICAL[name]
            problem = dataclasses.replace(make_benchmark(name, **params), **span)
            solve = dp45_solve if method == "dp45" else sdirk_solve
            cache[name, method] = solve(problem, StepControl(1e-6, 1e-6))
        return cache[name, method]

    return get


def assert_bitwise_the_oracle(traj, x):
    got, want = dense_eval(traj, x), whole_array_dense_eval(traj, x)
    assert got.shape == want.shape
    assert np.array_equal(got, want)


@pytest.mark.parametrize("method", ["dp45", "sdirk"])
@pytest.mark.parametrize("name", sorted(CLASSICAL))
def test_blocked_dense_eval_is_bitwise_the_whole_array_oracle(classical_trajectory, name, method):
    traj = classical_trajectory(name, method)
    t = traj.abscissae
    m = traj.states.shape[1]
    block = _BLOCK_VALUES // (4 * m)
    for n in (block - 1, block, block + 1, 2 * block + 1, 150_001):
        assert_bitwise_the_oracle(traj, np.linspace(t[0], t[-1], n))  # x_end in the last block
    rng = np.random.default_rng(len(t))
    pts = np.concatenate([rng.uniform(t[0], t[-1], 2 * block + 3), t, t[::5], [t[-1]] * 3])
    assert_bitwise_the_oracle(traj, pts[rng.permutation(len(pts))])
    assert_bitwise_the_oracle(traj, t)
    assert_bitwise_the_oracle(traj, np.empty(0))
    for x in (t[0], t[len(t) // 2], 0.5 * (t[0] + t[-1]), t[-1]):
        assert_bitwise_the_oracle(traj, x)
    assert np.array_equal(dense_eval(traj, t), traj.states)


@pytest.mark.parametrize("solve", [dp45_solve, sdirk_solve])
def test_a_step_holding_more_than_two_blocks_is_bitwise_the_oracle(solve):
    traj = solve(DECAY, StepControl(1e-3, 1e-3))
    grid = np.linspace(0.0, 1.0, 150_001)
    block = _BLOCK_VALUES // 4
    assert np.diff(np.searchsorted(grid, traj.abscissae)).max() > 2 * block
    assert_bitwise_the_oracle(traj, grid)
    assert_bitwise_the_oracle(traj, grid[::-1])


@pytest.mark.parametrize("method", ["dp45", "sdirk"])
def test_block_edges_on_abscissae_are_bitwise_the_oracle(classical_trajectory, method):
    traj = classical_trajectory("hires", method)
    t = traj.abscissae
    block = _BLOCK_VALUES // (4 * traj.states.shape[1])
    i, j = len(t) // 3, 2 * len(t) // 3
    # t[i] is the last point of the first block, t[j] the first of the third
    pts = np.concatenate([np.linspace(t[0], t[i], block), np.linspace(t[i], t[j], block + 1)[1:],
                          np.linspace(t[j], t[-1], block // 2)])
    assert pts[block - 1] == t[i] and pts[2 * block] == t[j] and pts[-1] == t[-1]
    assert_bitwise_the_oracle(traj, pts)
    assert_bitwise_the_oracle(traj, pts[::-1])


def test_theta_rounded_to_one_left_of_a_knot_takes_the_knot_state():
    # (1 - 2^-53) - (-1) rounds to 2 = 1 - (-1), so theta is 1.0 inside step 0
    rng = np.random.default_rng(0)
    traj = Trajectory(np.array([-1.0, 1.0, 2.0]), rng.normal(size=(3, 2)),
                      rng.normal(size=(3, 2)), 0)
    x = np.array([1.0 - 2.0**-53, 0.5, 2.0, 1.0 - 2.0**-53])
    assert np.array_equal(dense_eval(traj, x)[[0, 2, 3]], traj.states[[1, 2, 1]])
    assert_bitwise_the_oracle(traj, x)


@pytest.mark.parametrize("method", ["dp45", "sdirk"])
def test_shuffled_abscissae_with_repeats_give_the_states(classical_trajectory, method):
    traj = classical_trajectory("hires", method)
    t = traj.abscissae
    perm = np.random.default_rng(len(t)).integers(0, len(t), 3 * len(t))
    assert len(np.unique(perm)) < len(perm)
    assert np.array_equal(dense_eval(traj, t[perm]), traj.states[perm])
    assert_bitwise_the_oracle(traj, t[perm])


@pytest.mark.parametrize("name", sorted(CLASSICAL))
def test_sdirk_dense_eval_is_the_cubic_hermite_interpolant(classical_trajectory, name):
    traj = classical_trajectory(name, "sdirk")
    t = traj.abscissae
    rng = np.random.default_rng(len(t))
    pts = np.concatenate([np.linspace(t[0], t[-1], 20001), rng.uniform(t[0], t[-1], 5000), t])
    got, want = dense_eval(traj, pts), hermite_dense_eval(traj, pts)
    assert (np.abs(got - want) / (1.0 + np.abs(want))).max() <= 1e-15


@pytest.mark.parametrize("method", ["dp45", "sdirk"])
def test_trajectory_arrays_hold_only_the_accepted_points(classical_trajectory, method):
    traj = classical_trajectory("hires", method)
    n = traj.n_steps + 1
    assert traj.n_steps > 64  # the step store has grown past its first size
    assert traj.abscissae.shape == (n,) and traj.states.shape == traj.derivatives.shape == (n, 8)
    arrays = [traj.abscissae, traj.states, traj.derivatives]
    if traj.extension is not None:
        assert traj.extension.shape == (n - 1, 8)
        arrays.append(traj.extension)
    assert all(a.base is None for a in arrays)  # trimmed copies, not views of the store


def test_building_a_trajectory_allocates_less_than_one_step_array(classical_trajectory):
    traj = classical_trajectory("hires", "dp45")
    fields = {f.name: getattr(traj, f.name) for f in dataclasses.fields(traj) if f.init}
    tracemalloc.start()
    try:
        built = Trajectory(**fields)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the fields are kept as given, and only checked: dense output forms the
    # step terms r2..r5 per block instead of storing them with the trajectory
    assert all(getattr(built, name) is value for name, value in fields.items())
    assert peak < traj.n_steps * traj.states.shape[1] * 8


@pytest.mark.parametrize("method", ["dp45", "sdirk"])
def test_dense_eval_peak_memory_is_the_output_plus_one_block(classical_trajectory, method):
    traj = classical_trajectory("hires", method)
    grid = np.linspace(traj.abscissae[0], traj.abscissae[-1], 150_001)
    tracemalloc.start()
    try:
        out = dense_eval(traj, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the 9.6 MB output plus one 2,048-point block (about 1 MB of scratch); the
    # whole-array oracle peaks at 62 MB (sdirk) and 72 MB (dp45) on this grid
    assert peak < out.nbytes + 2**21


@pytest.mark.parametrize("method", ["dp45", "sdirk"])
def test_shuffled_dense_eval_peak_memory_is_the_output_plus_the_sort(classical_trajectory, method):
    traj = classical_trajectory("hires", method)
    grid = np.linspace(traj.abscissae[0], traj.abscissae[-1], 150_001)
    np.random.default_rng(0).shuffle(grid)
    tracemalloc.start()
    try:
        out = dense_eval(traj, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # beyond the sorted grid's budget: the sort order and the sorted points
    assert peak < out.nbytes + 16 * len(grid) + 2**21


def test_step_control_validation():
    with pytest.raises(ValueError):
        StepControl(abs_tol=0.0, rel_tol=1e-6)
    with pytest.raises(ValueError):
        StepControl(abs_tol=1e-6, rel_tol=-1.0)
    # None or a string used to raise TypeError from the comparison
    for tol in (math.inf, math.nan, None, "1e-3", [1e-3]):
        with pytest.raises(ValueError, match="abs_tol"):
            StepControl(abs_tol=tol, rel_tol=1e-6)
        with pytest.raises(ValueError, match="rel_tol"):
            StepControl(abs_tol=1e-6, rel_tol=tol)
    assert StepControl(np.float32(1e-3), 1).rel_tol == 1


def test_dp45_rejects_a_non_finite_stage_with_min_factor(monkeypatch):
    # the rhs is NaN at negative states; a first step of 10 puts stage 2 at
    # y = 1 + 10 * (1/5) * (-1) = -1, so that attempt fails outright
    stage_abscissae = []

    def rhs(x, y):
        stage_abscissae.append(x)
        return np.where(y < 0.0, np.nan, -y)

    decay = OdeProblem(name="decay", m=1, x0=0.0, x_end=10.0, alpha=np.array([1.0]),
                       rhs=rhs, ode_jacobian=lambda x, y: -np.eye(1))
    monkeypatch.setattr(integrators, "_initial_step", lambda *args: 10.0)
    monkeypatch.setattr(integrators, "_MIN_FACTOR", 0.5)
    traj = dp45_solve(decay, StepControl(1e-8, 1e-8))
    assert stage_abscissae[1] == 2.0  # first attempt, h = 10: stage 2 gives NaN
    assert stage_abscissae[2] == 1.0  # next attempt, h = 10 * _MIN_FACTOR
    assert traj.n_rejected >= 1
    assert traj.abscissae[-1] == 10.0
    assert abs(traj.states[-1, 0] - math.exp(-10.0)) <= 1e-7


def test_dp45_rejects_an_overflowing_stage_with_min_factor(monkeypatch):
    # as above, but the rhs raises OverflowError at negative states, as
    # Python-float arithmetic does where numpy gives inf
    stage_abscissae = []

    def rhs(x, y):
        stage_abscissae.append(x)
        if y[0] < 0.0:
            math.exp(1e3)
        return -y

    decay = OdeProblem(name="decay", m=1, x0=0.0, x_end=10.0, alpha=np.array([1.0]),
                       rhs=rhs, ode_jacobian=lambda x, y: -np.eye(1))
    monkeypatch.setattr(integrators, "_initial_step", lambda *args: 10.0)
    monkeypatch.setattr(integrators, "_MIN_FACTOR", 0.5)
    traj = dp45_solve(decay, StepControl(1e-8, 1e-8))
    assert stage_abscissae[1] == 2.0  # first attempt, h = 10: stage 2 overflows
    assert stage_abscissae[2] == 1.0  # next attempt, h = 10 * _MIN_FACTOR
    assert traj.n_rejected >= 1
    assert traj.abscissae[-1] == 10.0
    assert abs(traj.states[-1, 0] - math.exp(-10.0)) <= 1e-7


def test_an_overflowing_rhs_at_the_accepted_point_fails_the_step(monkeypatch):
    # the first step's accept overflows: nothing of it is kept, and h shrinks by _MIN_FACTOR
    steps = []

    def attempt(x, y, f, h):
        steps.append((x, h))
        y_new = y * math.exp(-h)

        def accept(x_new):
            if len(steps) == 1:
                math.exp(1e3)
            return -y_new, None

        return y_new, 0.5, accept

    monkeypatch.setattr(integrators, "_initial_step", lambda *args: 1.0)
    traj = integrators._integrate(DECAY, StepControl(1e-8, 1e-8), 4, attempt)
    assert steps[:2] == [(0.0, 1.0), (0.0, _MIN_FACTOR)]
    assert traj.n_rejected == 1
    assert traj.abscissae[:2].tolist() == [0.0, _MIN_FACTOR]


@pytest.mark.parametrize("solve", [dp45_solve, sdirk_solve])
def test_an_overflowing_rhs_at_the_initial_point_raises_numeric_error(solve):
    # the built-in van der Pol squares y1 on Python floats, which overflows
    # for |y1| > 1.3e154 where numpy would give inf
    huge = dataclasses.replace(make_benchmark("vdp", mu=1), alpha=np.array([1e160, 0.0]))
    with pytest.raises(NumericError, match="rhs not finite at the initial point"):
        solve(huge, StepControl(1e-6, 1e-6))


def test_an_overflowing_rhs_in_the_starting_step_raises_numeric_error():
    def rhs(x, y):
        if x > 0.0:
            math.exp(1e3)
        return -y

    decay = dataclasses.replace(DECAY, rhs=rhs)
    with pytest.raises(NumericError, match="rhs not finite at the initial point"):
        dp45_solve(decay, StepControl(1e-6, 1e-6))


def test_an_overflowing_sdirk_jacobian_raises_numeric_error():
    def jac(x, y):
        math.exp(1e3)

    with pytest.raises(NumericError, match="ode_jacobian not finite at x=0.0"):
        sdirk_solve(dataclasses.replace(DECAY, ode_jacobian=jac), StepControl(1e-6, 1e-6))


@pytest.mark.parametrize("bad", [math.nan, math.inf, np.finfo(float).max, OverflowError])
def test_sdirk_rejects_a_non_finite_newton_iteration_with_min_factor(monkeypatch, bad):
    # the rhs is bad on its first call in the first attempt and at negative
    # states; bad is NaN, +inf, finite but large enough that h*gamma*f
    # overflows, or an OverflowError raised as Python-float arithmetic does.
    # A first step of 10 fails on stage 1's first Newton iteration; the next,
    # of 5, moves stage 2's iterate below zero and fails on its second iteration
    stage_abscissae = []

    def rhs(x, y):
        stage_abscissae.append(x)
        is_bad = (y < 0.0) | (len(stage_abscissae) == 2)
        if bad is not OverflowError:
            return np.where(is_bad, bad, -y)
        if is_bad.any():
            math.exp(1e3)
        return -y

    decay = OdeProblem(name="decay", m=1, x0=0.0, x_end=10.0, alpha=np.array([1.0]),
                       rhs=rhs, ode_jacobian=lambda x, y: -np.eye(1))
    monkeypatch.setattr(integrators, "_initial_step", lambda *args: 10.0)
    monkeypatch.setattr(integrators, "_MIN_FACTOR", 0.5)
    with np.errstate(over="ignore", invalid="ignore"):
        traj = sdirk_solve(decay, StepControl(1e-8, 1e-8))
    # stages 1 and 2 sit at h/4 and 3h/4; each failed attempt halves h
    assert stage_abscissae[:7] == [0.0, 2.5, 1.25, 1.25, 3.75, 3.75, 0.625]
    assert traj.n_rejected >= 2
    assert traj.abscissae[-1] == 10.0
    assert abs(traj.states[-1, 0] - math.exp(-10.0)) <= 1e-7


@pytest.mark.parametrize("name,params", [("hires", {}), ("rober", {}), ("van_der_pol", {"mu": 1.0}),
                                         ("prothero_robinson", {})])
def test_sdirk_is_bitwise_the_stage_solve_checking_every_pass(monkeypatch, name, params):
    problem = make_benchmark(name, **params)
    ctrl = StepControl(1e-8, 1e-8)
    traj = sdirk_solve(problem, ctrl)
    monkeypatch.setattr(integrators, "_sdirk_stage", sdirk_stage_checking_every_pass)
    oracle = sdirk_solve(problem, ctrl)
    assert (traj.n_steps, traj.n_rejected) == (oracle.n_steps, oracle.n_rejected)
    for a, b in ((traj.abscissae, oracle.abscissae), (traj.states, oracle.states),
                 (traj.derivatives, oracle.derivatives)):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("solve", [dp45_solve, sdirk_solve])
def test_a_user_rhs_returning_a_list_integrates(solve):
    listed = dataclasses.replace(OSCILLATOR, rhs=lambda x, y: [y[1], -y[0]])
    traj = solve(listed, StepControl(1e-8, 1e-8))
    assert traj.abscissae[-1] == OSCILLATOR.x_end
    assert np.abs(traj.states[-1] - OSCILLATOR.alpha).max() <= 1e-6


def test_dp45_step_underflow_on_rober_names_the_diverged_state():
    # abs_tol = rel_tol = 1e-3 lets accepted steps carry y2 far below zero;
    # the state of ROBER stays in [0, 1]
    with pytest.raises(StepUnderflowError, match="largest state component") as info:
        dp45_solve(make_benchmark("rober"), StepControl(1e-3, 1e-3))
    assert abs(float(str(info.value).rsplit(" = ", 1)[1])) > 1e6
    assert 0.006 < info.value.abscissa < 0.0065
    assert info.value.last_error > 1.0
    assert f"last scaled error {info.value.last_error}" in str(info.value)


def test_step_budget_exhaustion_raises(monkeypatch):
    monkeypatch.setattr(integrators, "_MAX_STEPS", 3)
    with pytest.raises(StepUnderflowError, match="step budget 3 exhausted"):
        dp45_solve(DECAY, StepControl(1e-10, 1e-10))


def test_dp45_rejects_a_step_whose_value_overflows(monkeypatch):
    # the rhs is -y on [-1, 1] and half the largest double elsewhere, finite
    # everywhere; steps of 10 and 5 push the stages out of [-1, 1], so their
    # step value y + h * b.k overflows to inf (with a scaled error of 0)
    stage_abscissae = []
    big = np.finfo(float).max / 2

    def rhs(x, y):
        stage_abscissae.append(x)
        return np.where(np.abs(y) <= 1.0, -y, big)

    decay = OdeProblem(name="decay", m=1, x0=0.0, x_end=10.0, alpha=np.array([1.0]),
                       rhs=rhs, ode_jacobian=lambda x, y: -np.eye(1))
    monkeypatch.setattr(integrators, "_initial_step", lambda *args: 10.0)
    monkeypatch.setattr(integrators, "_MIN_FACTOR", 0.5)
    with np.errstate(over="ignore", invalid="ignore"):
        traj = dp45_solve(decay, StepControl(1e-8, 1e-8))
    # stage 2 of each attempt sits at h/5; six rhs calls per attempt
    assert stage_abscissae[1:14:6] == [2.0, 1.0, 0.5]
    assert traj.n_rejected >= 2
    assert traj.abscissae[-1] == 10.0
    assert abs(traj.states[-1, 0] - math.exp(-10.0)) <= 1e-7


def test_sdirk_rejects_a_step_whose_value_is_not_finite(monkeypatch):
    # the last stage of the first attempt converges to inf; that attempt is
    # rejected and the next starts from x0 with h * _MIN_FACTOR
    stage_abscissae = []
    original = integrators._sdirk_stage

    def stage(problem, inv, x_stage, beta, y_guess, h, scale):
        stage_abscissae.append(x_stage)
        y_stage, ok = original(problem, inv, x_stage, beta, y_guess, h, scale)
        return (np.full_like(y_stage, np.inf), True) if len(stage_abscissae) == 5 else (y_stage, ok)

    monkeypatch.setattr(integrators, "_sdirk_stage", stage)
    monkeypatch.setattr(integrators, "_initial_step", lambda *args: 10.0)
    monkeypatch.setattr(integrators, "_MIN_FACTOR", 0.5)
    with np.errstate(over="ignore", invalid="ignore"):
        traj = sdirk_solve(dataclasses.replace(DECAY, x_end=10.0), StepControl(1e-8, 1e-8))
    assert stage_abscissae[4] == _SD_C[4] * 10.0  # the last stage, at x + h
    assert stage_abscissae[5] == _SD_C[0] * 5.0
    assert traj.n_rejected >= 1
    assert traj.abscissae[-1] == 10.0
    assert abs(traj.states[-1, 0] - math.exp(-10.0)) <= 1e-7

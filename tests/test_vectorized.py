"""The point-vectorized problem callbacks and assembly against pointwise oracles.

A block evaluation of rhs/ode_jacobian must equal one call per point, and the
single-point path must equal the pointwise definitions it replaced, bit for
bit, so that the classical integrators are unchanged.  Van der Pol and ROBER
square a state component: on a single point ``y ** 2`` is libm ``pow``, on a
Python float as on a numpy scalar, while numpy computes it on a block as
``y * y``; the two may differ in the last bit, so their block values are
compared with a relative bound instead.
"""

import numpy as np
import pytest

import rpnn_ode.solver as solver_module
from oracles import (
    assemble_jacobian_loop,
    assemble_residual_loop,
    pointwise_benchmark,
)
from rpnn_ode import (
    OdeProblem,
    SeededRng,
    SegmentSolution,
    SolverConfig,
    assemble_jacobian,
    assemble_residual,
    eval_solution,
    make_benchmark,
    make_grid,
    sample_basis,
    solve_adaptive,
)

_STATE_RANGES = {
    "prothero_robinson": ([-2.0], [2.0]),
    "van_der_pol": ([-2.5, -15.0], [2.5, 15.0]),
    "rober": ([0.0, 0.0, 0.0], [1.0, 5e-5, 1.0]),
    "hires": ([0.0] * 8, [1.2] * 8),
}

# (name, params, block values bitwise equal to pointwise ones)
BENCHMARKS = [
    ("prothero_robinson", {"lam": -1e5}, True),
    ("van_der_pol", {"mu": 100.0}, False),
    ("rober", {}, False),
    ("hires", {}, True),
]


def mixed_gap(a, b):
    """Largest |a - b| / (1 + |b|)."""
    return float((np.abs(a - b) / (1.0 + np.abs(b))).max())


def random_points(problem, k, seed):
    rng = np.random.default_rng(seed)
    lo, hi = (np.array(v) for v in _STATE_RANGES[problem.name])
    return rng.uniform(problem.x0, problem.x_end, k), rng.uniform(lo, hi, (k, problem.m))


@pytest.mark.parametrize("name,params,bitwise", BENCHMARKS)
def test_block_callbacks_equal_pointwise_calls(name, params, bitwise):
    p = make_benchmark(name, **params)
    xs, ys = random_points(p, 2000, seed=11)
    f = p.rhs(xs, ys)
    jac = p.ode_jacobian(xs, ys)
    assert f.shape == (len(xs), p.m)
    assert np.broadcast_to(jac, (len(xs), p.m, p.m)).shape == (len(xs), p.m, p.m)
    f_points = np.array([p.rhs(x, y) for x, y in zip(xs, ys)])
    jac_points = np.array([p.ode_jacobian(x, y) for x, y in zip(xs, ys)])
    if bitwise:
        assert np.array_equal(f, f_points)
        assert np.array_equal(np.broadcast_to(jac, jac_points.shape), jac_points)
    else:
        assert mixed_gap(f, f_points) <= 1e-14
        assert mixed_gap(jac, jac_points) <= 1e-14


@pytest.mark.parametrize("name,params,bitwise", BENCHMARKS)
def test_single_point_path_is_bitwise_the_pointwise_definition(name, params, bitwise):
    p = make_benchmark(name, **params)
    old = pointwise_benchmark(name, **params)
    xs, ys = random_points(p, 500, seed=12)
    for x, y in zip(xs, ys):
        f = p.rhs(x, y)
        jac = p.ode_jacobian(x, y)
        assert f.shape == (p.m,) and jac.shape == (p.m, p.m)
        assert np.array_equal(f, old.rhs(x, y))
        assert np.array_equal(jac, old.ode_jacobian(x, y))


def random_segment(problem, seed, h=10, span_fraction=0.01):
    rng = SeededRng(seed)
    span = span_fraction * (problem.x_end - problem.x0)
    basis = sample_basis(problem.x0, span, h, problem.m, rng)
    weights = rng.uniform(-0.2, 0.2, size=(h, problem.m))
    seg = SegmentSolution(basis=basis, alpha=problem.alpha.copy(), weights=weights,
                          x_stop=problem.x0 + span)
    return seg, make_grid(problem.x0, span, 20)


@pytest.mark.parametrize("name,params,bitwise", BENCHMARKS)
def test_assembly_equals_the_per_point_loop(name, params, bitwise):
    p = make_benchmark(name, **params)
    old = pointwise_benchmark(name, **params)
    for seed in range(5):
        seg, grid = random_segment(p, 31 * seed + 1)
        resid, resid_loop = assemble_residual(p, seg, grid), assemble_residual_loop(old, seg, grid)
        jac, jac_loop = assemble_jacobian(p, seg, grid), assemble_jacobian_loop(old, seg, grid)
        if bitwise:
            assert np.array_equal(resid, resid_loop)
            assert np.array_equal(jac, jac_loop)
        else:
            scale = 1.0 + np.abs(resid_loop).max()
            assert np.abs(resid - resid_loop).max() <= 1e-14 * scale
            assert np.abs(jac - jac_loop).max() <= 1e-14 * (1.0 + np.abs(jac_loop).max())


@pytest.mark.parametrize("rhs, jac", [
    (lambda x, y: -y, lambda x, y: -np.eye(1)),  # constant Jacobian, unbroadcast
    (lambda x, y: np.array([2.5]), lambda x, y: np.zeros((1, 1))),  # constant rhs
    (lambda x, y: np.cos(x)[..., None] * y, lambda x, y: np.cos(x)[..., None, None]),
])
def test_broadcastable_callbacks_assemble_like_the_loop(rhs, jac):
    p = OdeProblem(name="custom", m=1, x0=0.0, x_end=1.0, alpha=np.array([1.0]),
                   rhs=rhs, ode_jacobian=jac)
    seg, grid = random_segment(p, 5, span_fraction=0.5)
    assert np.array_equal(assemble_residual(p, seg, grid), assemble_residual_loop(p, seg, grid))
    assert np.array_equal(assemble_jacobian(p, seg, grid), assemble_jacobian_loop(p, seg, grid))


def solve_with_loop_assembly(monkeypatch, problem, config):
    with monkeypatch.context() as patch:
        patch.setattr(solver_module, "assemble_residual", assemble_residual_loop)
        patch.setattr(solver_module, "assemble_jacobian", assemble_jacobian_loop)
        return solve_adaptive(problem, config)


@pytest.mark.parametrize("name,params", [("rober", {}), ("prothero_robinson", {"lam": -1e5})])
def test_solve_is_bitwise_the_per_point_assembly(monkeypatch, name, params):
    config = SolverConfig(tol=1e-6, seed=0)
    new = solve_adaptive(make_benchmark(name, **params), config)
    old = solve_with_loop_assembly(monkeypatch, pointwise_benchmark(name, **params), config)
    assert new.n_segments == old.n_segments
    for a, b in zip(new.segments, old.segments):
        assert (a.x_start, a.x_stop) == (b.x_start, b.x_stop)
        assert np.array_equal(a.alpha, b.alpha)
        assert np.array_equal(a.weights, b.weights)


def test_van_der_pol_solve_stays_within_the_rounding_bound(monkeypatch):
    # the block square rounds correctly where the single-point pow may not;
    # the solve keeps its segments and moves by far less than its tolerance
    config = SolverConfig(tol=1e-6, seed=0)
    new = solve_adaptive(make_benchmark("vdp", mu=100), config)
    old = solve_with_loop_assembly(monkeypatch, pointwise_benchmark("vdp", mu=100), config)
    assert new.n_segments == old.n_segments
    xs = np.linspace(new.x0, new.x_end, 20001)
    assert mixed_gap(eval_solution(new, xs), eval_solution(old, xs)) <= 1e-6

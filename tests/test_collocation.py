import math

import numpy as np
import pytest

from oracles import gaussians, residual_coords, residual_index, weight_coords, weight_index
from rpnn_ode import (
    NumericError,
    OdeProblem,
    SeededRng,
    SegmentSolution,
    assemble_jacobian,
    assemble_residual,
    make_benchmark,
    make_grid,
    sample_basis,
)


def test_make_grid_points():
    g = make_grid(0.0, 1.0, 4)
    expected = 0.5 * (1.0 - np.cos(np.pi * np.arange(1, 5) / 4))
    assert isinstance(g, np.ndarray) and g.dtype == np.float64
    assert np.allclose(g, expected, rtol=1e-15)
    assert g[-1] == 1.0
    assert np.all(np.diff(g) > 0)
    assert g[0] > 0.0  # left endpoint excluded


def test_make_grid_right_endpoint_exact():
    for x0, dx, n in ((0.0, 1.0, 4), (0.1, 0.73, 7), (-3.0, 6.29, 20), (2.0, 1e-6, 20)):
        g = make_grid(x0, dx, n)
        assert g[-1] == x0 + dx
        assert len(g) == n
        assert np.all(g > x0)


def test_make_grid_single_point():
    g = make_grid(1.0, 0.5, 1)
    assert np.all(g == np.array([1.5]))


def test_make_grid_validation():
    with pytest.raises(ValueError):
        make_grid(0.0, 1.0, 0)
    with pytest.raises(ValueError):
        make_grid(0.0, -1.0, 4)
    # 3.5 used to give a 4-point grid on the wrong fractions
    for n in (3.5, 4.0, np.float64(4.0), "4", None):
        with pytest.raises(ValueError, match="integer n"):
            make_grid(0.0, 1.0, n)
    assert np.array_equal(make_grid(0.0, 1.0, np.int64(4)), make_grid(0.0, 1.0, 4))
    # None and strings used to raise TypeError or numpy's UFuncTypeError
    for x_start in (None, "a", "0", math.nan, math.inf, 1j):
        with pytest.raises(ValueError, match="x_start"):
            make_grid(x_start, 1.0, 4)
    for delta_x in (None, "a", "1", 0.0, -1.0, math.nan, math.inf, 1j):
        with pytest.raises(ValueError, match="delta_x"):
            make_grid(0.0, delta_x, 4)
    assert np.array_equal(make_grid(np.float64(0.5), np.float32(1.0), 4), make_grid(0.5, 1.0, 4))
    assert np.array_equal(make_grid(0, 1, 4), make_grid(0.0, 1.0, 4))


@pytest.mark.parametrize("name,params", [("van_der_pol", {"mu": 10.0}), ("hires", {})])
def test_permuted_points_give_the_permuted_rows_bit_for_bit(name, params):
    p = make_benchmark(name, **params)
    h, n = 10, 7
    span = 0.01 * (p.x_end - p.x0)
    rng = SeededRng(11)
    basis = sample_basis(p.x0, span, h, p.m, rng)
    weights = rng.uniform(-0.2, 0.2, size=(h, p.m))
    seg = SegmentSolution(basis=basis, alpha=p.alpha.copy(), weights=weights, x_stop=p.x0 + span)
    grid = make_grid(p.x0, span, n)
    order = np.random.default_rng(3).permutation(n)
    # row i*n + k on the permuted points is row i*n + order[k] on the grid
    rows = (np.arange(p.m)[:, None] * n + order).ravel()
    resid, jac = assemble_residual(p, seg, grid), assemble_jacobian(p, seg, grid)
    assert np.array_equal(assemble_residual(p, seg, grid[order]), resid[rows])
    assert np.array_equal(assemble_jacobian(p, seg, grid[order]), jac[rows])


@pytest.mark.parametrize("points", [np.array([]), np.zeros((2, 3)), np.float64(0.5)])
def test_points_must_be_a_non_empty_1d_array(points):
    # no points would give an empty residual of norm 0, which passes any tol
    p = make_benchmark("vdp", mu=10.0)
    basis = sample_basis(0.0, 1.0, 4, 2, SeededRng(0))
    seg = SegmentSolution(basis=basis, alpha=p.alpha.copy(), weights=np.zeros((4, 2)), x_stop=1.0)
    with pytest.raises(ValueError, match="non-empty 1-d array"):
        assemble_residual(p, seg, points)
    with pytest.raises(ValueError, match="non-empty 1-d array"):
        assemble_jacobian(p, seg, points)


def test_index_bijections_round_trip():
    n, m, h = 5, 3, 7
    seen_q, seen_p = set(), set()
    for i in range(m):
        for l in range(n):
            q = residual_index(l, i, n)
            assert residual_coords(q, n) == (l, i)
            seen_q.add(q)
    for k in range(m):
        for j in range(h):
            p = weight_index(j, k, h)
            assert weight_coords(p, h) == (j, k)
            seen_p.add(p)
    assert seen_q == set(range(n * m))
    assert seen_p == set(range(m * h))


def _scalar_problem(fn, jac, m=1, name="custom"):
    return OdeProblem(name=name, m=m, x0=0.0, x_end=1.0, alpha=np.zeros(m), rhs=fn, ode_jacobian=jac)


def test_residual_of_decay_problem_with_zero_weights():
    # y' = -y, alpha = 1, W = 0: psi == 1, dpsi == 0, residual == 0 - (-1) = 1
    p = OdeProblem(name="decay", m=1, x0=0.0, x_end=1.0, alpha=np.array([1.0]),
                   rhs=lambda x, y: -y, ode_jacobian=lambda x, y: -np.eye(1))
    basis = sample_basis(0.0, 1.0, 6, 1, SeededRng(0))
    seg = SegmentSolution(basis=basis, alpha=np.array([1.0]), weights=np.zeros((6, 1)), x_stop=1.0)
    resid = assemble_residual(p, seg, make_grid(0.0, 1.0, 8))
    assert np.all(resid == 1.0)


def test_residual_index_layout():
    # constant rhs per component: with W = 0 the residual is -f, so the block
    # of component 2 starts at flat index n (component-major layout)
    c1, c2 = 2.5, -4.0
    p = OdeProblem(name="const", m=2, x0=0.0, x_end=1.0, alpha=np.zeros(2),
                   rhs=lambda x, y: np.array([c1, c2]),
                   ode_jacobian=lambda x, y: np.zeros((2, 2)))
    basis = sample_basis(0.0, 1.0, 5, 2, SeededRng(1))
    seg = SegmentSolution(basis=basis, alpha=np.zeros(2), weights=np.zeros((5, 2)), x_stop=1.0)
    resid = assemble_residual(p, seg, make_grid(0.0, 1.0, 3))
    assert np.all(resid[:3] == -c1)
    assert np.all(resid[3:] == -c2)
    assert resid[residual_index(0, 1, 3)] == -c2


@pytest.mark.parametrize("name,params", [
    ("prothero_robinson", {"lam": -1e5}),
    ("van_der_pol", {"mu": 10.0}),
    ("rober", {}),
    ("hires", {}),
])
def test_jacobian_matches_finite_differences(name, params):
    p = make_benchmark(name, **params)
    h, n = 10, 5
    for trial in range(3):
        rng = SeededRng(100 * trial + 7)
        span = 0.01 * (p.x_end - p.x0)
        basis = sample_basis(p.x0, span, h, p.m, rng)
        weights = rng.uniform(-0.2, 0.2, size=(h, p.m))
        seg = SegmentSolution(basis=basis, alpha=p.alpha.copy(), weights=weights, x_stop=p.x0 + span)
        grid = make_grid(p.x0, span, n)
        jac = assemble_jacobian(p, seg, grid)
        jac_fd = np.empty_like(jac)
        delta = 1e-5
        for k in range(p.m):
            for j in range(h):
                seg.weights[j, k] += delta
                fp = assemble_residual(p, seg, grid)
                seg.weights[j, k] -= 2 * delta
                fm = assemble_residual(p, seg, grid)
                seg.weights[j, k] += delta
                jac_fd[:, weight_index(j, k, h)] = (fp - fm) / (2 * delta)
        scale = max(np.abs(jac).max(), 1.0)
        assert np.abs(jac - jac_fd).max() <= 1e-6 * scale


def test_jacobian_kronecker_structure_for_decoupled_system():
    # f_i depends only on y_i: cross component blocks are exactly zero
    rates = np.array([-1.0, -2.0])
    p = OdeProblem(name="diag", m=2, x0=0.0, x_end=1.0, alpha=np.ones(2),
                   rhs=lambda x, y: rates * y,
                   ode_jacobian=lambda x, y: np.diag(rates))
    h, n = 4, 3
    basis = sample_basis(0.0, 1.0, h, 2, SeededRng(3))
    weights = SeededRng(4).uniform(-1.0, 1.0, (h, 2))
    seg = SegmentSolution(basis=basis, alpha=np.ones(2), weights=weights, x_stop=1.0)
    jac = assemble_jacobian(p, seg, make_grid(0.0, 1.0, n))
    # rows of component i, columns of component k != i
    assert np.all(jac[:n, h:] == 0.0)
    assert np.all(jac[n:, :h] == 0.0)


def test_jacobian_degenerate_grid_at_left_end():
    # with the single collocation point at x_start the ramp factor vanishes
    # and every entry reduces to the diagonal mixed-derivative term
    p = make_benchmark("vdp", mu=10.0)
    h = 4
    basis = sample_basis(0.0, 1.0, h, 2, SeededRng(5))
    weights = SeededRng(6).uniform(-1.0, 1.0, (h, 2))
    seg = SegmentSolution(basis=basis, alpha=p.alpha.copy(), weights=weights, x_stop=1.0)
    grid = np.array([0.0])
    jac = assemble_jacobian(p, seg, grid)
    g0 = gaussians(basis, 0.0)
    assert np.allclose(jac[0, :h], g0[:, 0], rtol=1e-14)
    assert np.all(jac[0, h:] == 0.0)
    assert np.all(jac[1, :h] == 0.0)
    assert np.allclose(jac[1, h:], g0[:, 1], rtol=1e-14)


def test_non_finite_rhs_raises_numeric_error():
    p = OdeProblem(name="nan", m=1, x0=0.0, x_end=1.0, alpha=np.zeros(1),
                   rhs=lambda x, y: np.array([np.nan]),
                   ode_jacobian=lambda x, y: np.array([[np.nan]]))
    basis = sample_basis(0.0, 1.0, 4, 1, SeededRng(0))
    seg = SegmentSolution(basis=basis, alpha=np.zeros(1), weights=np.zeros((4, 1)), x_stop=1.0)
    grid = make_grid(0.0, 1.0, 3)
    with pytest.raises(NumericError):
        assemble_residual(p, seg, grid)
    with pytest.raises(NumericError):
        assemble_jacobian(p, seg, grid)


def test_dimension_mismatch_rejected():
    p = make_benchmark("rober")
    basis = sample_basis(0.0, 1.0, 4, 2, SeededRng(0))
    seg = SegmentSolution(basis=basis, alpha=np.zeros(2), weights=np.zeros((4, 2)), x_stop=1.0)
    with pytest.raises(ValueError):
        assemble_residual(p, seg, make_grid(0.0, 1.0, 3))

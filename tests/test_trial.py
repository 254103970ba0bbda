import math

import numpy as np
import pytest

import rpnn_ode.trial as trial_module
from conftest import fd_scalar
from oracles import broadcast_dx, broadcast_eval, gaussians, trial_dw, trial_dxdw
from rpnn_ode import (
    OdeProblem,
    RbfSegmentBasis,
    SeededRng,
    SegmentSolution,
    assemble_residual,
    sample_basis,
    trial_eval,
)


def random_segment(seed, h=8, m=2, x_start=0.5, width=1.0, weight_scale=1.0):
    rng = SeededRng(seed)
    basis = sample_basis(x_start, width, h, m, rng)
    weights = rng.uniform(-weight_scale, weight_scale, size=(h, m))
    alpha = rng.uniform(-1.0, 1.0, size=(m,))
    return SegmentSolution(basis=basis, alpha=alpha, weights=weights, x_stop=x_start + width)


def dpsi_dx(seg, x):
    """dpsi/dx as residual assembly computes it: the residual of y' = 0.

    Same shape conventions as :func:`trial_eval`.
    """
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    m = seg.basis.m
    zero = OdeProblem(name="zero", m=m, x0=seg.x_start, x_end=seg.x_stop, alpha=np.zeros(m),
                      rhs=lambda x, y: np.zeros(m), ode_jacobian=lambda x, y: np.zeros((m, m)))
    out = assemble_residual(zero, seg, xs).reshape(m, len(xs)).T
    return out[0] if np.ndim(x) == 0 else out


def test_initial_condition_is_exact_for_any_weights():
    for seed in range(1000):
        seg = random_segment(seed, weight_scale=10.0 ** (seed % 5))
        assert np.all(trial_eval(seg, seg.x_start) == seg.alpha)


def test_zero_weights_give_constant_alpha():
    seg = random_segment(3)
    seg.weights[:] = 0.0
    xs = np.linspace(seg.x_start, seg.x_stop, 11)
    assert np.all(trial_eval(seg, xs) == seg.alpha)
    assert np.all(dpsi_dx(seg, xs) == 0.0)


def test_single_node_scalar_oracle():
    # m=1, h=1, alpha=0, w=1, c=0, b=0, 1/sigma^2=1, x=1 -> exp(-1)
    basis = RbfSegmentBasis(
        h=1, m=1, x_start=0.0, width=1.0,
        centers=np.array([0.0]), biases=np.zeros((1, 1)), inv_sq_widths=np.ones((1, 1)),
    )
    seg = SegmentSolution(basis=basis, alpha=np.array([0.0]), weights=np.ones((1, 1)), x_stop=1.0)
    assert math.isclose(trial_eval(seg, 1.0)[0], math.exp(-1.0), rel_tol=1e-15)


def test_trial_dx_matches_finite_differences():
    rng = np.random.default_rng(11)
    for seed in range(100):
        seg = random_segment(seed)
        x = rng.uniform(seg.x_start + 0.05, seg.x_stop - 0.05)
        got = dpsi_dx(seg, x)
        for i in range(seg.basis.m):
            want = fd_scalar(lambda t: trial_eval(seg, t)[i], x, step=1e-6)
            assert abs(got[i] - want) <= 1e-6 * (abs(want) + 1.0)


def test_trial_dx_at_start_equals_network_value():
    # at x_start the ramp factor vanishes, leaving the plain RBF combination
    seg = random_segment(21)
    g = gaussians(seg.basis, seg.x_start)
    n_val = (g * seg.weights).sum(axis=0)
    assert np.allclose(dpsi_dx(seg, seg.x_start), n_val, rtol=1e-14)


def test_trial_dw_properties():
    seg = random_segment(5)
    for j in (0, 3, 7):
        for i in (0, 1):
            assert trial_dw(seg, seg.x_start, j, i) == 0.0
    x = 1.1
    # linear in the weights: finite difference is exact up to roundoff
    for j in (0, 4):
        for i in (0, 1):
            got = trial_dw(seg, x, j, i)

            def psi_of_w(w):
                old = seg.weights[j, i]
                seg.weights[j, i] = w
                val = trial_eval(seg, x)[i]
                seg.weights[j, i] = old
                return val

            want = fd_scalar(psi_of_w, seg.weights[j, i], step=1e-4)
            assert abs(got - want) <= 1e-8 * (abs(want) + 1.0)
    # independent of the current weight values
    before = trial_dw(seg, x, 2, 1)
    seg.weights *= 3.7
    assert trial_dw(seg, x, 2, 1) == before


def test_trial_dxdw_properties():
    seg = random_segment(6)
    b = seg.basis
    for j in (0, 5):
        for i in (0, 1):
            expect = np.exp(-((seg.x_start + b.biases[j, i] - b.centers[j]) ** 2) * b.inv_sq_widths[j, i])
            assert math.isclose(trial_dxdw(seg, seg.x_start, j, i), expect, rel_tol=1e-14)
    x = 1.2
    for j in (1, 6):
        for i in (0, 1):
            got = trial_dxdw(seg, x, j, i)

            def dpsi_of_w(w):
                old = seg.weights[j, i]
                seg.weights[j, i] = w
                val = dpsi_dx(seg, x)[i]
                seg.weights[j, i] = old
                return val

            want = fd_scalar(dpsi_of_w, seg.weights[j, i], step=1e-4)
            assert abs(got - want) <= 1e-8 * (abs(want) + 1.0)


def test_trial_dxdw_peak_value_is_one():
    # zero bias and x at the node center: Gaussian peak, odd term vanishes
    basis = RbfSegmentBasis(
        h=2, m=1, x_start=0.0, width=1.0,
        centers=np.array([0.6, 1.0]), biases=np.zeros((2, 1)),
        inv_sq_widths=np.full((2, 1), 4.0),
    )
    seg = SegmentSolution(basis=basis, alpha=np.zeros(1), weights=np.zeros((2, 1)), x_stop=1.0)
    assert trial_dxdw(seg, 0.6, 0, 0) == 1.0


def test_index_validation():
    seg = random_segment(8)
    for j, i in ((-1, 0), (8, 0), (0, -1), (0, 2)):
        with pytest.raises(ValueError):
            trial_dw(seg, 1.0, j, i)
        with pytest.raises(ValueError):
            trial_dxdw(seg, 1.0, j, i)


def test_affine_in_weights():
    seg = random_segment(13)
    w1 = np.array(seg.weights)
    w2 = SeededRng(99).uniform(-2.0, 2.0, size=w1.shape)
    a, b = 0.7, -1.3
    xs = np.linspace(seg.x_start, seg.x_stop, 9)

    def with_weights(w):
        seg.weights[:] = w
        return trial_eval(seg, xs)

    combined = with_weights(a * w1 + b * w2)
    expected = a * with_weights(w1) + b * with_weights(w2) - (a + b - 1.0) * seg.alpha
    assert np.allclose(combined, expected, rtol=1e-13, atol=1e-13)


def test_vectorized_evaluation_matches_pointwise():
    seg = random_segment(17)
    xs = np.linspace(seg.x_start - 0.1, seg.x_stop + 0.1, 23)  # extrapolation permitted
    batch = trial_eval(seg, xs)
    batch_dx = dpsi_dx(seg, xs)
    for k, x in enumerate(xs):
        assert np.all(batch[k] == trial_eval(seg, x))
        assert np.all(batch_dx[k] == dpsi_dx(seg, x))


def test_segment_constructor_validation():
    basis = sample_basis(0.0, 1.0, 4, 2, SeededRng(0))
    with pytest.raises(ValueError):
        SegmentSolution(basis=basis, alpha=np.zeros(3), weights=np.zeros((4, 2)), x_stop=1.0)
    with pytest.raises(ValueError):
        SegmentSolution(basis=basis, alpha=np.zeros(2), weights=np.zeros((4, 1)), x_stop=1.0)
    with pytest.raises(ValueError):
        SegmentSolution(basis=basis, alpha=np.zeros(2), weights=np.zeros((4, 2)), x_stop=0.0)
    with pytest.raises(ValueError):
        SegmentSolution(basis=basis, alpha=np.zeros(2), weights=np.zeros((4, 2)), x_stop=2.0)


def block_point_counts(block):
    return (0, 1, block - 1, block, block + 1, 3 * block + 5)


# h = 7 is below numpy's 8-wide pairwise-sum unroll and h = 130 above its
# 128-term block, so m = 1 (a contiguous, pairwise-summed node axis) is
# covered on both sides of each; m > 1 sums the nodes one after another.
# The seeds do not depend on h, so the h = 12 and h = 40 cases are the
# segments these tests drew before they looped over h.
NODE_COUNTS = (2, 7, 12, 40, 130)


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
def test_blocked_evaluation_is_bitwise_the_broadcast_formula(m):
    for h in NODE_COUNTS:
        seg = random_segment(100 + m, h=h, m=m, x_start=0.5, width=2.0, weight_scale=5.0)
        block = trial_module._block_len(h, m)
        for count in block_point_counts(block):
            # a margin on both sides: extrapolation runs the same kernel
            xs = np.linspace(seg.x_start - 0.3, seg.x_stop + 0.3, count)
            assert np.array_equal(trial_eval(seg, xs), broadcast_eval(seg, xs)), (h, count)
        for x in (seg.x_start, seg.x_start + 0.7, seg.x_stop, seg.x_stop + 0.3):
            assert np.array_equal(trial_eval(seg, x), broadcast_eval(seg, np.array([x]))[0]), (h, x)


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("block", [1, 7, 256])
def test_result_does_not_depend_on_block_size(monkeypatch, m, block):
    for h in NODE_COUNTS:
        seg = random_segment(200 + m, h=h, m=m, weight_scale=3.0)
        monkeypatch.setattr(trial_module, "_BLOCK_VALUES", block * (h if m == 1 else m))
        assert trial_module._block_len(h, m) == block
        for count in block_point_counts(block):
            xs = np.linspace(seg.x_start - 0.2, seg.x_stop + 0.2, count)
            assert np.array_equal(trial_eval(seg, xs), broadcast_eval(seg, xs)), (h, count)


@pytest.mark.parametrize("m", [1, 2, 3, 8])
def test_residual_of_a_zero_rhs_is_bitwise_the_broadcast_dpsi_dx(m):
    seg = random_segment(300 + m, h=40, m=m, x_start=0.5, width=2.0, weight_scale=5.0)
    for count in (1, 2, 20, 1000):
        xs = np.linspace(seg.x_start, seg.x_stop, count + 1)[1:]
        assert np.array_equal(dpsi_dx(seg, xs), broadcast_dx(seg, xs))


@pytest.mark.parametrize("m", [1, 2, 3, 8])
def test_unsorted_points_with_repeats_are_bitwise_the_broadcast_formula(monkeypatch, m):
    h, block = 12, 7
    seg = random_segment(400 + m, h=h, m=m, weight_scale=4.0)
    monkeypatch.setattr(trial_module, "_BLOCK_VALUES", block * (h if m == 1 else m))
    assert trial_module._block_len(h, m) == block
    rng = np.random.default_rng(m)
    for n_blocks in (1, 2, 3, 6):
        for count in (n_blocks * block, n_blocks * block - 3):  # the second ends short
            xs = np.linspace(seg.x_start - 0.2, seg.x_stop + 0.2, count)
            ys = xs[rng.integers(0, count, count)]  # drawn with replacement
            assert np.array_equal(trial_eval(seg, ys), broadcast_eval(seg, ys)), (n_blocks, count)


@pytest.mark.parametrize("m", [2, 3, 8])
def test_node_groups_are_bitwise_the_broadcast_formula(monkeypatch, m):
    # 24 points per block, and a call on k <= 24 points puts 24 // k of the
    # 12 nodes in one slab: all of them, groups with a short last one, or one
    h = 12
    seg = random_segment(500 + m, h=h, m=m, weight_scale=4.0)
    monkeypatch.setattr(trial_module, "_BLOCK_VALUES", 24 * m)
    for count in range(1, 30):
        xs = np.linspace(seg.x_start - 0.2, seg.x_stop + 0.2, count)
        assert np.array_equal(trial_eval(seg, xs), broadcast_eval(seg, xs)), count


@pytest.mark.parametrize("side", ["left", "right"])
def test_point_walk_hands_each_block_its_intervals_and_scatters_it_back(side):
    knots = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    rng = np.random.default_rng(0)
    pts = np.concatenate([knots, knots[1:3], rng.uniform(0.0, 4.0, 20), [2.5] * 3])
    # interior knots go left for side="right" and right for side="left"
    other = "left" if side == "right" else "right"
    sizes = []

    def fill(block, first, counts, rows):
        sizes.append(len(block))
        assert np.all(block[1:] >= block[:-1])
        assert counts.sum() == len(block) and counts[0] > 0 and counts[-1] > 0
        rows[:, 0] = block
        rows[:, 1] = np.repeat(np.arange(first, first + len(counts)), counts)

    for xs in (np.sort(pts), pts[rng.permutation(len(pts))]):
        sizes.clear()
        out = trial_module._walk_points(xs, knots, side, 2, 4, fill)
        assert sizes == [4] * 7 + [2]
        assert np.array_equal(out[:, 0], xs)
        want = np.clip(np.searchsorted(knots, xs, side=other) - 1, 0, len(knots) - 2)
        assert np.array_equal(out[:, 1], want)
    sizes.clear()
    assert trial_module._walk_points(2.5, knots, side, 2, 4, fill).shape == (2,)
    assert trial_module._walk_points(np.empty(0), knots, side, 2, 4, fill).shape == (0, 2)
    assert sizes == [1]

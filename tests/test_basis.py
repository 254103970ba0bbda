import math

import numpy as np
import pytest

from conftest import fd_scalar
from oracles import rbf_dx, rbf_value
from rpnn_ode import RbfSegmentBasis, SeededRng, sample_basis


def test_rng_determinism_and_range():
    a = SeededRng(42).uniform(0.0, 1.0, size=1000)
    b = SeededRng(42).uniform(0.0, 1.0, size=1000)
    assert np.all(a == b)
    assert np.all((a >= 0.0) & (a < 1.0))
    c = SeededRng(43).uniform(0.0, 1.0, size=1000)
    assert np.any(a != c)
    # crude uniformity sanity
    assert abs(a.mean() - 0.5) < 0.05


@pytest.mark.parametrize("seed", [1.5, "7", math.nan])
def test_rng_rejects_a_seed_that_is_not_an_integer(seed):
    # 1.5 and "7" used to draw the streams of seeds 1 and 7
    with pytest.raises(ValueError, match="seed"):
        SeededRng(seed)


def test_rng_takes_a_numpy_integer_seed_as_the_python_one():
    want = SeededRng(3).uniform(0.0, 1.0, size=50)
    assert np.array_equal(SeededRng(np.int64(3)).uniform(0.0, 1.0, size=50), want)
    assert SeededRng(np.uint8(3)).seed == 3 and SeededRng(-1).seed == 2**64 - 1


def test_rng_scalar_and_shapes():
    rng = SeededRng(7)
    x = rng.uniform(-2.0, 3.0)
    assert isinstance(x, float) and -2.0 <= x < 3.0
    m = rng.uniform(0.0, 1.0, size=(3, 4))
    assert m.shape == (3, 4)
    with pytest.raises(ValueError):
        rng.uniform(1.0, 1.0)
    # used to return [inf inf inf], and NaNs with a RuntimeWarning
    with pytest.raises(ValueError, match="high"):
        rng.uniform(0.0, math.inf, 3)
    with pytest.raises(ValueError, match="low"):
        rng.uniform(-math.inf, 0.0, 2)


def test_sample_basis_centers_span_interval():
    rng = SeededRng(0)
    b = sample_basis(0.0, 2 * math.pi, 40, 1, rng)
    assert b.centers[0] == 0.0
    assert b.centers[-1] == 2 * math.pi
    spacing = np.diff(b.centers)
    assert np.allclose(spacing, 2 * math.pi / 39, rtol=1e-13)


def test_sample_basis_parameter_membership():
    # membership invariants over many sampled bases
    rng = SeededRng(123)
    for k in range(1000):
        dx = 0.25 + 3.0 * (k % 7) / 7.0
        b = sample_basis(1.5, dx, 4, 2, rng)
        assert np.all(b.biases >= -dx / 6.0) and np.all(b.biases <= 0.0)
        lo, hi = 3.0 / (8.0 * dx**2), 81.0 / (2.0 * dx**2)
        assert np.all(b.inv_sq_widths >= lo) and np.all(b.inv_sq_widths <= hi)


def test_sample_basis_unit_interval_bias_range():
    b = sample_basis(0.0, 1.0, 40, 3, SeededRng(9))
    assert np.all(b.biases >= -1.0 / 6.0) and np.all(b.biases <= 0.0)


def test_sample_basis_deterministic_in_seed():
    b1 = sample_basis(0.3, 2.0, 12, 3, SeededRng(42))
    b2 = sample_basis(0.3, 2.0, 12, 3, SeededRng(42))
    assert np.all(b1.centers == b2.centers)
    assert np.all(b1.biases == b2.biases)
    assert np.all(b1.inv_sq_widths == b2.inv_sq_widths)


def test_sample_basis_validation():
    rng = SeededRng(0)
    with pytest.raises(ValueError):
        sample_basis(0.0, 1.0, 1, 1, rng)
    with pytest.raises(ValueError):
        sample_basis(0.0, 1.0, 4, 0, rng)
    with pytest.raises(ValueError):
        sample_basis(0.0, 0.0, 4, 1, rng)
    # each used to fail in a draw or in numpy, or after the draws
    for args, field in (((0.0, math.inf, 4, 1), "delta_x"), ((math.inf, 1.0, 4, 1), "x_start"),
                        ((0.0, 1.0, 4.0, 1), "h"), ((0.0, 1.0, 4, 1.0), "m")):
        with pytest.raises(ValueError, match=field):
            sample_basis(*args, rng)
    assert rng.uniform(0.0, 1.0) == SeededRng(0).uniform(0.0, 1.0)  # nothing was drawn


def test_rbf_value_examples():
    # peak: exponent vanishes at x = c - b
    assert rbf_value(0.7, -0.2, 3.1, 0.9) == 1.0
    assert math.isclose(rbf_value(0.0, 0.0, 1.0, 1.0), math.exp(-1.0), rel_tol=1e-15)
    # strictly decreasing in |x + b - c|
    vals = [rbf_value(0.0, 0.0, 2.0, x) for x in (0.0, 0.3, 0.7, 1.4, 2.5)]
    assert all(v1 > v2 for v1, v2 in zip(vals, vals[1:]))
    assert all(0.0 < v <= 1.0 for v in vals)


def test_rbf_dx_examples():
    assert rbf_dx(0.7, -0.2, 3.1, 0.9) == 0.0
    assert math.isclose(rbf_dx(0.0, 0.0, 1.0, 1.0), -2.0 * math.exp(-1.0), rel_tol=1e-15)


def test_rbf_dx_matches_finite_differences():
    rng = np.random.default_rng(77)
    for _ in range(1000):
        c = rng.uniform(-1.0, 1.0)
        b = rng.uniform(-0.5, 0.0)
        isw = rng.uniform(0.3, 2.0)
        u = rng.uniform(0.1, 1.2) * rng.choice([-1.0, 1.0])
        x = c - b + u
        got = rbf_dx(c, b, isw, x)
        want = fd_scalar(lambda t: rbf_value(c, b, isw, t), x, step=1e-6)
        assert abs(got - want) <= 1e-6 * abs(want)


def test_gaussian_matrix_shapes():
    b = sample_basis(0.0, 1.0, 5, 3, SeededRng(1))
    for g in b._gaussians_and_dx(0.5):
        assert g.shape == (5, 3)
    for g in b._gaussians_and_dx(np.linspace(0, 1, 7)):
        assert g.shape == (7, 5, 3)


def test_basis_constructor_validation():
    ones = np.ones((3, 2))
    with pytest.raises(ValueError):
        RbfSegmentBasis(h=3, m=2, x_start=0.0, width=-1.0, centers=np.zeros(3),
                        biases=ones, inv_sq_widths=ones)
    with pytest.raises(ValueError):
        RbfSegmentBasis(h=3, m=2, x_start=0.0, width=1.0, centers=np.zeros(4),
                        biases=ones, inv_sq_widths=ones)
    with pytest.raises(ValueError):
        RbfSegmentBasis(h=3, m=2, x_start=0.0, width=1.0, centers=np.zeros(3),
                        biases=ones, inv_sq_widths=-ones)

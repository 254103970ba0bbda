import numpy as np
import pytest

from oracles import effective_rank
from rpnn_ode import NumericError, truncated_pinv_solve


def test_identity_system():
    x = truncated_pinv_solve(np.eye(3), np.array([1.0, 2.0, 3.0]))
    assert np.allclose(x, [1.0, 2.0, 3.0], rtol=1e-14)


def test_rank_one_minimum_norm():
    a = np.array([[1.0, 0.0], [0.0, 0.0]])
    x = truncated_pinv_solve(a, np.array([2.0, 3.0]))
    # only the first row is solvable; minimum norm forces x2 = 0
    assert np.allclose(x, [2.0, 0.0], atol=1e-14)


def test_tiny_singular_value_truncated():
    a = np.diag([1.0, 1e-20])
    x = truncated_pinv_solve(a, np.array([1.0, 1.0]), rcond=1e-12)
    assert np.allclose(x, [1.0, 0.0], atol=1e-14)
    assert effective_rank(a, rcond=1e-12) == 1


def test_effective_rank_examples():
    assert effective_rank(np.eye(5)) == 5
    assert effective_rank(np.zeros((4, 6))) == 0
    assert effective_rank(np.diag([3.0, 2.0, 0.0])) == 2



@pytest.mark.parametrize("shape", [(4, 6), (6, 4), (1, 1)])
def test_an_all_zero_matrix_gives_the_zero_solution(shape):
    x = truncated_pinv_solve(np.zeros(shape), np.arange(1.0, shape[0] + 1))
    assert x.shape == (shape[1],) and np.all(x == 0.0)

def test_effective_rank_monotone_in_epsilon():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(8, 12))
    a[3] = a[2] * 1.0000001  # near-dependent rows
    ranks = [effective_rank(a, rcond=eps)
             for eps in (0.0, 1e-12, 1e-8, 1e-4, 1e-2, 0.5, 2.0)]
    assert all(r1 >= r2 for r1, r2 in zip(ranks, ranks[1:]))
    assert ranks[-1] == 0  # cutoff above sigma_max removes everything


def test_full_rank_square_consistency():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a = rng.normal(size=(6, 6)) + 3.0 * np.eye(6)
        b = rng.normal(size=6)
        x = truncated_pinv_solve(a, b)
        assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_minimum_norm_property():
    # construct a known rank-deficient matrix and verify the solution is
    # orthogonal to the truncated right-singular directions
    rng = np.random.default_rng(2)
    u, _ = np.linalg.qr(rng.normal(size=(7, 7)))
    v, _ = np.linalg.qr(rng.normal(size=(9, 9)))
    s = np.array([2.0, 1.0, 0.5, 1e-9, 1e-12, 0.0, 0.0])
    a = u @ np.diag(s) @ v[:, :7].T
    assert effective_rank(a, rcond=1e-6) == 3
    b = rng.normal(size=7)
    x = truncated_pinv_solve(a, b, rcond=1e-6)
    for col in range(3, 9):
        assert abs(x @ v[:, col]) <= 1e-10
    # perturbing along a retained null direction cannot shrink the norm
    x_alt = x + 0.1 * v[:, 4]
    assert np.linalg.norm(x) <= np.linalg.norm(x_alt) + 1e-12


def test_default_cutoff_matches_conventional_pinv_tolerance():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(20, 40))
    b = rng.normal(size=20)
    x = truncated_pinv_solve(a, b)
    expected = np.linalg.pinv(a, rcond=40 * np.finfo(float).eps) @ b
    assert np.allclose(x, expected, rtol=1e-12, atol=1e-14)
    assert np.array_equal(x, truncated_pinv_solve(a, b, rcond=max(a.shape) * np.finfo(float).eps))


def test_rcond_validation():
    for rcond in (np.nan, np.inf, -np.inf, -1.0):
        with pytest.raises(ValueError, match="rcond"):
            truncated_pinv_solve(np.eye(3), np.ones(3), rcond=rcond)
        with pytest.raises(ValueError, match="rcond"):
            effective_rank(np.eye(3), rcond=rcond)
    assert effective_rank(np.eye(3), rcond=0.0) == 3


def test_input_validation():
    with pytest.raises(NumericError):
        truncated_pinv_solve(np.array([[np.nan, 1.0], [0.0, 1.0]]), np.zeros(2))
    with pytest.raises(NumericError):
        effective_rank(np.array([[np.inf]]))
    with pytest.raises(ValueError):
        truncated_pinv_solve(np.eye(3), np.zeros(2))
    with pytest.raises(ValueError):
        truncated_pinv_solve(np.zeros(3), np.zeros(3))


def test_wrong_shaped_rhs_rejected_before_the_svd(monkeypatch):
    def no_svd(*args, **kwargs):
        raise AssertionError("the SVD ran before b was checked")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    with pytest.raises(ValueError, match="b must have shape"):
        truncated_pinv_solve(np.eye(4), np.ones(3))
    with pytest.raises(ValueError, match="b must have shape"):
        truncated_pinv_solve(np.eye(4), np.ones((4, 1)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_rhs_rejected(bad):
    b = np.array([1.0, 0.0, 0.0, 0.0])
    b[1] = bad
    with pytest.raises(NumericError, match="right-hand side"):
        truncated_pinv_solve(np.eye(4), b)

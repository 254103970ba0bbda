import math

import numpy as np
import pytest

from conftest import fd_jacobian
from oracles import jacobian_eval, rhs_eval
from rpnn_ode import BENCHMARK_NAMES, NumericError, canonical_name, make_benchmark
from rpnn_ode.problems import _components


def test_van_der_pol_rhs_example():
    p = make_benchmark("van_der_pol", mu=10)
    # hand evaluation: y1' = y2 = 0, y2' = 10*(1-4)*0 - 2 = -2
    assert np.allclose(rhs_eval(p, 0.0, np.array([2.0, 0.0])), [0.0, -2.0], atol=0)


def test_rober_rhs_example():
    p = make_benchmark("rober")
    # hand evaluation with k1 = 0.04 at the initial state
    assert np.allclose(rhs_eval(p, 0.0, np.array([1.0, 0.0, 0.0])), [-0.04, 0.04, 0.0], atol=0)


def test_hires_rhs_example():
    p = make_benchmark("hires")
    got = rhs_eval(p, 0.0, p.alpha)
    # y1' = -1.71 + 0.0007 = -1.7093, y2' = 1.71, everything else zero
    expected = np.array([-1.7093, 1.71, 0, 0, 0, 0, 0, 0])
    assert np.allclose(got, expected, rtol=0, atol=1e-14)


def test_prothero_robinson_jacobian_is_lambda():
    lam = -1e5
    p = make_benchmark("prothero_robinson", lam=lam)
    for x, y in ((0.0, [0.3]), (1.7, [-0.2]), (6.0, [0.99])):
        assert jacobian_eval(p, x, np.array(y)) == np.array([[lam]])


def test_van_der_pol_jacobian_example():
    p = make_benchmark("vdp", mu=10)
    got = jacobian_eval(p, 0.0, np.array([2.0, 0.0]))
    # d y2'/d y1 = -2*mu*y1*y2 - 1 = -1, d y2'/d y2 = mu*(1 - y1^2) = -30
    assert np.allclose(got, [[0.0, 1.0], [-1.0, -30.0]], atol=0)


_STATE_RANGES = {
    "prothero_robinson": ([-2.0], [2.0]),
    "van_der_pol": ([-2.5, -15.0], [2.5, 15.0]),
    "rober": ([0.0, 0.0, 0.0], [1.0, 5e-5, 1.0]),
    "hires": ([0.0] * 8, [1.2] * 8),
}


@pytest.mark.parametrize("name,params", [
    ("prothero_robinson", {"lam": -1e5}),
    ("van_der_pol", {"mu": 10.0}),
    ("rober", {}),
    ("hires", {}),
])
def test_jacobian_matches_finite_differences(name, params):
    p = make_benchmark(name, **params)
    lo, hi = (np.array(v) for v in _STATE_RANGES[name])
    rng = np.random.default_rng(1234)
    for _ in range(100):
        x = rng.uniform(p.x0, p.x_end)
        y = rng.uniform(lo, hi)
        jac = jacobian_eval(p, x, y)
        jac_fd = fd_jacobian(lambda v: p.rhs(x, v), y)
        scale = max(np.abs(jac).max(), 1.0)
        assert np.abs(jac - jac_fd).max() <= 1e-6 * scale


def test_rober_mass_conservation_of_rhs():
    p = make_benchmark("rober")
    rng = np.random.default_rng(5)
    for _ in range(200):
        y = rng.uniform([0, 0, 0], [1, 5e-5, 1])
        f = p.rhs(0.0, y)
        # f1 + f2 + f3 == 0 analytically; floating point leaves only roundoff
        assert abs(f.sum()) <= 64 * np.finfo(float).eps * max(np.abs(f).max(), 1e-30)


def test_benchmark_domains_and_initial_conditions():
    pr = make_benchmark("prothero_robinson")
    assert pr.m == 1 and pr.x0 == 0.0 and pr.x_end == 2 * math.pi
    assert pr.alpha == np.array([0.0])
    assert pr.params["lambda"] == -1e5

    vdp1 = make_benchmark("van_der_pol", mu=1)
    assert vdp1.x_end == 30.0
    assert np.all(vdp1.alpha == [2.0, 0.0])

    for mu in (10, 100, 1000):
        assert make_benchmark("vdp", mu=mu).x_end == 3.0 * mu

    rob = make_benchmark("rober")
    assert rob.x_end == 40.0 and np.all(rob.alpha == [1.0, 0.0, 0.0])
    assert (rob.params["k1"], rob.params["k2"], rob.params["k3"]) == (0.04, 1e4, 3e7)

    hr = make_benchmark("hires")
    assert hr.m == 8 and hr.x_end == 321.8122
    assert np.all(hr.alpha == [1, 0, 0, 0, 0, 0, 0, 0.0057])


def test_make_benchmark_validation():
    with pytest.raises(ValueError):
        make_benchmark("lorenz")
    with pytest.raises(ValueError):
        make_benchmark("vdp", mu=-1)
    with pytest.raises(ValueError):
        make_benchmark("vdp", mu=0)
    with pytest.raises(ValueError):
        make_benchmark("prothero_robinson", lam=1e5)
    with pytest.raises(ValueError):
        make_benchmark("rober", mu=10)
    with pytest.raises(ValueError):
        make_benchmark("vdp", sigma=1.0)


@pytest.mark.parametrize("name, params", [
    ("pr", {"lam": math.nan}),
    ("pr", {"lam": -math.inf}),
    ("vdp", {"mu": math.inf}),
    ("vdp", {"mu": math.nan}),
    ("vdp", {"mu": 1e308}),  # finite, but the domain [0, 3 mu] is not
])
def test_make_benchmark_rejects_non_finite_parameters(name, params):
    with pytest.raises(ValueError):
        make_benchmark(name, **params)


@pytest.mark.parametrize("name, param, value", [
    ("vdp", "mu", None),
    ("vdp", "mu", "fast"),
    ("pr", "lam", [1]),
    ("pr", "lam", {"lam": -1.0}),
    ("vdp", "mu", "100"),  # used to be accepted as 100.0
])
def test_make_benchmark_rejects_a_parameter_that_is_not_a_number(name, param, value):
    with pytest.raises(ValueError, match=f"{param} must be a real number"):
        make_benchmark(name, **{param: value})


def test_analytic_solution_only_for_prothero_robinson():
    pr = make_benchmark("pr")
    xs = np.linspace(0, 2 * math.pi, 7)
    assert np.all(pr.analytic(xs)[:, 0] == np.sin(xs))
    for name in ("vdp", "rober", "hires"):
        assert make_benchmark(name).analytic is None


def test_eval_wrappers_validate_shapes_and_finiteness():
    p = make_benchmark("rober")
    with pytest.raises(ValueError):
        rhs_eval(p, 0.0, np.zeros(2))
    with pytest.raises(ValueError):
        jacobian_eval(p, 0.0, np.zeros(4))

    from rpnn_ode import OdeProblem

    bad = OdeProblem(
        name="nan_rhs", m=1, x0=0.0, x_end=1.0, alpha=np.array([0.0]),
        rhs=lambda x, y: np.array([np.nan]),
        ode_jacobian=lambda x, y: np.array([[np.inf]]),
    )
    with pytest.raises(NumericError):
        rhs_eval(bad, 0.0, np.zeros(1))
    with pytest.raises(NumericError):
        jacobian_eval(bad, 0.0, np.zeros(1))


def test_problem_constructor_validation():
    from rpnn_ode import OdeProblem

    kwargs = dict(rhs=lambda x, y: y, ode_jacobian=lambda x, y: np.eye(1))
    with pytest.raises(ValueError):
        OdeProblem(name="b", m=0, x0=0.0, x_end=1.0, alpha=np.array([]), **kwargs)
    with pytest.raises(ValueError):
        OdeProblem(name="b", m=1, x0=1.0, x_end=1.0, alpha=np.array([0.0]), **kwargs)
    with pytest.raises(ValueError):
        OdeProblem(name="b", m=2, x0=0.0, x_end=1.0, alpha=np.array([0.0]), **kwargs)
    # m=1.0 and a 0-d array x0 used to fail only in a solve, strings with TypeError
    for field, value in (("m", 1.0), ("m", "1"), ("x0", "0"), ("x0", np.array(0.0)),
                         ("x_end", "1"), ("x_end", np.array(1.0)),
                         ("alpha", [math.nan]), ("alpha", [math.inf])):
        fields = dict(name="b", m=1, x0=0.0, x_end=1.0, alpha=np.array([0.0]), **kwargs)
        with pytest.raises(ValueError, match=field):
            OdeProblem(**{**fields, field: value})
    problem = OdeProblem(name="b", m=np.int64(1), x0=0, x_end=1, alpha=[0.0], **kwargs)
    assert type(problem.m) is int


@pytest.mark.parametrize("x0, x_end", [(0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0), (0.0, math.nan)])
def test_problem_domain_must_be_finite(x0, x_end):
    from rpnn_ode import OdeProblem

    with pytest.raises(ValueError):
        OdeProblem(name="b", m=1, x0=x0, x_end=x_end, alpha=np.array([0.0]),
                   rhs=lambda x, y: y, ode_jacobian=lambda x, y: np.eye(1))


def test_canonical_name_resolves_aliases_and_case():
    for alias, name in (("pr", "prothero_robinson"), ("VDP", "van_der_pol"),
                        ("Rober", "rober"), ("HIRES", "hires")):
        assert canonical_name(alias) == name
        assert make_benchmark(alias).name == name
    for name in BENCHMARK_NAMES:
        assert canonical_name(name) == name
    for bad in ("lorenz", "", "all"):
        with pytest.raises(ValueError):
            canonical_name(bad)


@pytest.mark.parametrize("m", [1, 2, 8])
def test_components_are_floats_at_one_point_and_rows_of_a_block(m):
    y = np.linspace(-1.0, 1.0, m)
    point = _components(y)
    assert len(point) == m and all(type(c) is float for c in point)
    assert point == [float(c) for c in y]
    block = np.arange(3.0 * m).reshape(3, m)
    rows = _components(block)
    assert isinstance(rows, np.ndarray) and rows.shape == (m, 3)
    assert np.shares_memory(rows, block) and np.array_equal(rows, block.T)

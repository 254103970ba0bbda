import dataclasses
import json
import math

import numpy as np
import pytest

import rpnn_ode.metrics as metrics_module
from rpnn_ode import (
    SolverConfig,
    dense_eval,
    error_metrics,
    make_benchmark,
    metric_grid,
    run_benchmark,
    solve_adaptive,
)
from rpnn_ode.metrics import (
    ErrorMetrics,
    RunReport,
    TimingSummary,
    _solve_cell,
    _timed,
    default_grid_size,
    report_to_dict,
    run_cell,
)


def as_eval(fn):
    return lambda xs: fn(np.asarray(xs))


def test_error_metrics_identical_solutions():
    grid = np.linspace(0.0, 1.0, 50)
    f = as_eval(lambda xs: np.stack([np.sin(xs), np.cos(xs)], axis=1))
    m = error_metrics(f, f, grid)
    assert np.all(m.l2 == 0.0) and np.all(m.linf == 0.0) and np.all(m.mae == 0.0)
    assert m.grid_size == 50


def test_error_metrics_constant_offset():
    grid = np.linspace(0.0, 1.0, 100)
    base = as_eval(lambda xs: xs[:, None])
    shifted = as_eval(lambda xs: xs[:, None] + 0.1)
    m = error_metrics(shifted, base, grid)
    assert np.allclose(m.linf, 0.1, rtol=1e-14)
    assert np.allclose(m.mae, 0.1, rtol=1e-14)
    assert np.allclose(m.l2, 1.0, rtol=1e-14)  # 0.1 * sqrt(100)


def test_error_metrics_pythagorean_example():
    grid = np.array([0.0, 1.0])
    cand = as_eval(lambda xs: np.where(xs[:, None] < 0.5, 3.0, 4.0))
    zero = as_eval(lambda xs: np.zeros((len(xs), 1)))
    m = error_metrics(cand, zero, grid)
    assert m.l2[0] == 5.0
    assert m.linf[0] == 4.0
    assert m.mae[0] == 3.5


def test_error_metrics_inequalities_on_random_data():
    rng = np.random.default_rng(0)
    for _ in range(25):
        n = rng.integers(2, 400)
        data = rng.normal(size=(n, 3))
        cand = as_eval(lambda xs, d=data: d)
        zero = as_eval(lambda xs, k=n: np.zeros((k, 3)))
        m = error_metrics(cand, zero, np.linspace(0, 1, n))
        assert np.all(m.linf >= m.mae)
        assert np.all(m.l2 <= m.linf * np.sqrt(n) + 1e-12)


def test_error_metrics_promotes_each_side_before_subtracting():
    # a (k,) candidate against a (k, 1) reference is one component, not k
    pr = make_benchmark("pr")
    grid = np.linspace(0.0, 1.0, 5)
    flat = error_metrics(lambda xs: np.sin(xs), pr.analytic, grid)
    column = error_metrics(lambda xs: np.sin(xs)[:, None], pr.analytic, grid)
    diff = np.sin(grid)[:, None] - pr.analytic(grid)
    expected = (np.sqrt((diff**2).sum(axis=0)), np.abs(diff).max(axis=0), np.abs(diff).mean(axis=0))
    for m in (flat, column):
        assert m.grid_size == 5
        for got, want in zip((m.l2, m.linf, m.mae), expected):
            assert got.shape == (1,) and np.array_equal(got, want)


@pytest.mark.parametrize("candidate", [
    lambda xs: np.zeros((len(xs), 2)),
    lambda xs: np.zeros((len(xs) - 1, 1)),
    lambda xs: np.zeros((len(xs), 1, 1)),
    lambda xs: np.float64(0.0),
])
def test_error_metrics_rejects_values_that_are_not_one_row_per_point(candidate):
    zero = lambda xs: np.zeros((len(xs), 1))  # noqa: E731
    grid = np.linspace(0.0, 1.0, 5)
    with pytest.raises(ValueError, match=r"must both be \(5, m\)"):
        error_metrics(candidate, zero, grid)
    with pytest.raises(ValueError, match=r"must both be \(5, m\)"):
        error_metrics(zero, candidate, grid)

def test_default_grid_sizes():
    assert default_grid_size(make_benchmark("pr")) == 3000
    assert default_grid_size(make_benchmark("rober")) == 20000
    assert default_grid_size(make_benchmark("hires")) == 150000
    assert default_grid_size(make_benchmark("vdp", mu=1)) == 15000
    assert default_grid_size(make_benchmark("vdp", mu=10)) == 15000
    assert default_grid_size(make_benchmark("vdp", mu=100)) == 60000
    assert default_grid_size(make_benchmark("vdp", mu=1000)) == 60000


def test_metric_grid_includes_endpoints():
    p = make_benchmark("rober")
    g = metric_grid(p, 101)
    assert g[0] == p.x0 and g[-1] == p.x_end and len(g) == 101


def test_pr_metrics_vs_analytic_and_reference_agree(reference_cache):
    pr = make_benchmark("pr", lam=-1e5)
    sol = solve_adaptive(pr, SolverConfig(tol=1e-6, seed=0))
    grid = metric_grid(pr)
    ref = reference_cache("prothero_robinson", lam=-1e5)
    m_analytic = error_metrics(sol, pr.analytic, grid)
    m_ref = error_metrics(sol, lambda xs: dense_eval(ref, xs), grid)
    assert np.abs(m_analytic.linf - m_ref.linf).max() <= 1e-10
    assert np.abs(m_analytic.mae - m_ref.mae).max() <= 1e-10


def test_run_benchmark_structure_and_determinism():
    problems = [make_benchmark("pr", lam=-1e5)]
    reports = run_benchmark(problems, tol=1e-6, seed=7, repeats=10, methods=("rpnn", "sdirk"))
    assert [r.method for r in reports] == ["rpnn", "sdirk"]
    for r in reports:
        assert r.status == "ok"
        assert r.times.repeats == 10
        assert r.times.min <= r.times.median <= r.times.max
        assert r.times.min > 0
        assert r.metrics is not None and r.metrics.grid_size == 3000
        assert r.n_points > 0 and r.n_segments > 0
    # accuracy vs the implicit reference matches the analytic-solution bound
    assert np.all(reports[0].metrics.linf <= 1e-6)
    again = run_benchmark(problems, tol=1e-6, seed=7, repeats=1, methods=("rpnn",))
    assert np.all(again[0].metrics.linf == reports[0].metrics.linf)
    assert np.all(again[0].metrics.l2 == reports[0].metrics.l2)


def test_run_benchmark_rober_rpnn_accuracy():
    reports = run_benchmark([make_benchmark("rober")], tol=1e-6, seed=0, methods=("rpnn",))
    (report,) = reports
    assert report.status == "ok"
    assert np.all(report.metrics.mae <= 1e-7)


def test_run_benchmark_records_failures():
    from rpnn_ode import OdeProblem

    bad = OdeProblem(name="nan", m=1, x0=0.0, x_end=1.0, alpha=np.zeros(1),
                     rhs=lambda x, y: np.array([np.nan]),
                     ode_jacobian=lambda x, y: np.array([[np.nan]]))
    reports = run_benchmark([bad], tol=1e-3, methods=("rpnn", "dp45"))
    assert len(reports) == 2
    assert all(r.status == "error" and r.metrics is None for r in reports)
    assert all(r.detail.startswith("reference failed: ") for r in reports)
    # with an analytic reference the solves themselves fail
    exact = dataclasses.replace(bad, analytic=lambda xs: np.zeros((len(xs), 1)))
    for report in run_benchmark([exact], tol=1e-3, seed=5, methods=("rpnn", "dp45")):
        assert report.status == "error" and report.metrics is None
        assert report.detail and not report.detail.startswith("reference failed")
        assert (report.problem, report.tol, report.seed) == ("nan", 1e-3, 5)
        assert (report.n_points, report.n_segments, report.times.repeats) == (0, 0, 0)


def test_run_benchmark_validation():
    with pytest.raises(ValueError):
        run_benchmark([make_benchmark("pr")], tol=1e-3, repeats=0)
    with pytest.raises(ValueError):
        run_benchmark([make_benchmark("pr")], tol=1e-3, methods=("rpnn", "euler"))


@pytest.mark.parametrize("tol,seed", [(0.0, 0), (-1.0, 0), (math.inf, 0), (math.nan, 0),
                                      (1e-3, 1.5), (1e-3, None), ("a", 0), (None, 0)])
def test_run_benchmark_rejects_a_bad_tol_or_seed_before_any_solve(monkeypatch, tol, seed):
    def no_reference(problem):
        raise AssertionError("a reference was built")

    monkeypatch.setattr(metrics_module, "reference_solution", no_reference)
    with pytest.raises(ValueError, match="tolerance|seed"):
        run_benchmark([make_benchmark("rober")], tol=tol, seed=seed, methods=("dp45",))


@pytest.mark.parametrize("field,value", [
    ("repeats", 1.5), ("repeats", 2.0), ("repeats", "2"), ("repeats", None), ("repeats", 0),
    ("grid_size", 0), ("grid_size", -1), ("grid_size", 2.5),
])
def test_run_benchmark_rejects_a_bad_value_before_any_reference(monkeypatch, field, value):
    # repeats=1.5 and grid_size=0 used to reach the solves: every cell an
    # "error", and grid_size=0 measured on the default grid
    def no_reference(problem):
        raise AssertionError("a reference was built")

    monkeypatch.setattr(metrics_module, "reference_solution", no_reference)
    with pytest.raises(ValueError, match=field.replace("_", " ")):
        run_benchmark([make_benchmark("pr"), make_benchmark("rober")],
                      **{"tol": 1e-3, field: value}, methods=("sdirk",))


def test_timed_and_run_cell_take_an_integer_repeat_count_only():
    calls = []
    for repeats in (1.5, 0, "1", None):
        with pytest.raises(ValueError, match="repeats"):
            _timed(lambda: calls.append(1), repeats)
        with pytest.raises(ValueError, match="repeats"):
            run_cell(make_benchmark("pr"), "rpnn", 1e-3, 0, repeats, None, np.zeros(1))
    assert calls == []
    _, times = _timed(lambda: calls.append(1), np.int64(2))
    assert calls == [1, 1] and times.repeats == 2 and type(times.repeats) is int


def test_metric_grid_takes_none_or_an_integer_size_of_at_least_one():
    pr = make_benchmark("pr")
    assert len(metric_grid(pr)) == len(metric_grid(pr, None)) == 3000
    assert np.array_equal(metric_grid(pr, np.int64(7)), metric_grid(pr, 7))
    assert len(metric_grid(pr, 1)) == 1
    # 0 used to give the default 3,000 points and -1 numpy's own message
    for size in (0, -1, 2.5, 7.0, "7"):
        with pytest.raises(ValueError, match="grid size"):
            metric_grid(pr, size)


def test_solve_cell_rejects_an_unknown_method():
    with pytest.raises(ValueError, match="unknown method 'euler'"):
        _solve_cell(make_benchmark("pr"), "euler", 1e-3, 0)


def test_run_benchmark_measures_every_cell_on_grid_size_points():
    problems = [make_benchmark("pr", lam=-10.0), make_benchmark("pr", lam=-50.0)]
    reports = run_benchmark(problems, tol=1e-3, grid_size=50, methods=("rpnn", "sdirk"))
    assert len(reports) == 4
    assert all(r.status == "ok" and r.metrics.grid_size == 50 for r in reports)


def test_eval_grid_timing():
    rob = make_benchmark("rober")
    sol = solve_adaptive(rob, SolverConfig(tol=1e-3, seed=0))
    grid = np.linspace(0.0, 40.0, 1000)
    values, t = _timed(lambda: sol(grid), repeats=3)
    assert np.array_equal(values, sol(grid))
    assert t.repeats == 3
    assert 0 < t.min <= t.median <= t.max
    _, one = _timed(lambda: sol(np.array([1.0])), repeats=1)
    assert one.min > 0 and np.isfinite(one.max)


def test_report_to_dict_schema():
    reports = run_benchmark([make_benchmark("pr", lam=-1e5)], tol=1e-3, methods=("rpnn",))
    d = report_to_dict(reports[0])
    assert d["schema_version"] == 1
    assert d["problem"] == "prothero_robinson"
    assert d["params"] == {"lambda": -1e5}
    assert d["method"] == "rpnn"
    assert set(d["times"]) == {"median", "min", "max", "repeats"}
    assert set(d["metrics"]) == {"per_component", "grid_size"}
    assert set(d["metrics"]["per_component"][0]) == {"l2", "linf", "mae"}
    assert {"tol", "seed", "n_points", "n_segments", "status", "detail"} <= set(d)


REPORT = RunReport(problem="rober", params={"k1": 0.04}, method="rpnn", tol=1e-3, seed=2,
                   metrics=ErrorMetrics(l2=[1.0, 2.0], linf=[3.0, 4.0], mae=[5.0, 6.0],
                                        grid_size=9),
                   n_points=40, n_segments=2, times=TimingSummary(0.5, 0.25, 1.0, 3))


def test_report_to_dict_key_order_is_the_dataclass_field_order():
    d = report_to_dict(REPORT)
    assert list(d) == ["schema_version", "problem", "params", "method", "tol", "seed", "metrics",
                       "n_points", "n_segments", "times", "status", "detail"]
    assert list(d) == ["schema_version"] + [f.name for f in dataclasses.fields(RunReport)]
    assert list(d["metrics"]) == ["per_component", "grid_size"]
    assert [list(c) for c in d["metrics"]["per_component"]] == [["l2", "linf", "mae"]] * 2
    assert list(d["times"]) == ["median", "min", "max", "repeats"]
    assert json.loads(json.dumps(d)) == {
        "schema_version": 1, "problem": "rober", "params": {"k1": 0.04}, "method": "rpnn",
        "tol": 1e-3, "seed": 2,
        "metrics": {"per_component": [{"l2": 1.0, "linf": 3.0, "mae": 5.0},
                                      {"l2": 2.0, "linf": 4.0, "mae": 6.0}], "grid_size": 9},
        "n_points": 40, "n_segments": 2,
        "times": {"median": 0.5, "min": 0.25, "max": 1.0, "repeats": 3},
        "status": "ok", "detail": "",
    }


def test_a_report_field_added_in_a_subclass_reaches_the_json_form():
    @dataclasses.dataclass(frozen=True)
    class AttemptsReport(RunReport):
        attempts: int = 0

    d = report_to_dict(AttemptsReport(**vars(REPORT), attempts=7))
    assert list(d)[-1] == "attempts" and d["attempts"] == 7
    assert {k: v for k, v in d.items() if k != "attempts"} == report_to_dict(REPORT)
    json.dumps(d)

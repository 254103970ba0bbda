import csv
import dataclasses
import json
import math

import numpy as np
import pytest

import rpnn_ode.cli as cli_module
import rpnn_ode.metrics as metrics_module
from rpnn_ode import (
    SolverConfig,
    StepUnderflowError,
    eval_solution,
    load_solution,
    make_benchmark,
    run_benchmark,
    solve_adaptive,
)
from rpnn_ode.cli import _parse_suite, main
from rpnn_ode.problems import DEFAULT_LAMBDA


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(tok) for tok in row] for row in rows[1:]]


def test_solve_writes_trajectory_and_report(tmp_path):
    out = tmp_path / "vdp.csv"
    report = tmp_path / "vdp.json"
    code = main(["solve", "--problem", "vdp", "--mu", "1000", "--tol", "1e-3",
                 "--seed", "42", "--out", str(out), "--report", str(report),
                 "--grid-size", "200"])
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["t", "y1", "y2"]
    assert len(rows) == 200
    assert rows[0][0] == 0.0 and rows[-1][0] == 3000.0
    assert rows[0][1:] == [2.0, 0.0]
    data = json.loads(report.read_text())
    assert data["schema_version"] == 1
    assert data["problem"] == "van_der_pol"
    assert data["method"] == "rpnn"
    assert data["seed"] == 42
    assert data["metrics"] is None  # no analytic reference for van der Pol
    assert data["n_points"] > 0 and data["n_segments"] > 0
    assert data["times"]["min"] > 0


def test_solve_rejects_bad_mu(tmp_path):
    assert main(["solve", "--problem", "vdp", "--mu", "-1",
                 "--out", str(tmp_path / "x.csv")]) == 1


def test_solve_usage_error_exit_code():
    assert main(["solve"]) == 1  # --problem missing
    assert main(["frobnicate"]) == 1
    assert main(["--help"]) == 0


def test_solve_prothero_report_contains_analytic_metrics(tmp_path):
    report = tmp_path / "pr.json"
    code = main(["solve", "--problem", "prothero_robinson", "--lambda", "-1e5",
                 "--tol", "1e-6", "--seed", "0", "--report", str(report),
                 "--grid-size", "3000"])
    assert code == 0
    data = json.loads(report.read_text())
    assert data["metrics"]["per_component"][0]["linf"] <= 1e-6


def test_csv_values_round_trip_to_exact_doubles(tmp_path):
    out = tmp_path / "pr.csv"
    sol_path = tmp_path / "pr_solution.json"
    code = main(["solve", "--problem", "pr", "--tol", "1e-3", "--seed", "3",
                 "--out", str(out), "--save-solution", str(sol_path),
                 "--grid-size", "64"])
    assert code == 0
    _, rows = read_csv(out)
    sol = load_solution(sol_path)
    grid = np.linspace(0.0, 2 * math.pi, 64)
    values = eval_solution(sol, grid)
    for row, t, v in zip(rows, grid, values[:, 0]):
        assert row[0] == t
        assert row[1] == v


def test_eval_round_trip_matches_direct_evaluation(tmp_path):
    sol_path = tmp_path / "rober.json"
    assert main(["solve", "--problem", "rober", "--tol", "1e-3", "--seed", "5",
                 "--save-solution", str(sol_path)]) == 0
    out = tmp_path / "eval.csv"
    assert main(["eval", "--solution", str(sol_path), "--grid-size", "1000",
                 "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert len(rows) == 1000
    direct = eval_solution(
        solve_adaptive(make_benchmark("rober"), SolverConfig(tol=1e-3, seed=5)),
        np.linspace(0.0, 40.0, 1000),
    )
    got = np.array([row[1:] for row in rows])
    assert np.all(got == direct)


def test_eval_at_stored_origin_returns_alpha(tmp_path, capsys):
    sol_path = tmp_path / "rober.json"
    assert main(["solve", "--problem", "rober", "--tol", "1e-3", "--seed", "5",
                 "--save-solution", str(sol_path)]) == 0
    assert main(["eval", "--solution", str(sol_path), "--points", "0.0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split(",") == ["t", "y1", "y2", "y3"]
    assert [float(v) for v in lines[1].split(",")] == [0.0, 1.0, 0.0, 0.0]


def test_eval_outside_domain_fails(tmp_path):
    sol_path = tmp_path / "rober.json"
    assert main(["solve", "--problem", "rober", "--tol", "1e-3", "--seed", "5",
                 "--save-solution", str(sol_path)]) == 0
    assert main(["eval", "--solution", str(sol_path), "--points", "41.0"]) == 1


def test_eval_malformed_solution_exits_3(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["eval", "--solution", str(bad)]) == 3
    missing = tmp_path / "missing.json"
    assert main(["eval", "--solution", str(missing)]) == 3


@pytest.mark.parametrize("field, value", [
    ("weights", math.nan), ("alpha", math.nan), ("biases", math.inf),
])
def test_eval_non_finite_solution_exits_3(tmp_path, field, value):
    sol_path = tmp_path / "rober.json"
    assert main(["solve", "--problem", "rober", "--tol", "1e-3", "--seed", "5",
                 "--save-solution", str(sol_path)]) == 0
    data = json.loads(sol_path.read_text())
    row = data["segments"][0][field]
    if isinstance(row[0], list):
        row = row[0]
    row[0] = value
    sol_path.write_text(json.dumps(data))
    assert main(["eval", "--solution", str(sol_path), "--grid-size", "10"]) == 3


@pytest.fixture(scope="module")
def hires_solution_data(tmp_path_factory):
    path = tmp_path_factory.mktemp("hires") / "hires.json"
    assert main(["solve", "--problem", "hires", "--tol", "1e-3", "--seed", "5",
                 "--save-solution", str(path)]) == 0
    return json.loads(path.read_text())


@pytest.mark.parametrize("field, value", [("m", 3), ("iterations", [1])])
def test_eval_solution_inconsistent_with_its_segments_exits_3(tmp_path, capsys,
                                                               hires_solution_data, field, value):
    data = dict(hires_solution_data, **{field: value})
    sol_path = tmp_path / "hires.json"
    sol_path.write_text(json.dumps(data))
    assert main(["eval", "--solution", str(sol_path), "--grid-size", "1000"]) == 3
    assert "malformed solution data" in capsys.readouterr().err


def test_solve_io_failure_exits_3(tmp_path):
    assert main(["solve", "--problem", "pr", "--tol", "1e-3",
                 "--out", str(tmp_path / "no_such_dir" / "x.csv")]) == 3


def test_json_output_format(tmp_path):
    out = tmp_path / "pr.json"
    assert main(["solve", "--problem", "pr", "--tol", "1e-3", "--seed", "1",
                 "--out", str(out), "--format", "json", "--grid-size", "10"]) == 0
    data = json.loads(out.read_text())
    assert data["columns"] == ["t", "y1"]
    assert len(data["rows"]) == 10


def test_seed_falls_back_to_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("RPNN_SEED", "271828")
    report = tmp_path / "r.json"
    assert main(["solve", "--problem", "pr", "--tol", "1e-3",
                 "--report", str(report)]) == 0
    assert json.loads(report.read_text())["seed"] == 271828


def test_solve_with_reference_method(tmp_path):
    report = tmp_path / "r.json"
    out = tmp_path / "t.csv"
    assert main(["solve", "--problem", "pr", "--method", "sdirk", "--tol", "1e-8",
                 "--out", str(out), "--report", str(report), "--grid-size", "50"]) == 0
    data = json.loads(report.read_text())
    assert data["method"] == "sdirk"
    assert data["metrics"]["per_component"][0]["linf"] <= 1e-5


def test_save_solution_requires_rpnn(tmp_path):
    assert main(["solve", "--problem", "pr", "--method", "dp45", "--tol", "1e-6",
                 "--save-solution", str(tmp_path / "s.json")]) == 1


def test_benchmark_small_suite(tmp_path):
    out = tmp_path / "summary.csv"
    report_dir = tmp_path / "reports"
    code = main(["benchmark", "--suite", "vdp", "--mu", "1", "--tol", "1e-3",
                 "--seed", "7", "--out", str(out), "--report-dir", str(report_dir)])
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    assert len(body) == 3  # one problem x three methods
    assert {row[header.index("method")] for row in body} == {"rpnn", "dp45", "sdirk"}
    assert all(row[header.index("status")] == "ok" for row in body)
    idx = header.index("linf_y1")
    rpnn_row = next(r for r in body if r[header.index("method")] == "rpnn")
    assert float(rpnn_row[idx]) < 1e-3
    reports = sorted(report_dir.glob("*.json"))
    assert len(reports) == 3
    sample = json.loads(reports[0].read_text())
    assert sample["schema_version"] == 1


def test_every_summary_row_is_its_cells_json_report(tmp_path):
    # lambda -1e3 keeps PR's dp45 cell to about 1,900 steps
    out, report_dir = tmp_path / "summary.csv", tmp_path / "reports"
    assert main(["benchmark", "--suite", "pr,rober", "--tol", "1e-3", "--lambda", "-1e3",
                 "--grid-size", "200", "--out", str(out), "--report-dir", str(report_dir)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6 == len(list(report_dir.glob("*.json")))
    assert [r["status"] for r in rows] == ["ok"] * 4 + ["error", "ok"]
    for row in rows:
        d = json.loads((report_dir / f"report_{row['problem']}_{row['method']}_0.001.json")
                       .read_text())
        assert all(row[key] == d[key] for key in ("problem", "method", "status"))
        assert row["params"] == ";".join(f"{k}={v:g}" for k, v in sorted(d["params"].items()))
        assert (float(row["tol"]), int(row["seed"])) == (d["tol"], d["seed"])
        assert (int(row["n_points"]), int(row["n_segments"])) == (d["n_points"], d["n_segments"])
        for key in ("median", "min", "max"):
            assert float(row[f"time_{key}"]) == d["times"][key]
        # ROBER's three components set the width; PR fills y1 only, an error row none
        components = d["metrics"]["per_component"] if d["metrics"] else []
        values = [c[norm] for c in components for norm in ("l2", "linf", "mae")]
        cells = [row[f"{norm}_y{i + 1}"] for i in range(3) for norm in ("l2", "linf", "mae")]
        assert [float(cell) for cell in cells[:len(values)]] == values
        assert cells[len(values):] == [""] * (9 - len(values))


def test_benchmark_empty_or_unknown_suite(tmp_path):
    assert main(["benchmark", "--suite", "", "--out", str(tmp_path / "s.csv")]) == 1
    assert main(["benchmark", "--suite", "lorenz", "--out", str(tmp_path / "s.csv")]) == 1


@pytest.mark.parametrize("tol", [["--tol", "0"], ["--tol=-1"], ["--tol", "nan"]])
def test_benchmark_rejects_a_bad_tol_as_a_usage_error_before_any_solve(tmp_path, capsys, tol):
    out = tmp_path / "summary.csv"
    code = main(["benchmark", "--suite", "pr", *tol, "--out", str(out),
                 "--report-dir", str(tmp_path / "reports")])
    assert code == 1
    assert "tolerance must be positive and finite" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "reports").exists()


def test_benchmark_rober_collocation_beats_explicit(tmp_path):
    out = tmp_path / "summary.csv"
    code = main(["benchmark", "--suite", "rober", "--tol", "1e-6", "--seed", "0",
                 "--out", str(out), "--report-dir", str(tmp_path)])
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    by_method = {row[header.index("method")]: row for row in body}
    assert by_method["rpnn"][header.index("status")] == "ok"
    assert by_method["dp45"][header.index("status")] == "ok"
    for metric in ("l2", "linf", "mae"):
        for comp in ("y1", "y2", "y3"):
            col = header.index(f"{metric}_{comp}")
            assert float(by_method["rpnn"][col]) < float(by_method["dp45"][col])


@pytest.fixture
def solver_calls(monkeypatch):
    """Record every rhs call of the problems the CLI builds: any solve makes some."""
    calls = []

    def build(name, **params):
        problem = make_benchmark(name, **params)

        def rhs(x, y):
            calls.append(x)
            return problem.rhs(x, y)

        return dataclasses.replace(problem, rhs=rhs)

    monkeypatch.setattr(cli_module, "make_benchmark", build)
    return calls


@pytest.mark.parametrize("points", ["0,nan", "nan", "nan,1.0"])
def test_solve_points_with_nan_fail_before_solving(tmp_path, solver_calls, points):
    assert main(["solve", "--problem", "pr", "--points", points,
                 "--out", str(tmp_path / "x.csv")]) == 1
    assert solver_calls == []
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("points,message", [
    ("0.5,abc", "could not parse --points"),
    ("", "--points is empty"),
    (" , ,", "--points is empty"),
])
def test_solve_points_unparsable_or_empty_fail_before_solving(tmp_path, capsys, solver_calls,
                                                              points, message):
    assert main(["solve", "--problem", "pr", "--points", points,
                 "--out", str(tmp_path / "x.csv")]) == 1
    assert message in capsys.readouterr().err
    assert solver_calls == []
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("value", ["1.5", "seven", ""])
def test_a_non_integer_rpnn_seed_is_a_usage_error(tmp_path, monkeypatch, capsys, solver_calls,
                                                  value):
    monkeypatch.setenv("RPNN_SEED", value)
    report = tmp_path / "r.json"
    assert main(["solve", "--problem", "pr", "--tol", "1e-3", "--report", str(report)]) == 1
    assert "error: RPNN_SEED must be an integer" in capsys.readouterr().err
    assert solver_calls == []
    assert not report.exists()


def test_eval_ignores_a_non_integer_rpnn_seed(tmp_path, monkeypatch, capsys):
    sol_path = tmp_path / "pr.json"
    assert main(["solve", "--problem", "pr", "--tol", "1e-3", "--seed", "5",
                 "--save-solution", str(sol_path)]) == 0
    capsys.readouterr()
    monkeypatch.setenv("RPNN_SEED", "abc")
    assert main(["eval", "--solution", str(sol_path), "--points", "0.5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert float(lines[1].split(",")[1]) == eval_solution(load_solution(sol_path), 0.5)[0]


@pytest.mark.parametrize("repeats", ["0", "-3"])
def test_solve_rejects_repeats_below_one(tmp_path, solver_calls, repeats):
    assert main(["solve", "--problem", "pr", "--repeats", repeats,
                 "--report", str(tmp_path / "r.json")]) == 1
    assert solver_calls == []


@pytest.mark.parametrize("size", ["0", "-1"])
@pytest.mark.parametrize("command", [
    ["solve", "--problem", "pr", "--report", "r.json", "--out", "x.csv"],
    ["eval", "--solution", "s.json", "--out", "x.csv"],
    ["benchmark", "--suite", "pr", "--out", "x.csv"],
])
def test_grid_size_below_one_is_a_usage_error(tmp_path, monkeypatch, capsys, solver_calls,
                                              command, size):
    monkeypatch.chdir(tmp_path)
    assert main(command + ["--grid-size", size]) == 1
    assert "--grid-size" in capsys.readouterr().err
    assert solver_calls == []
    assert list(tmp_path.iterdir()) == []


def test_solve_repeats_are_timed(tmp_path):
    report = tmp_path / "r.json"
    assert main(["solve", "--problem", "pr", "--tol", "1e-3", "--repeats", "3",
                 "--report", str(report)]) == 0
    times = json.loads(report.read_text())["times"]
    assert times["repeats"] == 3
    assert 0 < times["min"] <= times["median"] <= times["max"]


def test_suite_names_resolve_like_make_benchmark():
    assert _parse_suite("pr, VDP,rober,Hires") == [
        "prothero_robinson", "van_der_pol", "rober", "hires"]
    assert _parse_suite("rober,all") == ["prothero_robinson", "van_der_pol", "rober", "hires"]


def test_benchmark_passes_lambda_only_when_given(tmp_path, monkeypatch):
    seen = []

    def fake_run_benchmark(problems, **kwargs):
        seen.append([dict(p.params) for p in problems])
        return []

    monkeypatch.setattr(cli_module, "run_benchmark", fake_run_benchmark)
    out = str(tmp_path / "s.csv")
    main(["benchmark", "--suite", "pr", "--out", out, "--report-dir", str(tmp_path)])
    main(["benchmark", "--suite", "pr", "--lambda", "-50", "--out", out,
          "--report-dir", str(tmp_path)])
    assert seen == [[{"lambda": DEFAULT_LAMBDA}], [{"lambda": -50.0}]]


TABLE_GRID = np.array([0.0, 0.5, 1.0])
TABLE_VALUES = np.array([[1.0, -0.25], [0.1, 2e-17], [1e300, 3.0]])
TABLE_TEXT = {
    "csv": "t,y1,y2\r\n0.0,1.0,-0.25\r\n0.5,0.1,2e-17\r\n1.0,1e+300,3.0\r\n",
    "json": '{"schema_version": 1, "columns": ["t", "y1", "y2"], "rows": '
            '[[0.0, 1.0, -0.25], [0.5, 0.1, 2e-17], [1.0, 1e+300, 3.0]]}\n',
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_table_bytes_are_the_same_on_file_and_stdout(tmp_path, capsys, fmt):
    path = tmp_path / f"table.{fmt}"
    cli_module._write_table(str(path), TABLE_GRID, TABLE_VALUES, fmt)
    assert path.read_bytes() == TABLE_TEXT[fmt].encode()
    cli_module._write_table(None, TABLE_GRID, TABLE_VALUES, fmt)
    assert capsys.readouterr().out == TABLE_TEXT[fmt]


def test_failed_solve_writes_an_error_report(tmp_path, monkeypatch):
    def fail(problem, method, tol, seed):
        raise StepUnderflowError("stuck", abscissa=0.5)

    monkeypatch.setattr(metrics_module, "_solve_cell", fail)
    report = tmp_path / "r.json"
    assert main(["solve", "--problem", "vdp", "--mu", "10", "--method", "dp45", "--tol", "1e-4",
                 "--seed", "3", "--report", str(report)]) == 2
    assert json.loads(report.read_text()) == {
        "schema_version": 1, "problem": "van_der_pol", "params": {"mu": 10.0},
        "method": "dp45", "tol": 1e-4, "seed": 3, "metrics": None, "n_points": 0,
        "n_segments": 0, "times": {"median": 0.0, "min": 0.0, "max": 0.0, "repeats": 0},
        "status": "error", "detail": "stuck",
    }


def test_solve_report_is_the_benchmark_report_of_the_same_cell(tmp_path):
    report = tmp_path / "r.json"
    assert main(["solve", "--problem", "pr", "--lambda", "-1e5", "--tol", "1e-3", "--seed", "0",
                 "--grid-size", "500", "--report", str(report)]) == 0
    (cell,) = run_benchmark([make_benchmark("pr", lam=-1e5)], tol=1e-3, seed=0,
                            grid_size=500, methods=("rpnn",))
    solved, benched = json.loads(report.read_text()), metrics_module.report_to_dict(cell)
    assert solved.pop("times")["repeats"] == benched.pop("times")["repeats"] == 1
    assert solved["metrics"]["grid_size"] == 500
    assert solved == benched

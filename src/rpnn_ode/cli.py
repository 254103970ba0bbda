"""Command-line front end: solve, benchmark, eval.

``solve`` and ``benchmark`` share the library's paths: one cell's solve,
timing and report come from :func:`rpnn_ode.metrics.run_cell`, and the problem
names and aliases from :func:`rpnn_ode.problems.canonical_name`.  Exit codes: 0
success, 1 usage/argument error, 2 solver failure, 3 I/O failure.  The seed
of solve and benchmark falls back to $RPNN_SEED when --seed is not given.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from contextlib import nullcontext

import numpy as np

from .errors import NumericError, StepUnderflowError, _integer
from .metrics import METHODS, RunReport, report_to_dict, run_benchmark, run_cell
from .problems import BENCHMARK_NAMES, canonical_name, make_benchmark
from .serialize import SolutionFormatError, load_solution, save_solution

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SOLVER = 2
EXIT_IO = 3


def _fmt(value: float) -> str:
    """Shortest decimal form that parses back to the same double."""
    return repr(float(value))


def _default_seed() -> int:
    return int(os.environ.get("RPNN_SEED", "0"))


def _parse_points(text: str) -> np.ndarray:
    try:
        pts = np.array([float(tok) for tok in text.split(",") if tok.strip() != ""])
    except ValueError as exc:
        raise ValueError(f"could not parse --points: {exc}") from exc
    if len(pts) == 0:
        raise ValueError("--points is empty")
    return pts


def _grid_size(text: str) -> int:
    """argparse type of --grid-size: an integer of at least 1."""
    size = int(text)
    try:
        return _integer("grid size", size, 1)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _build_problem(args):
    params = {}
    if args.mu is not None:
        params["mu"] = args.mu
    if args.lam is not None:
        params["lam"] = args.lam
    return make_benchmark(args.problem, **params)


def _output_grid(args, x0: float, x_end: float) -> np.ndarray:
    if args.points is not None:
        pts = _parse_points(args.points)
        if not (pts.min() >= x0 and pts.max() <= x_end):  # NaN fails too
            raise ValueError(f"requested points leave the domain [{x0}, {x_end}]")
        return pts
    return np.linspace(x0, x_end, args.grid_size)


def _write_table(path, grid: np.ndarray, values: np.ndarray, fmt: str) -> None:
    """Write t and y1..ym as csv or json to path, or to stdout when path is None."""
    columns = ["t"] + [f"y{i + 1}" for i in range(values.shape[1])]
    sink = nullcontext(sys.stdout) if path is None else open(path, "w", newline="", encoding="utf-8")
    with sink as fh:
        if fmt == "json":
            rows = [[float(t)] + [float(v) for v in row] for t, row in zip(grid, values)]
            json.dump({"schema_version": 1, "columns": columns, "rows": rows}, fh)
            fh.write("\n")
        else:
            writer = csv.writer(fh)
            writer.writerow(columns)
            writer.writerows([_fmt(t)] + [_fmt(v) for v in row] for t, row in zip(grid, values))


def _cmd_solve(args) -> int:
    problem = _build_problem(args)
    grid = _output_grid(args, problem.x0, problem.x_end)
    if args.save_solution and args.method != "rpnn":
        raise ValueError("--save-solution only applies to --method rpnn")

    try:
        evaluable, report = run_cell(problem, args.method, args.tol, args.seed, args.repeats,
                                     problem.analytic if args.report else None, grid)
    except (StepUnderflowError, NumericError) as failure:
        if args.report:
            report = RunReport.failed(problem, args.method, args.tol, args.seed, str(failure))
            _dump_json(args.report, report_to_dict(report))
        raise  # main reports the failure and exits EXIT_SOLVER

    if args.out:
        _write_table(args.out, grid, evaluable(grid), args.format)
    if args.save_solution:
        save_solution(evaluable, args.save_solution)
    if args.report:
        _dump_json(args.report, report_to_dict(report))
    return EXIT_OK


def _parse_suite(text: str) -> list[str]:
    """Full names of a comma list of problems, each once; "all" (any case) selects every one."""
    names = [tok.strip() for tok in text.split(",") if tok.strip()]
    if not names:
        raise ValueError("empty --suite selection")
    keys = [None if name.lower() == "all" else canonical_name(name) for name in names]
    return list(BENCHMARK_NAMES) if None in keys else list(dict.fromkeys(keys))


def _cmd_benchmark(args) -> int:
    suite = _parse_suite(args.suite)
    # each mu once: a repeated one would write the same report path twice
    mu_values = dict.fromkeys(map(float, str(args.mu).split(","))) if args.mu else [100.0]
    problems = []
    for name in suite:
        if name == "van_der_pol":
            problems.extend(make_benchmark(name, mu=mu) for mu in mu_values)
        elif name == "prothero_robinson" and args.lam is not None:
            problems.append(make_benchmark(name, lam=args.lam))
        else:
            problems.append(make_benchmark(name))
    reports = run_benchmark(
        problems, tol=args.tol, seed=args.seed, repeats=args.repeats, grid_size=args.grid_size
    )
    os.makedirs(args.report_dir, exist_ok=True)
    for report in reports:
        mu_tag = ""
        if report.problem == "van_der_pol":
            mu_tag = f"_mu{report.params.get('mu'):g}"
        path = os.path.join(
            args.report_dir, f"report_{report.problem}{mu_tag}_{report.method}_{report.tol:g}.json"
        )
        _dump_json(path, report_to_dict(report))
    _write_summary_csv(args.out, reports)
    ok = sum(r.status == "ok" for r in reports)
    print(f"benchmark: {ok}/{len(reports)} cells succeeded; summary in {args.out}")
    return EXIT_OK if ok else EXIT_SOLVER


def _write_summary_csv(path, reports: list[RunReport]) -> None:
    """One row per report, read from its JSON form; metric cells are blank where it has none."""
    rows = [report_to_dict(r) for r in reports]
    components = [d["metrics"]["per_component"] if d["metrics"] else [] for d in rows]
    max_m = max(map(len, components), default=0)
    header = ["problem", "params", "method", "tol", "seed", "status",
              "n_points", "n_segments", "time_median", "time_min", "time_max"]
    header += [f"{norm}_y{i + 1}" for i in range(max_m) for norm in ("l2", "linf", "mae")]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for d, comps in zip(rows, components):
            params = ";".join(f"{k}={v:g}" for k, v in sorted(d["params"].items()))
            cells = [_fmt(value) for c in comps for value in c.values()]  # l2, linf, mae
            writer.writerow([d["problem"], params, d["method"], _fmt(d["tol"]), d["seed"],
                             d["status"], d["n_points"], d["n_segments"],
                             *(_fmt(d["times"][k]) for k in ("median", "min", "max")),
                             *cells, *[""] * (3 * max_m - len(cells))])


def _cmd_eval(args) -> int:
    sol = load_solution(args.solution)
    grid = _output_grid(args, sol.x0, sol.x_end)
    values = sol(grid)
    _write_table(args.out, grid, values, args.format)
    return EXIT_OK


def _dump_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rpnn-ode",
        description="Random-projection RBF collocation solver for stiff ODE initial-value problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve one problem and write trajectory/report files")
    solve.add_argument("--problem", required=True,
                       help="prothero_robinson|pr, van_der_pol|vdp, rober, hires")
    solve.add_argument("--mu", type=float, default=None, help="van der Pol stiffness parameter")
    solve.add_argument("--lambda", dest="lam", type=float, default=None,
                       help="Prothero-Robinson stiffness parameter (negative)")
    solve.add_argument("--tol", type=float, default=1e-6, help="residual tolerance")
    solve.add_argument("--seed", type=int, default=None, help="random seed (default: $RPNN_SEED or 0)")
    solve.add_argument("--method", choices=METHODS, default="rpnn")
    solve.add_argument("--repeats", type=int, default=1, help="timing repetitions")
    solve.add_argument("--grid-size", type=_grid_size, default=1000, help="output points (equidistant)")
    solve.add_argument("--points", default=None, help="explicit comma-separated output abscissae")
    solve.add_argument("--out", default=None, help="trajectory table path")
    solve.add_argument("--report", default=None, help="JSON run-report path")
    solve.add_argument("--save-solution", default=None, help="serialized solution path (rpnn only)")
    solve.add_argument("--format", choices=("csv", "json"), default="csv")

    bench = sub.add_parser("benchmark", help="run the benchmark suite and write a summary table")
    bench.add_argument("--suite", required=True, help="'all' or comma list of problem names")
    bench.add_argument("--mu", default=None, help="comma list of van der Pol mu values (default 100)")
    bench.add_argument("--lambda", dest="lam", type=float, default=None)
    bench.add_argument("--tol", type=float, default=1e-3)
    bench.add_argument("--seed", type=int, default=None)
    bench.add_argument("--repeats", type=int, default=1)
    bench.add_argument("--grid-size", type=_grid_size, default=None, help="override metric grid size")
    bench.add_argument("--out", default="benchmark_summary.csv", help="summary CSV path")
    bench.add_argument("--report-dir", default=".", help="directory for per-cell JSON reports")

    ev = sub.add_parser("eval", help="evaluate a stored solution on a grid")
    ev.add_argument("--solution", required=True, help="serialized solution JSON")
    ev.add_argument("--grid-size", type=_grid_size, default=1000)
    ev.add_argument("--points", default=None)
    ev.add_argument("--out", default=None, help="output table path (stdout when omitted)")
    ev.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


_VALUE_FLAGS = {"--lambda", "--mu", "--tol", "--points", "--seed"}


def _join_negative_values(argv):
    """Rewrite ['--lambda', '-1e5'] as ['--lambda=-1e5'].

    argparse only recognizes plain negative integers/decimals as values, not
    scientific notation, so negative values in exponent form would otherwise
    be mistaken for option names.
    """
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else ""
        if tok in _VALUE_FLAGS and len(nxt) > 1 and nxt[0] == "-" and nxt[1].isdigit():
            out.append(f"{tok}={nxt}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = _join_negative_values(list(argv))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors; remap
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    if hasattr(args, "seed") and args.seed is None:  # eval has no --seed
        try:
            args.seed = _default_seed()
        except ValueError:
            print("error: RPNN_SEED must be an integer", file=sys.stderr)
            return EXIT_USAGE
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "benchmark":
            return _cmd_benchmark(args)
        return _cmd_eval(args)
    except SolutionFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (StepUnderflowError, NumericError) as exc:
        print(f"error: solver failed: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

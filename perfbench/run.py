"""End-to-end benchmark of rpnn-ode.

    python3 perfbench/run.py --workload hires-rpnn --seed 1 --seconds 45 --trace 0

Run from the root of a checkout.  The library is imported from ``src/`` of
that checkout (pure Python, nothing to build).  One process, a closed loop:
one operation at a time, no threads of its own, BLAS threads left at the
machine default.  The run repeats whole rounds of the workload's operations
until ``--seconds`` would be exceeded (at least one round), checks every
output, and prints as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics and wraps nothing.  ``--trace 1``
reports the per-layer metrics: each round runs once plain and once with the
layers' functions wrapped (see ``layertrace.py``), and the difference of the
two wall times is the tracing overhead.  Metric names and units come from
``BENCHMARK.json``.  A record of the run (machine, per-round samples,
fingerprints) is written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
from layertrace import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
# Set-up is timed 3 times before the first round and twice after every round:
# machine speed drifts over seconds, and set-ups spread over the run see it
# as the rounds do.
SETUP_FIRST, SETUP_PER_ROUND = 3, 2

RPNN_TOL = 1e-6  # the paper's tolerance, default SolverConfig otherwise
SDIRK_TOL = 1e-12  # the reference tolerance of metrics.reference_solution
DP45_TOL = 1e-6  # the ode45 baseline at the rpnn tolerance


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "rpnn" or "classical"
    problem: str
    params: dict
    ref: str  # file stem under refs/
    # method -> check limits on the (mean, max) mixed error, in units of tol
    limits: dict
    # evaluations of each solution per round, so that a round spends about a
    # second evaluating and the rate is not read off one short call
    eval_repeats: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("hires-rpnn", "rpnn", "hires", {}, "hires", {"rpnn": (10.0, 100.0)}, 1),
        Workload("hires-classical", "classical", "hires", {}, "hires",
                 {"sdirk": (10.0, 1e3), "dp45": (10.0, 100.0)}, 5),
    )
}

LAYERS = (
    "basis.sample_basis",
    "collocation.assemble_residual",
    "collocation.assemble_jacobian",
    "problems.rhs",
    "problems.ode_jacobian",
    "leastnorm.truncated_pinv_solve",
    "solver.gauss_newton_train",
    "trial.trial_eval",
)


class Tally:
    """Operations attempted and failed.

    An operation fails when it raises or when its output fails a check;
    ``wrong`` counts the latter, which make the run's result incorrect.
    """

    def __init__(self):
        self.attempted = self.failed = self.wrong = 0
        self.notes = []

    def run(self, label, fn, *args):
        """Time one operation; (result, seconds), or (None, None) if it raised."""
        self.attempted += 1
        start = perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # a raising operation is counted, the run goes on
            self.failed += 1
            self.notes.append(f"{label}: {type(exc).__name__}: {exc}")
            return None, None
        return result, perf_counter() - start

    def skip(self, label):
        """An operation that cannot run because the one it needs failed."""
        self.attempted += 1
        self.failed += 1
        self.notes.append(f"{label}: skipped, its input failed")

    def check(self, label, problems):
        if problems:
            self.failed += 1
            self.wrong += 1
            self.notes.append(f"{label}: " + "; ".join(problems))


@dataclass
class Context:
    """Everything set up before timing starts."""

    rp: object  # the freshly imported rpnn_ode package
    problem: object
    ref: checks.Reference
    grid: np.ndarray
    workload: Workload
    first_fingerprint: dict = field(default_factory=dict)


def import_program():
    """Import rpnn_ode afresh from this checkout's src/ (module-level work included)."""
    for name in [m for m in sys.modules if m == "rpnn_ode" or m.startswith("rpnn_ode.")]:
        del sys.modules[name]
    rp = importlib.import_module("rpnn_ode")
    if Path(rp.__file__).resolve().parent != SRC / "rpnn_ode":
        raise ImportError(f"rpnn_ode imported from {rp.__file__}, not from {SRC}")
    return rp


def set_up(workload: Workload) -> Context:
    rp = import_program()
    problem = rp.make_benchmark(workload.problem, **workload.params)
    ref = checks.Reference.load(BENCH_DIR / "refs" / f"{workload.ref}.npz")
    grid = np.linspace(problem.x0, problem.x_end, ref.grid_size)
    mismatch = checks.problem_matches(problem, ref, grid)
    if mismatch:
        raise ValueError(f"{workload.name}: " + "; ".join(mismatch))
    return Context(rp, problem, ref, grid, workload)


def evaluate(ctx: Context, tally: Tally, label: str, fn, solution, times: list):
    """Evaluate a solution eval_repeats times on the metric grid; the first output.

    Every repeat must return the first output bit for bit.
    """
    first = None
    for _ in range(ctx.workload.eval_repeats):
        values, seconds = tally.run(label, fn, solution, ctx.grid)
        if values is None:
            continue
        times.append(seconds)
        if first is None:
            first = values
        else:
            tally.check(label, [] if np.array_equal(values, first)
                        else ["repeated evaluation is not bitwise identical"])
    return first


def rpnn_round(ctx: Context, tally: Tally, solver_seed: int, fns: dict) -> dict:
    """Solve, solve again with the same seed, evaluate on the metric grid."""
    rp, ref = ctx.rp, ctx.ref
    config = rp.SolverConfig(tol=RPNN_TOL, seed=solver_seed)
    sol, t_solve = tally.run("solve", fns["solve"], fns["problem"], config)
    repeat, t_repeat = tally.run("repeat solve", fns["solve"], fns["problem"], config)
    sample = {"solver_seed": solver_seed, "solve_s": [t for t in (t_solve, t_repeat) if t],
              "eval_s": []}
    if sol is None:
        for _ in range(ctx.workload.eval_repeats):
            tally.skip("eval")
        return sample
    values = evaluate(ctx, tally, "eval", fns["eval"], sol, sample["eval_s"])
    fingerprint = checks.piecewise_fingerprint(sol)
    tally.check("solve", checks.piecewise_structure(sol, ref, rp.trial_eval, config.n))
    if repeat is not None:
        tally.check("repeat solve", [] if checks.piecewise_fingerprint(repeat) == fingerprint
                    else ["repeat solve with the same seed is not bitwise identical"])
    if values is not None:
        tally.check("eval", checks.starts_at_alpha(values, ref)
                    + checks.accuracy(values, ref, RPNN_TOL, *ctx.workload.limits["rpnn"]))
    sample.update(points=sol.total_points, segments=sol.n_segments, fingerprint=fingerprint)
    return sample


def classical_round(ctx: Context, tally: Tally, solver_seed: int, fns: dict) -> dict:
    """sdirk reference at 1e-12, dp45 at 1e-6, dense evaluation of both."""
    rp, ref = ctx.rp, ctx.ref
    sample = {"solve_s": [], "eval_s": [], "points": 0, "fingerprint": {}}
    for method, tol in (("sdirk", SDIRK_TOL), ("dp45", DP45_TOL)):
        ctrl = rp.StepControl(abs_tol=tol, rel_tol=tol)
        traj, t_solve = tally.run(f"{method}_solve", fns[method], fns["problem"], ctrl)
        if traj is None:
            for _ in range(ctx.workload.eval_repeats):
                tally.skip(f"dense_eval {method}")
            continue
        values = evaluate(ctx, tally, f"dense_eval {method}", fns["dense"], traj,
                          sample["eval_s"])
        fingerprint = checks.trajectory_fingerprint(traj)
        expected = ctx.first_fingerprint.setdefault(method, fingerprint)
        tally.check(f"{method}_solve", checks.trajectory_structure(traj, ref) + (
            [] if fingerprint == expected else ["repeat solve is not bitwise identical"]))
        if values is not None:
            tally.check(f"dense_eval {method}", checks.dense_end_states(values, traj)
                        + checks.accuracy(values, ref, tol, *ctx.workload.limits[method]))
        sample["solve_s"].append(t_solve)
        sample["points"] += len(traj.abscissae)
        sample["fingerprint"][method] = fingerprint
        sample[f"{method}_steps"] = traj.n_steps
        sample[f"{method}_rejected"] = traj.n_rejected
    return sample


ROUNDS = {"rpnn": rpnn_round, "classical": classical_round}


def plain_fns(ctx: Context) -> dict:
    rp = ctx.rp
    return {"problem": ctx.problem, "solve": rp.solve_adaptive, "eval": rp.eval_solution,
            "sdirk": rp.sdirk_solve, "dp45": rp.dp45_solve, "dense": rp.dense_eval}


def traced_fns(ctx: Context, tracer: Tracer) -> dict:
    rp = ctx.rp

    def solve_record(tracer, args, sol, inner):
        tracer.records.append({
            "segments": sol.n_segments,
            "attempts": inner.get("solver.gauss_newton_train", 0),
            "fingerprint": checks.piecewise_fingerprint(sol),
        })

    def sdirk_rhs(tracer, args, traj, inner):
        tracer.counts["integrators.sdirk_solve.rhs_calls"] += inner.get("problems.rhs", 0)

    return {
        "problem": tracer.problem(ctx.problem),
        "solve": tracer.wrap("solver.solve_adaptive", rp.solve_adaptive, solve_record),
        "eval": tracer.wrap("solver.eval_solution", rp.eval_solution),
        "sdirk": tracer.wrap("integrators.sdirk_solve", rp.sdirk_solve, sdirk_rhs),
        "dp45": tracer.wrap("integrators.dp45_solve", rp.dp45_solve),
        "dense": tracer.wrap("integrators.dense_eval", rp.dense_eval),
    }


def layer_metrics(tracer: Tracer, sample: dict) -> dict:
    """Per-layer values of one traced round."""
    out = {}
    for name in LAYERS:
        out[f"{name}.calls"] = tracer.calls[name]
        out[f"{name}.s"] = tracer.seconds[name]
    for name in ("leastnorm.gflop_computed", "solver.gauss_newton_train.failed",
                 "solver.gauss_newton_train.iterations", "integrators.sdirk_solve.rhs_calls"):
        out[name] = tracer.counts[name]
    out["solver.solve_adaptive.self_s"] = tracer.self_seconds["solver.solve_adaptive"]
    out["solver.eval_solution.s"] = tracer.seconds["solver.eval_solution"]
    out["solver.eval_solution.self_s"] = tracer.self_seconds["solver.eval_solution"]
    for method in ("sdirk", "dp45"):
        out[f"integrators.{method}_solve.s"] = tracer.seconds[f"integrators.{method}_solve"]
        out[f"integrators.{method}_solve.steps"] = sample.get(f"{method}_steps", 0)
        out[f"integrators.{method}_solve.rejected"] = sample.get(f"{method}_rejected", 0)
    out["integrators.dense_eval.s"] = tracer.seconds["integrators.dense_eval"]
    return out


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def summarize_layers(rounds: list[dict], overheads: list[float]) -> dict:
    """Median per round of each layer value; ratios from totals over the rounds."""
    out = {name: statistics.median(r[name] for r in rounds) for name in rounds[0]}
    total = {name: sum(r[name] for r in rounds) for name in rounds[0]}
    attempts = total["solver.gauss_newton_train.calls"]
    out["solver.accepted_per_attempt"] = ratio(
        attempts - total["solver.gauss_newton_train.failed"], attempts)
    out["integrators.sdirk_solve.rhs_per_step"] = ratio(
        total["integrators.sdirk_solve.rhs_calls"], total["integrators.sdirk_solve.steps"])
    del out["integrators.sdirk_solve.rhs_calls"]
    out["trace.overhead_s"] = statistics.median(overheads)
    return out


def summarize_end_to_end(samples: list[dict], setup_times: list[float], grid_size: int) -> dict:
    if "segments" in samples[0]:  # rpnn: every solve is one sample
        solve = statistics.median(t for s in samples for t in s["solve_s"])
    else:  # classical: the sdirk reference plus the dp45 baseline of one round
        solve = statistics.median(sum(s["solve_s"]) for s in samples)
    return {
        "setup_s": statistics.median(setup_times),
        "solve_s": solve,
        "eval_mpts_s": statistics.median(
            len(s["eval_s"]) * grid_size / sum(s["eval_s"]) / 1e6 for s in samples if s["eval_s"]),
        "solution_points": statistics.median(s["points"] for s in samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def machine() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.26 has no dict form
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rpnn_ode" / "__init__.py").is_file():
        print(f"error: no rpnn_ode package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload]
    print("machine: " + json.dumps(machine()), flush=True)

    setup_times = []

    def timed_set_up(times: int) -> Context:
        for _ in range(times):
            start = perf_counter()
            fresh = set_up(workload)
            setup_times.append(perf_counter() - start)
        return fresh

    ctx = timed_set_up(SETUP_FIRST)

    play = ROUNDS[workload.kind]
    tally = Tally()
    samples, layer_rounds, overheads = [], [], []
    plain = plain_fns(ctx)
    begin = perf_counter()
    last = 0.0
    index = 0
    while index == 0 or perf_counter() - begin + last <= args.seconds:
        round_start = perf_counter()
        solver_seed = 1000 * args.seed + index  # the only input a seed changes
        sample = play(ctx, tally, solver_seed, plain)
        plain_wall = perf_counter() - round_start
        samples.append(sample)
        if args.trace:
            tracer = Tracer()
            traced_start = perf_counter()
            with tracer.patched(ctx.rp.solver):
                traced = play(ctx, tally, solver_seed, traced_fns(ctx, tracer))
            overheads.append(perf_counter() - traced_start - plain_wall)
            layer_rounds.append(layer_metrics(tracer, traced))
            sample["traced_fingerprints"] = tracer.records
        timed_set_up(SETUP_PER_ROUND)  # the rounds keep using ctx
        last = perf_counter() - round_start
        index += 1
        print(f"round {index - 1}: " + json.dumps(
            {k: v for k, v in sample.items() if k not in ("solve_s", "eval_s")}), flush=True)

    if args.trace:
        values, section = summarize_layers(layer_rounds, overheads), "per_layer"
    else:
        values, section = summarize_end_to_end(samples, setup_times, len(ctx.grid)), "end_to_end"
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in spec[section]}
    result = {"correct": tally.wrong == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}

    OUT_DIR.mkdir(exist_ok=True)
    record = {"args": vars(args), "machine": machine(), "rounds": samples,
              "setup_s": setup_times, "notes": tally.notes, "result": result}
    if args.trace:
        record["layer_rounds"] = layer_rounds
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n")
    for note in tally.notes:
        print(f"failed: {note}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""SHA-256 fingerprints of solver outputs, to check a change bit for bit.

    python3 tools/fingerprints.py --seed 0 --seed 1
    python3 tools/fingerprints.py --problem pr --method rpnn --base HEAD~1

Prints one line ``<case> <prefix>`` per case, the prefix being the first 16
hex digits of a SHA-256 over the case's arrays (dtype, shape and bytes):

* ``rpnn <problem> tol=<tol> seed=<seed> solve``: the knots, every segment's
  weights and the iteration counts of ``solve_adaptive`` with the default
  ``SolverConfig`` at that tol and seed;
* ``dp45|sdirk <problem> tol=<tol> solve``: the trajectory's abscissae,
  states, derivatives, dense-output extension and rejected-step count, with
  abs_tol = rel_tol = tol;
* ``... eval-sorted`` and ``... eval-shuffled``: the solution evaluated on
  the problem's metric grid, in order and permuted (numpy seed 0).

After the cases, a line ``# workers <k>`` gives the number of threads that
the solves and evaluations could use (``trial._WORKERS``: 2 where the
process may run on two or more CPUs, else 1).  With 1, no solve trained an
attempt on a worker thread and no evaluation was split, so a bitwise
check run there does not cover the threaded paths; the line then says so,
as it says when the revision has no ``trial._WORKERS`` and so no threaded
paths at all.
With 2, the line gives the Jacobian size from which a solve trains on the
worker (``solver._WORKER_MIN_JACOBIAN``): at the default ``SolverConfig``
only HIRES reaches it, so the other problems check the one-thread solve and
the split evaluation.  ``tests/test_solver.py`` checks the worker's bits on
every problem.

A solve that raises is fingerprinted by its exception's type and message,
and then has no evaluation cases.  The problems are HIRES, ROBER, van der Pol
mu=100 and Prothero-Robinson lam=-1e5, at tol 1e-3 and 1e-6; ``--problem``,
``--tol``, ``--seed`` (default 0) and ``--method`` pick a subset.

``--base REV`` exports REV's files into a temporary directory, as
``tools/bench_pairs.export`` does, runs the same cases on its ``src/`` in a
child process, and lists the cases whose fingerprints differ; the exit status
is 1 when any does.  When ``git archive`` or the child fails, the command, its
exit status and its stderr are printed and the exit status is 1.  Only numpy
and the package under test are imported.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
PROBLEMS = {"hires": {}, "rober": {}, "vdp": {"mu": 100.0}, "pr": {"lam": -1e5}}
TOLS = (1e-3, 1e-6)
METHODS = ("rpnn", "dp45", "sdirk")


def digest(*arrays) -> str:
    """First 16 hex digits of a SHA-256 over each array's dtype, shape and bytes."""
    sha = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        sha.update(f"{array.dtype.str}{array.shape}".encode())
        sha.update(array.tobytes())
    return sha.hexdigest()[:16]


def _solve(rp, problem, method: str, tol: float, seed: int | None):
    """(solution, evaluator, the arrays that fingerprint the solve)."""
    if method == "rpnn":
        sol = rp.solve_adaptive(problem, rp.SolverConfig(tol=tol, seed=seed))
        return sol, rp.eval_solution, (sol.knots, *(s.weights for s in sol.segments),
                                       np.array(sol.iterations))
    solve = rp.dp45_solve if method == "dp45" else rp.sdirk_solve
    traj = solve(problem, rp.StepControl(abs_tol=tol, rel_tol=tol))
    extension = np.empty(0) if traj.extension is None else traj.extension
    return traj, rp.dense_eval, (traj.abscissae, traj.states, traj.derivatives, extension,
                                 np.array(traj.n_rejected))


def fingerprints(problems, tols, seeds, methods, src: Path = ROOT / "src") -> dict[str, str]:
    """Case name -> fingerprint, for rpnn_ode imported from src (unless this
    process has imported it already)."""
    sys.path.insert(0, str(src))
    import rpnn_ode as rp

    out = {}
    for name in problems:
        problem = rp.make_benchmark(name, **PROBLEMS[name])
        grid = rp.metric_grid(problem)
        shuffled = np.random.default_rng(0).permutation(grid)
        for tol in tols:
            for method in methods:
                for seed in seeds if method == "rpnn" else (None,):
                    case = f"{method} {name} tol={tol:g}"
                    case += "" if seed is None else f" seed={seed}"
                    try:
                        sol, evaluate, arrays = _solve(rp, problem, method, tol, seed)
                    except Exception as exc:  # a failing solve is an output too
                        out[f"{case} solve"] = digest(np.frombuffer(
                            f"{type(exc).__name__}: {exc}".encode(), dtype=np.uint8))
                        continue
                    out[f"{case} solve"] = digest(*arrays)
                    out[f"{case} eval-sorted"] = digest(evaluate(sol, grid))
                    out[f"{case} eval-shuffled"] = digest(evaluate(sol, shuffled))
    return out


def parse(text: str) -> dict[str, str]:
    """The fingerprints printed by this script, back as a dict; ``#`` lines are skipped."""
    return dict(line.rsplit(" ", 1) for line in text.splitlines()
                if line.strip() and not line.startswith("#"))


def workers_line() -> str:
    """The ``# workers`` line for the rpnn_ode that this process imported."""
    rpnn_ode = sys.modules["rpnn_ode"]
    workers = getattr(rpnn_ode.trial, "_WORKERS", None)  # None in older revisions
    if workers is None:
        return "# workers 1 (this revision has no worker-thread paths)"
    if workers < 2:
        return f"# workers {workers} (one usable CPU: the worker-thread paths did not run)"
    gate = getattr(rpnn_ode.solver, "_WORKER_MIN_JACOBIAN", None)  # None in older revisions
    return f"# workers {workers}" + ("" if gate is None else
                                     f" (solves train on the worker from {gate} Jacobian entries on)")


def differing(base: dict[str, str], head: dict[str, str]) -> list[str]:
    """Cases of either side that the other lacks or fingerprints differently, sorted."""
    return sorted(case for case in base.keys() | head.keys() if base.get(case) != head.get(case))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--problem", action="append", choices=PROBLEMS)
    parser.add_argument("--tol", action="append", type=float)
    parser.add_argument("--seed", action="append", type=int)
    parser.add_argument("--method", action="append", choices=METHODS)
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the rpnn_ode package to run (default: src/)")
    parser.add_argument("--base", metavar="REV", help="compare with the cases run on REV's src/")
    args = parser.parse_args(argv)
    picks = {"problem": args.problem or list(PROBLEMS), "tol": args.tol or list(TOLS),
             "seed": args.seed or [0], "method": args.method or list(METHODS)}
    base = None
    if args.base is not None:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from bench_pairs import export, run

        flags = [arg for key, values in picks.items()
                 for value in values for arg in (f"--{key}", str(value))]
        with tempfile.TemporaryDirectory() as tmp:
            export(args.base, Path(tmp))
            base = parse(run([sys.executable, __file__, "--src", str(Path(tmp) / "src"),
                              *flags]).decode())
    head = fingerprints(picks["problem"], picks["tol"], picks["seed"], picks["method"], args.src)
    for case, value in head.items():
        print(f"{case} {value}", flush=True)
    print(workers_line(), flush=True)
    if base is None:
        return 0
    cases = differing(base, head)
    print(f"{len(cases)} of {len(base.keys() | head.keys())} cases differ from {args.base}"
          + "".join(f"\n  {case}" for case in cases))
    return 1 if cases else 0


if __name__ == "__main__":
    sys.exit(main())

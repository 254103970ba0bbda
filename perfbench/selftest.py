"""Self-test of the benchmark's correctness checks.

    python3 perfbench/selftest.py

Feeds the benchmark's own rounds with outputs that are known to be wrong and
expects exactly the operations that produced them to be counted as failed,
incorrect operations, while the untouched outputs pass.  One real rpnn solve
and one real dp45 solve of HIRES are made; the cases reuse copies of them.
Exits 1 if any expectation fails.
"""

from __future__ import annotations

import copy
import dataclasses
import sys

import numpy as np

import run


def piecewise_cases(ctx):
    config = ctx.rp.SolverConfig(tol=run.RPNN_TOL, seed=0)
    honest = ctx.rp.solve_adaptive(ctx.problem, config)
    middle = honest.n_segments // 2

    def perturbed():
        sol = copy.deepcopy(honest)
        # the last node is centred on the segment's right end, where its
        # Gaussian is at least exp(-9/8), so the segment's end value moves
        sol.segments[middle].weights[-1, 0] += 1e-9
        return sol

    def solver(first, second):
        calls = iter((first, second))
        return {"solve": lambda problem, config: next(calls)()}

    def same():
        return copy.deepcopy(honest)

    shifted = dataclasses.replace(ctx.ref, values=np.roll(ctx.ref.values, 1, axis=0))
    return [
        ("rpnn honest output", ctx, solver(same, same), set()),
        ("rpnn perturbed weights (C0 at a knot)", ctx, solver(perturbed, perturbed), {"solve"}),
        ("rpnn repeat solve differs", ctx, solver(same, perturbed), {"repeat solve"}),
        ("rpnn mismatched reference", dataclasses.replace(ctx, ref=shifted),
         solver(same, same), {"eval"}),
    ]


def classical_cases(ctx):
    ctrl = ctx.rp.StepControl(abs_tol=run.DP45_TOL, rel_tol=run.DP45_TOL)
    dp45 = ctx.rp.dp45_solve(ctx.problem, ctrl)
    states = dp45.states.copy()
    states[0, 0] += 1e-9
    moved_start = dataclasses.replace(dp45, states=states)
    return [
        # the dp45 1e-6 trajectory stands in for the sdirk 1e-12 reference
        ("classical trajectory less accurate than its tolerance", ctx,
         {"sdirk": lambda p, c: dp45, "dp45": lambda p, c: dp45}, {"dense_eval sdirk"}),
        ("classical trajectory not starting at alpha", ctx,
         {"sdirk": lambda p, c: dp45, "dp45": lambda p, c: moved_start},
         {"dense_eval sdirk", "dp45_solve"}),
    ]


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    ok = True
    cases = piecewise_cases(run.set_up(run.WORKLOADS["hires-rpnn"]))
    cases += classical_cases(run.set_up(run.WORKLOADS["hires-classical"]))
    for name, ctx, fakes, expected in cases:
        tally = run.Tally()
        fns = {**run.plain_fns(ctx), **fakes}
        ctx = dataclasses.replace(ctx, first_fingerprint={})
        run.ROUNDS[ctx.workload.kind](ctx, tally, 0, fns)
        failed = {note.split(":")[0] for note in tally.notes}
        passed = failed == expected and tally.failed == tally.wrong == len(expected)
        ok &= passed
        print(f"{'PASS' if passed else 'FAIL'} {name}: attempted {tally.attempted}, "
              f"failed {tally.failed}" + "".join(f"\n    {note}" for note in tally.notes))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

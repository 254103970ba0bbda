"""Per-layer timing for the traced benchmark run.

The library imports its helpers by name (``from .collocation import
assemble_residual``), so a function is wrapped where its caller looks it up:
``rpnn_ode.solver.assemble_residual``, not ``rpnn_ode.collocation.…``.  The
problem's rhs and Jacobian are closures held by the frozen ``OdeProblem``, so
they are wrapped on a copy made with ``dataclasses.replace``.  Nothing under
``src/`` changes, and the plain run installs none of this.
"""

from __future__ import annotations

import dataclasses
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# attribute of rpnn_ode.solver -> layer name (module where the function lives)
SOLVER_CALLEES = {
    "sample_basis": "basis.sample_basis",
    "assemble_residual": "collocation.assemble_residual",
    "assemble_jacobian": "collocation.assemble_jacobian",
    "truncated_pinv_solve": "leastnorm.truncated_pinv_solve",
    "gauss_newton_train": "solver.gauss_newton_train",
    "trial_eval": "trial.trial_eval",
}


def thin_svd_flops(rows: int, cols: int) -> float:
    """Flops of a thin SVD with both singular-vector sets (R-SVD).

    6 M N^2 + 20 N^3 with M = max(rows, cols), N = min(rows, cols); Golub &
    Van Loan, *Matrix Computations*, table of SVD work counts.  Computed from
    the shape, not measured.
    """
    big, small = max(rows, cols), min(rows, cols)
    return 6.0 * big * small * small + 20.0 * small**3


class Tracer:
    """Calls, inclusive seconds and self seconds per wrapped function.

    Spans nest through a stack of child-time accumulators: a span's self time
    is its duration minus the time of the wrapped calls made inside it.
    """

    def __init__(self):
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.counts = defaultdict(float)
        self.records = []  # one entry per traced solve, filled by observers
        self._children = []

    def wrap(self, name, fn, observe=None):
        """Return fn timed under `name`.

        observe(tracer, args, result, inner), when given, runs after each call
        that returns; ``inner`` maps each traced name to its calls made inside
        this one.
        """

        def traced(*args, **kwargs):
            before = dict(self.calls) if observe is not None else None
            self._children.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                child = self._children.pop()
                self.calls[name] += 1
                self.seconds[name] += elapsed
                self.self_seconds[name] += elapsed - child
                if self._children:
                    self._children[-1] += elapsed
            if observe is not None:
                inner = {k: v - before.get(k, 0) for k, v in self.calls.items() if k != name}
                observe(self, args, result, inner)
            return result

        return traced

    def problem(self, problem):
        """Copy of the problem whose rhs and Jacobian are traced."""
        return dataclasses.replace(
            problem,
            rhs=self.wrap("problems.rhs", problem.rhs),
            ode_jacobian=self.wrap("problems.ode_jacobian", problem.ode_jacobian),
        )

    @contextmanager
    def patched(self, solver_module):
        """Trace the layers that rpnn_ode.solver calls, restoring them on exit."""
        originals = {attr: getattr(solver_module, attr) for attr in SOLVER_CALLEES}
        observers = {
            "gauss_newton_train": _observe_training,
            "truncated_pinv_solve": _observe_pinv,
        }
        try:
            for attr, name in SOLVER_CALLEES.items():
                setattr(solver_module, attr, self.wrap(name, originals[attr], observers.get(attr)))
            yield self
        finally:
            for attr, fn in originals.items():
                setattr(solver_module, attr, fn)


def _observe_training(tracer, args, result, inner):
    tracer.counts["solver.gauss_newton_train.failed"] += not result.converged
    tracer.counts["solver.gauss_newton_train.iterations"] += result.iterations


def _observe_pinv(tracer, args, result, inner):
    rows, cols = args[0].shape
    tracer.counts["leastnorm.gflop_computed"] += thin_svd_flops(rows, cols) / 1e9

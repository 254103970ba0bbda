"""Correctness checks applied to every benchmark operation.

Each check returns a list of problems; an empty list means the output passed.
Accuracy is measured against the independent Radau references in ``refs/``
with the mixed error |y - y_ref| / (1 + |y_ref|), the same weighting an
integrator with atol = rtol = tol applies to its local error.  Its mean and
its maximum over the check grid must stay within per-operation multiples of
the operation's own tolerance (``run.WORKLOADS``).

The other checks are properties the methods must have by construction, not
comparisons with a stored copy of earlier output.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Reference:
    """Radau reference values on the check grid, plus the problem it solved."""

    name: str
    x0: float
    x_end: float
    alpha: np.ndarray
    grid_size: int
    check_index: np.ndarray
    check_x: np.ndarray
    values: np.ndarray

    @classmethod
    def load(cls, path: Path) -> "Reference":
        with np.load(path, allow_pickle=False) as data:
            return cls(
                name=path.stem,
                x0=float(data["x0"]),
                x_end=float(data["x_end"]),
                alpha=data["alpha"],
                grid_size=int(data["grid_size"]),
                check_index=data["check_index"],
                check_x=data["check_x"],
                values=data["values"],
            )


def problem_matches(problem, ref: Reference, grid: np.ndarray) -> list[str]:
    """The program's problem and metric grid are the ones the reference solved."""
    out = []
    if (problem.x0, problem.x_end) != (ref.x0, ref.x_end):
        out.append(f"domain [{problem.x0}, {problem.x_end}] != reference [{ref.x0}, {ref.x_end}]")
    if not np.array_equal(problem.alpha, ref.alpha):
        out.append(f"initial state {problem.alpha} != reference {ref.alpha}")
    if len(grid) != ref.grid_size:
        out.append(f"metric grid has {len(grid)} points, reference expects {ref.grid_size}")
    elif np.abs(grid[ref.check_index] - ref.check_x).max() > 1e-12 * (ref.x_end - ref.x0):
        out.append("metric grid points differ from the reference check abscissae")
    return out


def accuracy(values: np.ndarray, ref: Reference, tol: float, mean_factor: float,
             max_factor: float) -> list[str]:
    """Values on the full metric grid against the reference on its check subset."""
    if values.shape != (ref.grid_size, ref.values.shape[1]):
        return [f"output shape {values.shape} != {(ref.grid_size, ref.values.shape[1])}"]
    if not np.all(np.isfinite(values)):
        return ["output holds non-finite values"]
    picked = values[ref.check_index]
    if picked.shape != ref.values.shape:
        return [f"check subset shape {picked.shape} != reference {ref.values.shape}"]
    mixed = np.abs(picked - ref.values) / (1.0 + np.abs(ref.values))
    out = []
    if mixed.mean() > mean_factor * tol:
        out.append(f"mean mixed error {mixed.mean():.3e} > {mean_factor:g} * tol")
    if mixed.max() > max_factor * tol:
        out.append(f"max mixed error {mixed.max():.3e} > {max_factor:g} * tol")
    return out


def piecewise_structure(sol, ref: Reference, trial_eval, n: int) -> list[str]:
    """Segments tile [x0, x_end] exactly and join with exact C0 continuity."""
    segs = sol.segments
    out = []
    if segs[0].x_start != ref.x0 or segs[-1].x_stop != ref.x_end:
        out.append(f"segments span [{segs[0].x_start}, {segs[-1].x_stop}], "
                   f"not [{ref.x0}, {ref.x_end}]")
    if not np.array_equal(segs[0].alpha, ref.alpha):
        out.append("first segment does not start from the initial state")
    gaps = sum(left.x_stop != right.x_start for left, right in zip(segs[:-1], segs[1:]))
    if gaps:
        out.append(f"{gaps} gaps or overlaps between consecutive segments")
    jumps = sum(
        not np.array_equal(trial_eval(left, left.x_stop), trial_eval(right, right.x_start))
        for left, right in zip(segs[:-1], segs[1:])
    )
    if jumps:
        out.append(f"{jumps} knots without exact C0 continuity")
    if sol.total_points != n * len(segs):
        out.append(f"total_points {sol.total_points} != n * segments = {n * len(segs)}")
    return out


def starts_at_alpha(values: np.ndarray, ref: Reference) -> list[str]:
    """The dense output at x0 (the first metric grid point) is exactly alpha."""
    if values.shape[1:] != ref.alpha.shape or not np.array_equal(values[0], ref.alpha):
        return ["value at x0 differs from the initial state"]
    return []


def trajectory_structure(traj, ref: Reference) -> list[str]:
    """A classical trajectory runs exactly from (x0, alpha) to x_end."""
    out = []
    if traj.abscissae[0] != ref.x0 or traj.abscissae[-1] != ref.x_end:
        out.append(f"trajectory spans [{traj.abscissae[0]}, {traj.abscissae[-1]}], "
                   f"not [{ref.x0}, {ref.x_end}]")
    if not np.array_equal(traj.states[0], ref.alpha):
        out.append("trajectory does not start from the initial state")
    if traj.n_steps != len(traj.abscissae) - 1:
        out.append(f"n_steps {traj.n_steps} != accepted points - 1 = {len(traj.abscissae) - 1}")
    return out


def dense_end_states(values: np.ndarray, traj) -> list[str]:
    """Dense output reproduces the stored states exactly at both ends."""
    ends_match = (np.array_equal(values[0], traj.states[0])
                  and np.array_equal(values[-1], traj.states[-1]))
    if not ends_match:
        return ["dense output differs from the stored states at the trajectory ends"]
    return []


def piecewise_fingerprint(sol) -> str:
    """Hash of the knots and every segment's trained weights."""
    digest = hashlib.sha256(np.ascontiguousarray(sol.knots).tobytes())
    for seg in sol.segments:
        digest.update(np.ascontiguousarray(seg.weights).tobytes())
    return digest.hexdigest()[:16]


def trajectory_fingerprint(traj) -> str:
    """Hash of the accepted abscissae and states."""
    digest = hashlib.sha256(np.ascontiguousarray(traj.abscissae).tobytes())
    digest.update(np.ascontiguousarray(traj.states).tobytes())
    return digest.hexdigest()[:16]

"""JSON persistence for piecewise solutions.

Floats pass through Python's shortest round-trip repr, so a save/load cycle
reproduces every stored double bit for bit.
"""

from __future__ import annotations

import json

import numpy as np

from .basis import RbfSegmentBasis
from .errors import _integer
from .solver import PiecewiseSolution
from .trial import SegmentSolution

SCHEMA_VERSION = 1


class SolutionFormatError(ValueError):
    """The file is not a valid serialized solution."""


def solution_to_dict(sol: PiecewiseSolution) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "piecewise_rbf_solution",
        "problem": sol.problem_name,
        "m": sol.m,
        "x0": sol.x0,
        "x_end": sol.x_end,
        "total_points": sol.total_points,
        "iterations": list(sol.iterations),
        "segments": [
            {
                "x_start": seg.x_start,
                "x_stop": seg.x_stop,
                "width": seg.basis.width,
                "alpha": seg.alpha.tolist(),
                "centers": seg.basis.centers.tolist(),
                "biases": seg.basis.biases.tolist(),
                "inv_sq_widths": seg.basis.inv_sq_widths.tolist(),
                "weights": seg.weights.tolist(),
            }
            for seg in sol.segments
        ],
    }


def solution_from_dict(data: dict) -> PiecewiseSolution:
    try:
        if data["schema_version"] != SCHEMA_VERSION:
            raise SolutionFormatError(
                f"unsupported schema_version {data['schema_version']!r}"
            )
        segments = []
        for raw in data["segments"]:
            biases = np.asarray(raw["biases"], dtype=float)
            basis = RbfSegmentBasis(
                h=biases.shape[0],
                m=biases.shape[1],
                x_start=float(raw["x_start"]),
                width=float(raw["width"]),
                centers=np.asarray(raw["centers"], dtype=float),
                biases=biases,
                inv_sq_widths=np.asarray(raw["inv_sq_widths"], dtype=float),
            )
            segments.append(
                SegmentSolution(
                    basis=basis,
                    alpha=np.asarray(raw["alpha"], dtype=float),
                    weights=np.asarray(raw["weights"], dtype=float),
                    x_stop=float(raw["x_stop"]),
                )
            )
        return PiecewiseSolution(
            problem_name=str(data["problem"]),
            m=_integer("m", data["m"], 1),
            x0=float(data["x0"]),
            x_end=float(data["x_end"]),
            segments=tuple(segments),
            iterations=tuple(_integer("iterations", i, 0) for i in data["iterations"]),
            total_points=_integer("total_points", data["total_points"], 1),
        )
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        if isinstance(exc, SolutionFormatError):
            raise
        raise SolutionFormatError(f"malformed solution data: {exc}") from exc


def save_solution(sol: PiecewiseSolution, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(solution_to_dict(sol), fh)
        fh.write("\n")


def load_solution(path) -> PiecewiseSolution:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SolutionFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise SolutionFormatError("solution file must hold a JSON object")
    return solution_from_dict(data)

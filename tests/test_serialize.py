import json
import math

import numpy as np
import pytest

from rpnn_ode import (
    SolutionFormatError,
    SolverConfig,
    eval_solution,
    load_solution,
    make_benchmark,
    save_solution,
    solve_adaptive,
)
from rpnn_ode.serialize import solution_from_dict, solution_to_dict


@pytest.fixture(scope="module")
def rober_solution():
    return solve_adaptive(make_benchmark("rober"), SolverConfig(tol=1e-3, seed=5))


def test_round_trip_is_bitwise_exact(tmp_path, rober_solution):
    path = tmp_path / "solution.json"
    save_solution(rober_solution, path)
    loaded = load_solution(path)
    assert loaded.n_segments == rober_solution.n_segments
    assert loaded.problem_name == rober_solution.problem_name
    assert loaded.iterations == rober_solution.iterations
    xs = np.linspace(0.0, 40.0, 1000)
    assert np.all(eval_solution(loaded, xs) == eval_solution(rober_solution, xs))
    for a, b in zip(loaded.segments, rober_solution.segments):
        assert np.all(a.weights == b.weights)
        assert np.all(a.basis.inv_sq_widths == b.basis.inv_sq_widths)
        assert a.x_stop == b.x_stop


def test_dict_round_trip(rober_solution):
    data = solution_to_dict(rober_solution)
    rebuilt = solution_from_dict(json.loads(json.dumps(data)))
    xs = np.linspace(0.0, 40.0, 333)
    assert np.all(eval_solution(rebuilt, xs) == eval_solution(rober_solution, xs))


def test_malformed_inputs_rejected(tmp_path, rober_solution):
    not_json = tmp_path / "bad.json"
    not_json.write_text("{broken")
    with pytest.raises(SolutionFormatError):
        load_solution(not_json)

    not_object = tmp_path / "list.json"
    not_object.write_text("[1, 2, 3]")
    with pytest.raises(SolutionFormatError):
        load_solution(not_object)

    data = solution_to_dict(rober_solution)
    data["schema_version"] = 99
    with pytest.raises(SolutionFormatError):
        solution_from_dict(data)

    data = solution_to_dict(rober_solution)
    del data["segments"][0]["weights"]
    with pytest.raises(SolutionFormatError):
        solution_from_dict(data)


@pytest.mark.parametrize("field, value", [
    ("weights", math.nan),
    ("alpha", math.nan),
    ("biases", math.inf),
    ("centers", math.nan),
    ("inv_sq_widths", math.inf),
    ("width", math.inf),
])
def test_non_finite_parameters_rejected_on_load(tmp_path, rober_solution, field, value):
    data = solution_to_dict(rober_solution)
    raw = data["segments"][1]
    if isinstance(raw[field], list):
        target = raw[field]
        while isinstance(target[0], list):
            target = target[0]
        target[0] = value
    else:
        raw[field] = value
    path = tmp_path / "non_finite.json"
    path.write_text(json.dumps(data))
    with pytest.raises(SolutionFormatError, match="finite"):
        load_solution(path)

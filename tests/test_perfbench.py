"""Smoke test of the benchmark script on a copy of the checkout."""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_hires_rpnn_round_counts_every_layer_wrapped_through_the_solver(tmp_path):
    # perfbench/layertrace.py wraps the layers where rpnn_ode.solver looks them
    # up, so a layer that solver.py stops calling by that name reads 0 calls
    ignore = shutil.ignore_patterns("out", "__pycache__")
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hires-rpnn", "--seed", "0",
         "--seconds", "0.01", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, run.stdout
    path = tmp_path / "perfbench" / "layertrace.py"
    spec = importlib.util.spec_from_file_location("layertrace", path)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    for layer in layertrace.SOLVER_CALLEES.values():
        assert result["metrics"][f"{layer}.calls"]["value"] > 0, layer

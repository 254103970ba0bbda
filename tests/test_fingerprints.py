"""Smoke test of tools/fingerprints.py on one Prothero-Robinson case."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "fingerprints.py"


@pytest.fixture(scope="module")
def fingerprints():
    spec = importlib.util.spec_from_file_location("fingerprints", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_pr_case_prints_a_fingerprint_per_solve_and_evaluation(fingerprints):
    run = subprocess.run([sys.executable, str(SCRIPT), "--problem", "pr", "--tol", "1e-3",
                          "--method", "rpnn", "--method", "sdirk"],
                         capture_output=True, text=True, timeout=300, check=True)
    printed = fingerprints.parse(run.stdout)
    assert list(printed) == [f"{case} {part}"
                             for case in ("rpnn pr tol=0.001 seed=0", "sdirk pr tol=0.001")
                             for part in ("solve", "eval-sorted", "eval-shuffled")]
    assert all(len(value) == 16 and int(value, 16) >= 0 for value in printed.values())
    assert len(set(printed.values())) == len(printed)
    # the same cases in this process give the same bits
    assert fingerprints.fingerprints(["pr"], [1e-3], [0], ["rpnn", "sdirk"]) == printed
    assert run.stdout.splitlines()[-1] == fingerprints.workers_line()


def test_the_workers_line_says_when_the_threaded_paths_did_not_run(fingerprints, monkeypatch):
    from rpnn_ode import solver, trial

    monkeypatch.setattr(trial, "_WORKERS", 2)
    monkeypatch.setattr(solver, "_WORKER_MIN_JACOBIAN", 24_000)
    assert fingerprints.workers_line() == (
        "# workers 2 (solves train on the worker from 24000 Jacobian entries on)")
    monkeypatch.delattr(solver, "_WORKER_MIN_JACOBIAN")  # a base revision without the gate
    assert fingerprints.workers_line() == "# workers 2"
    monkeypatch.setattr(trial, "_WORKERS", 1)
    assert fingerprints.workers_line().startswith("# workers 1 (one usable CPU")
    monkeypatch.delattr(trial, "_WORKERS")  # a base revision without the threaded paths
    assert fingerprints.workers_line() == "# workers 1 (this revision has no worker-thread paths)"
    assert fingerprints.parse("a b 1\n# workers 1 (one usable CPU)\n") == {"a b": "1"}


def test_digest_covers_dtype_shape_and_bytes(fingerprints):
    a = np.arange(6.0)
    assert fingerprints.digest(a) == fingerprints.digest(a.copy())
    assert fingerprints.digest(a[::-1]) == fingerprints.digest(np.arange(5.0, -1.0, -1.0))
    one_ulp_off = np.where(a == 3, np.nextafter(3.0, 4.0), a)
    for other in (a.reshape(2, 3), a.astype(np.float32), one_ulp_off):
        assert fingerprints.digest(other) != fingerprints.digest(a)


def test_differing_lists_changed_and_one_sided_cases(fingerprints):
    base = {"a": "1", "b": "2", "c": "3"}
    assert fingerprints.differing(base, dict(base)) == []
    assert fingerprints.differing(base, {"a": "1", "b": "9", "d": "4"}) == ["b", "c", "d"]


def test_an_unknown_base_rev_reports_the_failing_git_command():
    # used to end in a bare CalledProcessError traceback, without git's message
    run = subprocess.run([sys.executable, str(SCRIPT), "--base", "no-such-rev", "--problem", "pr",
                          "--tol", "1e-3", "--method", "sdirk"],
                         capture_output=True, text=True, timeout=300)
    assert run.returncode != 0
    assert "git archive --format=tar no-such-rev" in run.stderr
    assert "exited with status" in run.stderr and "Traceback" not in run.stderr
    assert run.stdout == ""

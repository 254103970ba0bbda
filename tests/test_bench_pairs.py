"""The verdicts of tools/bench_pairs.py on synthetic pairs."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPEC = [
    {"name": "rate", "unit": "Mpts/s", "better": "higher", "bound": 0.25},
    {"name": "time", "unit": "s", "better": "lower", "bound": 0.25},
]


def pairs(base, head, name):
    return [{"base": {"metrics": {name: x}}, "head": {"metrics": {name: y}}}
            for x, y in zip(base, head)]


def verdict_of(bench_pairs, base, head, name="rate"):
    spec = [m for m in SPEC if m["name"] == name]
    return bench_pairs.summarize(pairs(base, head, name), spec)[name]["verdict"]


BASE = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]  # IQR 0.04


def test_gain_needs_nine_of_ten_wins_and_a_median_move_beyond_the_base_iqr(bench_pairs):
    assert verdict_of(bench_pairs, BASE, [x * 1.8 for x in BASE]) == "gain"
    nine = [x * 1.8 for x in BASE[:9]] + [BASE[9]]  # the last pair ties
    assert verdict_of(bench_pairs, BASE, nine) == "gain"
    eight = [x * 1.8 for x in BASE[:8]] + [x * 0.9 for x in BASE[8:]]
    assert verdict_of(bench_pairs, BASE, eight) == "flat"
    # wins every pair, but by less than the base's spread
    assert verdict_of(bench_pairs, BASE, [x + 0.01 for x in BASE]) == "flat"


def test_direction_follows_better(bench_pairs):
    assert verdict_of(bench_pairs, BASE, [x * 0.5 for x in BASE], name="time") == "gain"
    assert verdict_of(bench_pairs, BASE, [x * 1.5 for x in BASE], name="time") == "worse"
    assert verdict_of(bench_pairs, BASE, [x * 0.5 for x in BASE], name="rate") == "worse"


def test_worse_is_a_median_beyond_the_bound(bench_pairs):
    assert verdict_of(bench_pairs, BASE, [x * 0.8 for x in BASE]) == "flat"
    assert verdict_of(bench_pairs, BASE, [x * 0.7 for x in BASE]) == "worse"


def test_unresolved_when_the_base_spreads_wider_than_the_bound(bench_pairs):
    wide = [0.6, 1.4, 0.7, 1.3, 1.0, 0.8, 1.2, 0.9, 1.1, 1.0]  # IQR 0.4 around 1.0
    assert verdict_of(bench_pairs, wide, wide) == "unresolved"
    assert verdict_of(bench_pairs, wide, [x * 0.8 for x in wide]) == "unresolved"
    assert verdict_of(bench_pairs, wide, [x * 2.0 for x in wide]) == "gain"


def test_identical_counts_are_flat(bench_pairs):
    counts = [340] * 10
    entry = bench_pairs.summarize(pairs(counts, counts, "time"), SPEC[1:])["time"]
    assert (entry["ties"], entry["head_wins"], entry["verdict"]) == (10, 0, "flat")


def test_each_run_of_a_pair_carries_the_speed_ups_around_it(bench_pairs, monkeypatch, capsys):
    readings = iter([1.9, 1.8, 1.1, 1.0])
    monkeypatch.setattr(bench_pairs, "two_thread_speedup", lambda: next(readings))
    runs = []

    def run_once(tree, workload, seed, seconds):
        runs.append(tree)
        return {"correct": True, "attempted": 1, "failed": 0, "metrics": {"solve_s": 1.0},
                "fingerprints": ["f"], "machine": {}}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    pair = bench_pairs.run_pair(Path("base-tree"), "w", 7, "head", 45)
    assert runs == [bench_pairs.ROOT, Path("base-tree")]
    assert pair["head"]["cpu_speedup"] == [1.9, 1.8]
    assert pair["base"]["cpu_speedup"] == [1.1, 1.0]
    assert (pair["seed"], pair["first"], pair["fingerprints_agree"]) == (7, "head", True)
    out = capsys.readouterr().out
    assert "w seed 7 head (two-thread speed-up 1.90 / 1.80)" in out
    assert "w seed 7 base (two-thread speed-up 1.10 / 1.00)" in out


def test_two_thread_speedup_is_a_positive_ratio(bench_pairs):
    ratio = bench_pairs.two_thread_speedup(reps=5, size=1024)
    assert 0.0 < ratio < 10.0

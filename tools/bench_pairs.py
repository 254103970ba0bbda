"""Paired benchmark runs of a base revision against the working tree.

    python3 tools/bench_pairs.py --base HEAD --out BENCH_8.json \\
        --pairs hires-rpnn=10 --pairs hires-classical=10 --seed 101

The base revision is exported with ``git archive`` into a temporary
directory (nothing is registered in ``.git``), and ``perfbench/run.py`` of
each side runs on its own ``src/``.
Pair i of a workload runs both sides with ``--seed (seed + i)``, alternating
which side goes first, so that a drift of the machine's speed during the
session falls on both sides alike.  Workloads run one after another, the
pairs of one workload back to back.  Before and after each run, a fixed numpy
loop is timed on two threads against one (``two_thread_speedup``): about 2
when a second CPU was free for the run, about 1 when something else held it.

The other side, "head", is the working tree as it is, committed or not.  The
output file holds, per workload and end-to-end metric of ``BENCHMARK.json``,
each side's median and quartiles over the runs, how many pairs the working
tree won, the relative change of the medians and a verdict (gain, worse,
unresolved or flat; see ``verdict``); per pair, both results with the
two-thread speed-ups before and after each run (``cpu_speedup``), the
per-round fingerprints of both run records and whether they agree on the
rounds both sides ran; and the machine block of the run records.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def run(cmd: list[str], cwd: Path = ROOT) -> bytes:
    """The stdout of cmd run in cwd; when cmd fails, exits with the command, its
    exit status and its stderr."""
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} (in {cwd}) exited with status {proc.returncode}:\n"
                 + proc.stderr.decode(errors="replace").rstrip())
    return proc.stdout


def git(*args: str) -> str:
    return run(["git", *args]).decode().strip()


def export(rev: str, dest: Path) -> None:
    """Write the files of rev into dest."""
    tar = run(["git", "archive", "--format=tar", rev])
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def working_tree() -> dict:
    """The measured tree: a commit of its tracked files and the tree hash of its src/.

    ``git stash create`` writes a commit of the tracked files, changed or not,
    without touching any ref; on a clean tree it prints nothing and HEAD is
    that commit.
    """
    rev = git("stash", "create") or git("rev-parse", "HEAD")
    head = git("rev-parse", "HEAD")
    return {"rev": rev, "head": head, "uncommitted": rev != head,
            "src_tree": git("rev-parse", f"{rev}:src")}


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in tree: its result line and the rounds of its run record."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    result = json.loads(run(cmd, cwd=tree).decode().strip().splitlines()[-1])
    record = json.loads((tree / "perfbench" / "out" / f"{workload}-seed{seed}-trace0.json")
                        .read_text())
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "fingerprints": [r.get("fingerprint") for r in record["rounds"]],
        "machine": record["machine"],
    }


def two_thread_speedup(reps: int = 200, size: int = 1 << 15) -> float:
    """Work rate of two threads running a fixed numpy loop, over that of one.

    Each thread takes np.sin of an L2-sized array reps times.  The ufunc
    releases the GIL and uses no BLAS, so two threads run in parallel exactly
    when two CPUs are free.
    """
    values = np.linspace(0.0, 1.0, size)

    def loop():
        out = np.empty_like(values)
        for _ in range(reps):
            np.sin(values, out=out)

    loop()  # warm-up
    start = time.perf_counter()
    loop()
    one = time.perf_counter() - start
    threads = [threading.Thread(target=loop) for _ in range(2)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return 2.0 * one / (time.perf_counter() - start)


def run_pair(base_tree: Path, workload: str, seed: int, first: str, seconds: float) -> dict:
    """Both sides' runs of one pair, ``first`` first, each between two speed-up readings."""
    pair = {"seed": seed, "first": first}
    for side in (first, "head" if first == "base" else "base"):
        before = two_thread_speedup()
        run = run_once(base_tree if side == "base" else ROOT, workload, seed, seconds)
        run["cpu_speedup"] = [before, two_thread_speedup()]
        pair[side] = run
        print(f"{workload} seed {seed} {side} (two-thread speed-up "
              f"{run['cpu_speedup'][0]:.2f} / {run['cpu_speedup'][1]:.2f}): "
              + json.dumps(run["metrics"]), flush=True)
    common = min(len(pair["base"]["fingerprints"]), len(pair["head"]["fingerprints"]))
    pair["fingerprints_agree"] = (pair["base"]["fingerprints"][:common]
                                  == pair["head"]["fingerprints"][:common])
    return pair


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def verdict(entry: dict) -> str:
    """gain, worse, unresolved or flat for one metric's summary.

    gain: the working tree wins at least nine tenths of the pairs (ties count
    for neither side) and its median is better by more than the base's
    interquartile range.  worse: its median is worse by more than the
    metric's relative bound.  unresolved: the base's interquartile range
    exceeds the bound, so the runs cannot tell a change within the bound.
    flat: anything else.
    """
    sign = 1.0 if entry["better"] == "higher" else -1.0
    base = entry["base"]["median"]
    gain = sign * (entry["head"]["median"] - base)  # > 0 when the working tree is better
    if 10 * entry["head_wins"] >= 9 * entry["pairs"] and gain > entry["base_iqr"]:
        return "gain"
    if -gain > entry["bound"] * abs(base):
        return "worse"
    if entry["base_iqr"] > entry["bound"] * abs(base):
        return "unresolved"
    return "flat"


def summarize(pairs: list[dict], spec: list[dict]) -> dict:
    out = {}
    for metric in spec:
        name, higher = metric["name"], metric["better"] == "higher"
        base = [p["base"]["metrics"][name] for p in pairs]
        head = [p["head"]["metrics"][name] for p in pairs]
        b, h = quartiles(base), quartiles(head)
        out[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "bound": metric["bound"],
            "base": b,
            "head": h,
            "head_wins": sum((y > x) if higher else (y < x) for x, y in zip(base, head)),
            "ties": sum(x == y for x, y in zip(base, head)),
            "pairs": len(pairs),
            "relative_change": (h["median"] - b["median"]) / b["median"] if b["median"] else None,
            "base_iqr": b["q3"] - b["q1"],
        }
        out[name]["verdict"] = verdict(out[name])
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--out", required=True, help="output JSON path")
    parser.add_argument("--pairs", action="append", required=True, metavar="WORKLOAD=N",
                        help="pairs to run on a workload (repeatable)")
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    args = parser.parse_args(argv)
    plan = []
    for item in args.pairs:
        workload, _, count = item.partition("=")
        if not count.isdigit() or int(count) < 1:
            parser.error(f"--pairs wants WORKLOAD=N with N >= 1, got {item!r}")
        plan.append((workload, int(count)))
    return args, plan


def main(argv=None) -> int:
    args, plan = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    base_rev = git("rev-parse", args.base)
    report = {
        "base": {"rev": base_rev, "src_tree": git("rev-parse", f"{base_rev}:src")},
        "head": working_tree(),
        "command": ["python3", "tools/bench_pairs.py", *(argv or sys.argv[1:])],
        "seconds_per_run": seconds,
        "workloads": {},
    }
    machines = []
    with tempfile.TemporaryDirectory(prefix="bench-base-") as tmp:
        base_tree = Path(tmp)
        export(base_rev, base_tree)
        for workload, count in plan:
            pairs = []
            for i in range(count):
                pair = run_pair(base_tree, workload, args.seed + i,
                                "base" if i % 2 == 0 else "head", seconds)
                machines.extend(pair[side].pop("machine") for side in ("base", "head"))
                pairs.append(pair)
            report["workloads"][workload] = {
                "seeds": [p["seed"] for p in pairs],
                "all_correct": all(p[s]["correct"] and p[s]["failed"] == 0
                                   for p in pairs for s in ("base", "head")),
                "all_fingerprints_agree": all(p["fingerprints_agree"] for p in pairs),
                "metrics": summarize(pairs, spec["end_to_end"]),
                "pairs": pairs,
            }
    report["machine"] = machines[0]
    report["machine_same_for_all_runs"] = all(m == machines[0] for m in machines)
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    for workload, entry in report["workloads"].items():
        speedups = [x for p in entry["pairs"] for s in ("base", "head") for x in p[s]["cpu_speedup"]]
        print(f"{workload} two-thread speed-up: min {min(speedups):.2f}, "
              f"median {statistics.median(speedups):.2f}")
        for name, m in entry["metrics"].items():
            print(f"{workload} {name}: base {m['base']['median']:.4g} "
                  f"[{m['base']['q1']:.4g}, {m['base']['q3']:.4g}]  head {m['head']['median']:.4g} "
                  f"[{m['head']['q1']:.4g}, {m['head']['q3']:.4g}]  "
                  f"head wins {m['head_wins']}/{m['pairs']}  {m['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Paired perfbench runs of two source trees, summarized into one JSON file.

    python3 tools/bench_pairs.py PARENT CHANGE --workload cli_files --pairs 10 \\
        --seed 11 --seconds 20 --out BENCH_27.json

PARENT and CHANGE are checkouts of the repository (each with its own
``perfbench/`` and ``src/``).  For every workload, each pair runs
``perfbench/run.py --workload W --seed S --seconds T`` once on each tree, one
after the other; the tree that runs first alternates from pair to pair, so a
drift in machine speed falls on both sides alike.  ``--workload`` may repeat.

The output file holds, per workload and end-to-end metric of BENCHMARK.json,
each side's runs, median, interquartile range and the number of pairs it won
(ties count for neither), plus the failed-op counts; for each tree its git SHA
and the SHA-256 of ``maslovcw verify --suite all --seed 7`` stdout; and the
Python and numpy versions and CPU count perfbench recorded.  The deltas of the
medians are printed.  Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_perfbench(tree: Path, workload: str, seed: int, seconds: float) -> tuple:
    """(environment record, result) of one perfbench run in ``tree``: its last two stdout lines."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"bench_pairs: {' '.join(cmd)} in {tree} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def verify_sha256(tree: Path) -> str:
    """SHA-256 of the tree's ``verify --suite all --seed 7`` stdout."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run([sys.executable, "-m", "maslovcw", "verify", "--suite", "all",
                           "--seed", "7"], cwd=tree, env=env, capture_output=True)
    if proc.returncode != 0:
        raise SystemExit(f"bench_pairs: verify exited {proc.returncode} in {tree}")
    return hashlib.sha256(proc.stdout).hexdigest()


def summarize(runs: dict, better: str) -> dict:
    """Median, IQR and pairs won per side, from equal-length lists of paired values."""
    sign = 1.0 if better == "lower" else -1.0
    won = dict.fromkeys(SIDES, 0)
    for a, b in zip(runs["parent"], runs["change"]):
        if a != b:
            won["parent" if sign * (a - b) < 0 else "change"] += 1
    out = {}
    for side in SIDES:
        values = runs[side]
        q1, med, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                       if len(values) > 1 else values * 3)
        out[side] = {"median": med, "iqr": q3 - q1, "won": won[side], "runs": values}
    return out


def bench_workload(trees: dict, workload: str, pairs: int, seed: int, seconds: float,
                   metrics: list, environments: dict) -> dict:
    values = {m["name"]: {side: [] for side in SIDES} for m in metrics}
    failed = {side: [] for side in SIDES}
    attempted = {side: [] for side in SIDES}
    for i in range(pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for side in order:
            record, result = run_perfbench(trees[side], workload, seed, seconds)
            environments.setdefault(side, record["environment"])
            failed[side].append(result["failed"])
            attempted[side].append(result["attempted"])
            for name in values:
                values[name][side].append(result["metrics"][name]["value"])
        print(f"bench_pairs: {workload} pair {i + 1}/{pairs} done ({order[0]} first)",
              file=sys.stderr, flush=True)
    return {
        "pairs": pairs,
        "failed_ops": failed,
        "attempted_ops": attempted,
        "metrics": {m["name"]: dict(unit=m["unit"], better=m["better"],
                                    **summarize(values[m["name"]], m["better"]))
                    for m in metrics},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]

    environments: dict = {}
    workloads = {w: bench_workload(trees, w, args.pairs, args.seed, args.seconds, metrics,
                                   environments)
                 for w in args.workload}
    env = environments["change"]
    doc = {
        "settings": {"seed": args.seed, "seconds": args.seconds, "pairs": args.pairs,
                     "first_side": "alternating, parent first in pair 1"},
        "trees": {side: {"git_sha": environments[side]["git_sha"],
                         "verify_seed_7_stdout_sha256": verify_sha256(trees[side])}
                  for side in SIDES},
        "machine": {"python": env["python"], "numpy": env["numpy"], "nproc": env["nproc"],
                    "affinity": env["affinity"]},
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")

    for w, res in workloads.items():
        for name, m in res["metrics"].items():
            a, b = m["parent"]["median"], m["change"]["median"]
            delta = (b - a) / a * 100 if a else float("nan")
            print(f"{w:12s} {name:12s} {a:10.4g} -> {b:10.4g} {m['unit']:3s} {delta:+6.1f}%  "
                  f"won {m['change']['won']}/{res['pairs']}  parent IQR {m['parent']['iqr']:.3g}")
        print(f"{w:12s} failed ops: parent {sum(res['failed_ops']['parent'])}, "
              f"change {sum(res['failed_ops']['change'])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

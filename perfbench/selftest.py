#!/usr/bin/env python3
"""Self-test of the benchmark itself; exits 1 when a check fails.

    python3 perfbench/selftest.py

Checks, on tiny inputs: every workload runs with no failed op; a planted
wrong answer is counted as a failure; the tracer wraps every binding site
and restores them; ``run.py --report`` prints every metric named in
BENCHMARK.json with its unit; and ``run.py`` exits non-zero, printing no
result, from a directory holding only BENCHMARK.json and the benchmark.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

PROBLEMS = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        PROBLEMS.append(what)


def workloads_run_clean_and_count_planted_failures(work: Path) -> None:
    import workloads

    for name in workloads.WORKLOADS:
        w = workloads.build(name, 3, work / name, tiny=True)
        clean = run.run_timed(w, 0.0)
        check(clean["attempted"] == len(w.ops) and not clean["failures"],
              f"{name}: {len(w.ops)} tiny ops pass their oracle {clean['failures'][:1]}")
        workloads.plant_wrong_answer(w)
        planted = run.run_timed(w, 0.0)
        check(len(planted["failures"]) == 1,
              f"{name}: a planted wrong answer counts as one failed op")


def tracer_wraps_every_binding_site() -> None:
    from maslovcw import _kernels, curvature, orbifold, polygon, verify
    from tracer import Tracer

    originals = (curvature.edge_transports, _kernels.transport_chain)
    t = Tracer()
    t.install()
    try:
        sites = (curvature.edge_transports, polygon.edge_transports,
                 orbifold.edge_transports, verify.edge_transports)
        check(all(hasattr(f, "__perfbench_original__") for f in sites),
              "edge_transports is wrapped where curvature, polygon, orbifold and verify bind it")
        check(hasattr(_kernels.transport_chain, "__perfbench_original__"),
              "_kernels.transport_chain is wrapped")
        check(not t.absent, f"no traced name is absent {t.absent}")
    finally:
        t.uninstall()
    check((curvature.edge_transports, _kernels.transport_chain) == originals,
          "uninstall restores the original functions")


def report_prints_every_metric() -> None:
    cmd = [sys.executable, str(Path(run.__file__)), "--workload", "topology", "--seed", "3",
           "--seconds", "0.2", "--report", "--tiny"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    table = {}
    for line in lines[:-2]:
        parts = line.split()
        if len(parts) == 3:
            table[parts[0]] = parts[2]
    names = [(m["name"], m["unit"]) for kind in ("end_to_end", "per_layer") for m in run.SPEC[kind]]
    missing = [n for n, unit in names if table.get(n) != unit]
    check(proc.returncode == 0 and not missing, f"--report prints every metric with its unit {missing}")
    result = json.loads(lines[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"} and result["correct"]
          and set(result["metrics"]) == {n for n, _ in names},
          "--report ends with the result line holding every metric")


def refuses_without_package(work: Path) -> None:
    bare = work / "bare"
    shutil.copytree(Path(run.__file__).parent, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    cmd = [sys.executable, "perfbench/run.py", "--workload", "topology", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=170)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          "exits non-zero with no result where only BENCHMARK.json and perfbench exist")


def main() -> int:
    run.bootstrap()
    run.WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=run.WORK_DIR))
    try:
        workloads_run_clean_and_count_planted_failures(work)
        tracer_wraps_every_binding_site()
        report_prints_every_metric()
        refuses_without_package(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(PROBLEMS)} problem(s)")
    return 1 if PROBLEMS else 0


if __name__ == "__main__":
    sys.exit(main())

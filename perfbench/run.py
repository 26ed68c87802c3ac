#!/usr/bin/env python3
"""Benchmark of the maslovcw package, driven from outside through its public API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --seed N --seconds S --report

Run it from any directory of a source checkout; it imports the package from
the checkout's ``src``.  Workloads (see ``workloads.py``): ``verify_all``,
``topology``, ``cli_files``.  Each run:

1. measures set-up: seven fresh interpreters each time ``import
   maslovcw.cli`` plus ``_kernels.warm_up()`` (one more start is discarded);
2. generates the workload's inputs from the seed (not timed);
3. repeats passes over the workload's op list, one op at a time in a closed
   loop, for about S seconds (a pass starts only if it should end within
   1.25 S), checking every result against its known answer;
4. with ``--trace 1``, spends the first half untraced and the second half
   with the tracer installed, and reports per-layer metrics per pass.

Times are reported in reference seconds, which factor out the machine's
own drifting speed (see ``clock.py``).

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the ``end_to_end`` metrics of BENCHMARK.json
with ``--trace 0``, its ``per_layer`` metrics with ``--trace 1``.  The line
before it is a record of the environment, inputs, sample counts and
quartiles.  ``--report`` prints every metric of both kinds as a table with
units, then the same JSON line holding all of them.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads: the ops are small matrices and
# the benchmark runs one op at a time.  A caller's own setting wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import inspect
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from clock import Clock

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"
_SPEC_FILE = ROOT / "BENCHMARK.json"
SPEC = json.loads(_SPEC_FILE.read_text()) if _SPEC_FILE.is_file() else None

SETUP_REPEATS = 7
LOCAL = 3  # an op is scaled by the kernel samples during it and LOCAL either side
SETUP_SNIPPET = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import maslovcw.cli
t1 = time.perf_counter()
try:
    from maslovcw import _kernels
    _kernels.warm_up()
except (ImportError, AttributeError):
    pass
t2 = time.perf_counter()
print(t1 - t0, t2 - t1)
"""


def bootstrap() -> None:
    """Import the package from this checkout's ``src``; exit 1 when it is absent."""
    init = SRC / "maslovcw" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: no package source at {init}")
    sys.path.insert(0, str(SRC))
    import maslovcw

    if Path(maslovcw.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: imported maslovcw from {maslovcw.__file__}, not {init}")


def measure_setup(repeats: int = SETUP_REPEATS) -> dict:
    """Import and warm-up times of fresh interpreters, with a kernel sample before each."""
    clock = Clock()
    imports, warms = [], []
    for i in range(repeats + 1):
        clock.sample()
        proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, str(SRC)],
                              capture_output=True, text=True, timeout=120, check=True)
        if i == 0:
            continue  # the first start fills the file cache and writes bytecode
        imp, warm = (float(x) for x in proc.stdout.split())
        imports.append(imp)
        warms.append(warm)
    clock.sample()
    totals = [a + b for a, b in zip(imports, warms)]
    return {"setup_s": totals, "import_s": imports, "warm_up_s": warms, "factor": clock.factor()}


def run_timed(workload, seconds: float, clock=None, tracer=None) -> dict:
    """Repeat passes over the op list for about ``seconds`` (at least one pass).

    Returns raw seconds.  With a ``clock``, the reference kernel is timed in
    line between ops, its time is left out of the ops' times, and
    ``latencies`` and ``passes`` are also given in reference seconds, each
    scaled by the kernel samples taken around it.
    """
    now = clock.now if clock is not None else time.perf_counter
    tick = clock.tick if clock is not None else (lambda: None)
    mark = (lambda: len(clock.samples)) if clock is not None else (lambda: 0)
    latencies, passes, failures = [], [], []
    op_marks, pass_marks = [], []  # sample counts at op start and end / pass start
    attempted = 0
    t_start = time.perf_counter()
    while True:
        pass_marks.append(mark())
        t_pass = now()
        for i, op in enumerate(workload.ops):
            attempted += 1
            tick()
            op_marks.append([mark(), 0])
            t0 = now()
            try:
                if tracer is None:
                    result = op.call()
                else:
                    with tracer.region(f"op.{op.kind}"):
                        result = op.call()
            except Exception as exc:  # a raising op is a failed op, not a crash
                latencies.append(now() - t0)
                op_marks[-1][1] = mark()
                failures.append({"op": i, "kind": op.kind, "raised": repr(exc)})
                continue
            latencies.append(now() - t0)
            op_marks[-1][1] = mark()
            try:
                observed = op.observe(result)
            except (KeyError, TypeError, ValueError) as exc:
                observed = {"unreadable": repr(exc)}
            if observed != op.expected:
                failures.append({"op": i, "kind": op.kind, "observed": str(observed),
                                 "expected": str(op.expected)})
        passes.append(now() - t_pass)
        # start another pass only if it should end within 1.25 * seconds
        if time.perf_counter() - t_start + statistics.median(passes) > 1.25 * seconds:
            break
    out = {"raw_latencies": latencies, "raw_passes": passes, "latencies": latencies,
           "passes": passes, "attempted": attempted, "failures": failures}
    if clock is not None:
        clock.sample()  # the last ops need a sample after them too
        ends = pass_marks[1:] + [len(clock.samples)]
        out["passes"] = [x * clock.factor(a - 1, b + 1)
                         for x, a, b in zip(passes, pass_marks, ends)]
        out["latencies"] = [x * clock.factor(a - LOCAL, b + LOCAL)
                            for x, (a, b) in zip(latencies, op_marks)]
    return out


def quartiles(values: list) -> dict:
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def percentile(values: list, q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


def end_to_end(timed: dict, setup: dict) -> dict:
    """End-to-end metrics; times in reference seconds (see clock.py)."""
    lat_ms = [x * 1e3 for x in timed["latencies"]]
    return {
        "wall_s": statistics.median(timed["passes"]),
        "op_p50_ms": percentile(lat_ms, 50),
        "op_p90_ms": percentile(lat_ms, 90),
        "setup_s": statistics.median(setup["setup_s"]) * setup["factor"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, traced: dict, untraced: dict, setup: dict, workload, scale: float) -> dict:
    """Per-pass layer metrics from the traced passes; ``scale`` turns summed
    raw seconds into reference seconds per pass."""
    summ = tracer.summary()
    npass = len(traced["passes"])
    out = {}
    for spec in SPEC["per_layer"]:
        name = spec["name"]
        span, _, stat = name.rpartition(".")
        if stat in ("calls", "self_s", "s"):
            table = {"calls": summ["calls"], "self_s": summ["self_s"], "s": summ["incl_s"]}[stat]
            out[name] = table.get(span, 0) * (1 / npass if stat == "calls" else scale)
        elif stat == "calls_per_op":
            kinds = {op.kind for op in workload.ops if "polygon" in op.kind}
            nops = sum(summ["calls"].get(f"op.{k}", 0) for k in kinds)
            calls = sum(v for (op, fn), v in summ["in_ops"].items()
                        if fn == span and op[3:] in kinds)
            out[name] = calls / nops if nops else 0.0
        else:
            out[name] = tracer.counts.get(name, 0.0) / npass
    out["setup.import_s"] = statistics.median(setup["import_s"]) * setup["factor"]
    out["setup.warm_up_s"] = statistics.median(setup["warm_up_s"]) * setup["factor"]
    # raw times: the untraced half also times the clock's kernel inside long
    # ops, the traced half only between ops, so their factors differ in kind
    out["trace.overhead"] = 100.0 * (statistics.median(traced["raw_passes"])
                                     / statistics.median(untraced["raw_passes"]) - 1.0)
    out["trace.spans"] = len(tracer.spans) / npass
    out["verify.stdout_identical"] = workload.notes.get("stdout_identical", 0)
    return out


def git_sha() -> str:
    """HEAD of the checkout, read from .git without leaving it; 'unknown' otherwise."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy as np
    import maslovcw

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    threads = {k: v for k, v in os.environ.items()
               if "THREAD" in k or k in ("MASLOVCW_NO_NUMBA", "NUMBA_NUM_THREADS")}
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_env": threads,
        "using_numba": bool(getattr(maslovcw, "USING_NUMBA", False)),
    }


def pinned(name: str, seed: int, sha: str):
    from workloads import REFS

    pin = json.loads(REFS.read_text())["pins"].get(str(seed), {}).get(name)
    return None if pin is None else pin == sha


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--report", action="store_true",
                   help="print every metric of both kinds with its unit")
    p.add_argument("--tiny", action="store_true", help="tiny inputs (self-test)")
    args = p.parse_args(argv)
    if SPEC is None:
        raise SystemExit(f"perfbench: no BENCHMARK.json at {ROOT}")
    bootstrap()
    import workloads
    from tracer import Tracer

    traced_run = args.trace == 1 or args.report
    setup = measure_setup(2 if args.tiny else SETUP_REPEATS)
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK_DIR))
    try:
        w = workloads.build(args.workload, args.seed, work, tiny=args.tiny)
        clock = Clock()
        inner = [(table, key, fn) for table in w.boundaries
                 for key, fn in list(table.items()) if inspect.isfunction(fn)]
        for table, key, fn in inner:
            table[key] = clock.ticking(fn)
        try:
            untraced = run_timed(w, args.seconds / 2 if traced_run else args.seconds, clock)
        finally:
            for table, key, fn in inner:
                table[key] = fn
        values = end_to_end(untraced, setup)
        timed = untraced
        record = {"workload": w.name, "seed": args.seed, "ops_per_pass": len(w.ops),
                  "inputs_sha256": w.inputs_sha256,
                  "inputs_pinned": pinned(w.name, args.seed, w.inputs_sha256),
                  "environment": environment()}
        if traced_run:
            tracer, trace_clock = Tracer(), Clock()
            tracer.install()
            try:
                timed = run_timed(w, args.seconds / 2, trace_clock, tracer)
            finally:
                tracer.uninstall()
            scale = trace_clock.factor() / len(timed["passes"])
            values.update(per_layer(tracer, timed, untraced, setup, w, scale))
            top = sorted(tracer.summary()["self_s"].items(), key=lambda kv: -kv[1])[:8]
            record["top_self_s_per_pass"] = {k: v * scale for k, v in top}
            record["absent"] = tracer.absent
        record.update(
            raw_passes_s=quartiles(untraced["raw_passes"]),
            raw_op_ms=quartiles([x * 1e3 for x in untraced["raw_latencies"]]),
            raw_setup_s=quartiles(setup["setup_s"]),
            reference_factor={"run": clock.factor(), "setup": setup["factor"],
                              "kernel_samples": len(clock.samples)},
            failures=(untraced["failures"] + (timed["failures"] if traced_run else []))[:5],
            notes=w.notes,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()  # only when no other run is using it
        except OSError:
            pass

    if record["inputs_pinned"] is False:
        print("perfbench: inputs differ from the pinned hash for this seed; "
              "the workload changed", file=sys.stderr)
    for f in record["failures"]:
        print(f"perfbench: failed op {f}", file=sys.stderr)
    attempted = untraced["attempted"] + (timed["attempted"] if traced_run else 0)
    failed = len(untraced["failures"]) + (len(timed["failures"]) if traced_run else 0)
    values["fail_ratio"] = failed / attempted
    values["inputs.pin_mismatch"] = int(record["inputs_pinned"] is False)
    kinds = ["end_to_end", "per_layer"] if args.report else (
        ["per_layer"] if args.trace else ["end_to_end"])
    specs = [m for kind in kinds for m in SPEC[kind]]
    if args.report:
        for m in specs:
            print(f"{m['name']:48s} {values[m['name']]:>16.6g} {m['unit']}")
    print(json.dumps(record, sort_keys=True, default=str))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

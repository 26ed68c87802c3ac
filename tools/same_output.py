#!/usr/bin/env python3
"""Compare the stdout of two source trees, byte for byte.

    python3 tools/same_output.py PARENT CHANGE [--cli-seed 41]

PARENT and CHANGE are checkouts of the repository.  For each tree, in a
subprocess with that tree's ``src/`` on the path:

* ``maslovcw verify --suite all --seed S`` runs for seeds 0-31;
* the ``cli_files`` ops of ``perfbench/workloads.build`` (imported read-only,
  from that tree) run at the cli seed, on inputs written to one temporary
  directory, the same path for both trees, since the reports echo it;
* ``maslovcw cw --faces-csv`` runs for ``--builtin example_2_7 --mesh 64``
  and for ``--input`` on each ``cw*.json`` collar loop of those ops, since
  the per-face angles reach users only through that sidecar; the builtin
  and the first collar loop run again at ``--substeps 2`` and ``3``, which
  no verify suite or ``cli_files`` op passes.

Each verify seed, op and cw run whose exit code or stdout differs between
the trees is printed with both exit codes and the top-level JSON keys whose
values differ, and each cw run whose sidecar differs is printed too.  Exits
1 on any difference, 0 when every output is byte-identical.  Standard
library plus numpy (which the ops import).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

VERIFY_SEEDS = range(32)

# run in the subprocess: the cli_files ops of one tree, as JSON on stdout
_OPS = """
import json, sys
from pathlib import Path
tree, seed, work = Path(sys.argv[1]), int(sys.argv[2]), Path(sys.argv[3])
sys.path.insert(0, str(tree / "perfbench"))
import workloads
out = []
for i, op in enumerate(workloads.build("cli_files", seed, work).ops):
    code, text = op.call()
    out.append({"op": f"{i}:{op.kind}", "exit": code, "stdout": text})
json.dump(out, sys.stdout)
"""


def _env(tree: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(tree / "src"))


def verify_run(tree: Path, seed: int) -> tuple:
    """(exit code, stdout text) of the tree's ``verify --suite all --seed SEED``."""
    proc = subprocess.run([sys.executable, "-m", "maslovcw", "verify", "--suite", "all",
                           "--seed", str(seed)], cwd=tree, env=_env(tree), capture_output=True)
    return proc.returncode, proc.stdout.decode("utf-8", "replace")


def cli_runs(tree: Path, seed: int, work: Path) -> list:
    """[{op, exit, stdout}] of the tree's ``cli_files`` ops at ``seed``, inputs written to ``work``."""
    proc = subprocess.run([sys.executable, "-c", _OPS, str(tree), str(seed), str(work)],
                          cwd=tree, env=_env(tree), capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"same_output: the cli_files ops failed in {tree}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def faces_run(tree: Path, argv: list, sidecar: Path) -> tuple:
    """(exit code, stdout text, sidecar bytes) of the tree's ``maslovcw ARGV --faces-csv SIDECAR``.

    The sidecar is read and removed, so the other tree writes the same path.
    """
    proc = subprocess.run([sys.executable, "-m", "maslovcw", *argv, "--faces-csv", str(sidecar)],
                          cwd=tree, env=_env(tree), capture_output=True)
    data = sidecar.read_bytes() if sidecar.exists() else b""
    sidecar.unlink(missing_ok=True)
    return proc.returncode, proc.stdout.decode("utf-8", "replace"), data


def differing_keys(a: str, b: str) -> str:
    """The top-level JSON keys whose values differ, or why the texts cannot be compared."""
    try:
        x, y = json.loads(a), json.loads(b)
    except ValueError:
        return "stdout is not one JSON document"
    if not (isinstance(x, dict) and isinstance(y, dict)):
        return "stdout is not a JSON object"
    keys = sorted(k for k in x.keys() | y.keys() if x.get(k, ...) != y.get(k, ...))
    return ", ".join(keys) if keys else "none (the bytes differ only in formatting)"


def compare(name: str, parent: tuple, change: tuple) -> bool:
    """Print a line for a differing (exit code, stdout) pair; True when they are the same."""
    if parent == change:
        return True
    print(f"{name}: exit {parent[0]} -> {change[0]}; keys: {differing_keys(parent[1], change[1])}")
    return False


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--cli-seed", type=int, default=41, help="seed of the cli_files inputs")
    args = ap.parse_args(argv)
    trees = (args.parent.resolve(), args.change.resolve())
    same = True
    for seed in VERIFY_SEEDS:
        same &= compare(f"verify --seed {seed}", *(verify_run(t, seed) for t in trees))
    with tempfile.TemporaryDirectory(prefix="same_output_") as work:
        work = Path(work)
        parent, change = (cli_runs(t, args.cli_seed, work) for t in trees)
        cw_runs = [["cw", "--builtin", "example_2_7", "--mesh", "64"]]
        cw_runs += [["cw", "--input", str(p)] for p in sorted(work.glob("cw*.json"))]
        cw_runs += [argv + ["--substeps", str(s)] for argv in cw_runs[:2] for s in (2, 3)]
        for argv in cw_runs:
            a, b = (faces_run(t, argv, work / "faces.csv") for t in trees)
            name = " ".join(argv).replace(str(work), "WORK") + " --faces-csv"
            same &= compare(name, a[:2], b[:2])
            if a[2] != b[2] or not a[2]:
                print(f"{name}: the sidecars differ or are empty ({len(a[2])} and {len(b[2])} B)")
                same = False
    if [r["op"] for r in parent] != [r["op"] for r in change]:
        print("cli_files: the op lists differ")
        return 1
    for a, b in zip(parent, change):
        same &= compare(f"cli_files seed {args.cli_seed} op {a['op']}",
                        (a["exit"], a["stdout"]), (b["exit"], b["stdout"]))
    n = len(VERIFY_SEEDS) + len(parent) + len(cw_runs)
    print(f"{'same' if same else 'different'}: {len(VERIFY_SEEDS)} verify seeds, "
          f"{len(parent)} cli_files ops and {len(cw_runs)} cw --faces-csv runs "
          f"({n} outputs) compared")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Compare the stdout of two source trees, byte for byte.

    python3 tools/same_output.py PARENT CHANGE [--cli-seed 41]

PARENT and CHANGE are checkouts of the repository.  For each tree, in a
subprocess with that tree's ``src/`` on the path:

* ``maslovcw verify --suite all --seed S`` runs for seeds 0-31;
* the ``cli_files`` ops of ``perfbench/workloads.build`` (imported read-only,
  from that tree) run at the cli seed, on inputs written to one temporary
  directory, the same path for both trees, since the reports echo it.

Each verify seed and each op whose exit code or stdout differs between the
trees is printed with both exit codes and the top-level JSON keys whose
values differ.  Exits 1 on any difference, 0 when every output is
byte-identical.  Standard library plus numpy (which the ops import).
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
        parent, change = (cli_runs(t, args.cli_seed, Path(work)) for t in trees)
    if [r["op"] for r in parent] != [r["op"] for r in change]:
        print("cli_files: the op lists differ")
        return 1
    for a, b in zip(parent, change):
        same &= compare(f"cli_files seed {args.cli_seed} op {a['op']}",
                        (a["exit"], a["stdout"]), (b["exit"], b["stdout"]))
    n = len(VERIFY_SEEDS) + len(parent)
    print(f"{'same' if same else 'different'}: {len(VERIFY_SEEDS)} verify seeds and "
          f"{len(parent)} cli_files ops ({n} outputs) compared")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())

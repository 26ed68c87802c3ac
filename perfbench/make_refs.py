#!/usr/bin/env python3
"""Regenerate ``perfbench/refs.json`` from the package as it stands.

    python3 perfbench/make_refs.py verify FIRST LAST   # verify fingerprints
    python3 perfbench/make_refs.py pins FIRST LAST     # input hashes

Each part covers the seeds FIRST..LAST inclusive and leaves the other part
and other seeds untouched.  A reference records what the code computed when
it was made; regenerate it only when a change to the reported exact values
or to the inputs is intended and explained.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

import run
import workloads
from verify_ref import fingerprint


def load() -> dict:
    if workloads.REFS.exists():
        return json.loads(workloads.REFS.read_text())
    return {"verify": {}, "pins": {}}


def save(refs: dict) -> None:
    workloads.REFS.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


def main(argv) -> int:
    part, first, last = argv[0], int(argv[1]), int(argv[2])
    run.bootstrap()

    for seed in range(first, last + 1):
        refs = load()
        t0 = time.perf_counter()
        if part == "verify":
            code, text = workloads.run_cli(["verify", "--suite", "all", "--seed", str(seed)])
            if code != 0:
                print(f"seed {seed}: verify exited {code}; no reference written", file=sys.stderr)
                continue
            refs["verify"][str(seed)] = fingerprint(text)
        elif part == "pins":
            run.WORK_DIR.mkdir(exist_ok=True)
            work = Path(tempfile.mkdtemp(dir=run.WORK_DIR))
            try:
                refs["pins"][str(seed)] = {
                    name: workloads.build(name, seed, work).inputs_sha256
                    for name in workloads.WORKLOADS
                }
            finally:
                shutil.rmtree(work, ignore_errors=True)
        else:
            raise SystemExit(f"unknown part {part!r}")
        save(refs)
        print(f"seed {seed}: {part} done in {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

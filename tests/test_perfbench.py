"""The benchmark's own self-test still passes against this checkout.

``perfbench/selftest.py`` drives every workload on tiny inputs through the
public API, the tracer's binding sites and ``run.py --report``, so an API
change the benchmark depends on (a renamed function, a positional argument
that moved) fails here and not only when the benchmark runs.
"""

import subprocess
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parent.parent / "perfbench" / "selftest.py"


def test_benchmark_selftest_reports_no_problem():
    proc = subprocess.run([sys.executable, str(SELFTEST)], capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert proc.stdout.rstrip().endswith("\n0 problem(s)"), proc.stdout[-2000:]

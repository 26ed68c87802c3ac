"""Timing in reference seconds, with the machine's own speed factored out.

The benchmark was built on a shared two-core machine whose speed drifted by
up to a factor of 1.7 within a minute.  Raw pass times of ``topology`` and
``cli_files`` spread by 17% to 19% over a few minutes; divided by the median
time of ``reference_kernel``, timed in line between the ops of the same
pass, they spread by 4% to 7%.  (A kernel of small LAPACK calls alone
tracked ``cli_files`` no better than raw time: it stays in cache while the
workloads stream arrays larger than it.  Sampling the kernel from a SIGALRM
handler, at arbitrary points inside ops, tracked several times worse.)  So
every end-to-end time is reported in reference seconds: raw seconds times
``REFERENCE_S / median(kernel time)``.  The kernel does not use the package.
Raw times and the factor are kept in the run's record.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

REFERENCE_S = 0.08  # the kernel's time on the reference machine, by definition
GAP_S = 0.5         # at most one kernel sample per GAP_S of run time


def reference_kernel():
    """A fixed mix like the package's: small batched eigh/SVD, complex() parsing,
    JSON, and complex exponentials streamed over 16 MB, more than a cache holds.

    The streaming part works in buffers allocated here, once, so the kernel
    adds a constant to the process's RSS rather than a transient peak on top
    of the workload's own.
    """
    rng = np.random.default_rng(0)
    H = rng.normal(size=(1500, 4, 4)) + 1j * rng.normal(size=(1500, 4, 4))
    H = H + np.conj(np.swapaxes(H, -1, -2))
    M = rng.normal(size=(3000, 3, 3))
    rows = rng.normal(size=(3000, 2)).tolist()
    phases = rng.normal(size=1_000_000)
    z = np.empty(phases.shape, dtype=complex)
    partial = np.empty_like(z)

    def kernel() -> float:
        t0 = time.perf_counter()
        lam, V = np.linalg.eigh(H)
        (V * lam[:, None, :]) @ np.conj(np.swapaxes(V, -1, -2))
        np.linalg.svd(M)
        total = 0j
        for re, im in rows:
            total += complex(re, im)
        json.loads(json.dumps(rows))
        np.multiply(phases, 1j, out=z)
        np.exp(z, out=z)
        np.vdot(z, z)
        np.cumsum(z, out=partial)
        return time.perf_counter() - t0

    return kernel


class Clock:
    """Wall clock that times the reference kernel in line, between ops.

    ``tick()`` runs the kernel when GAP_S has passed since the last sample;
    ``now()`` excludes the time spent in the kernel, so op timings do not
    include it.
    """

    def __init__(self):
        self.kernel = reference_kernel()
        self.samples: list = []
        self.paused = 0.0
        self._last = -GAP_S

    def sample(self) -> None:
        d = self.kernel()
        self.samples.append(d)
        self.paused += d
        self._last = time.perf_counter()

    def tick(self) -> None:
        if time.perf_counter() - self._last >= GAP_S:
            self.sample()

    def now(self) -> float:
        return time.perf_counter() - self.paused

    def ticking(self, fn):
        """``fn`` with a ``tick()`` before each call: boundaries inside a long op."""
        def ticked(*args, **kwargs):
            self.tick()
            return fn(*args, **kwargs)
        return ticked

    def factor(self, lo: int = 0, hi: int = None) -> float:
        """Reference seconds per raw second over ``samples[lo:hi]`` (all if empty)."""
        if not self.samples:
            self.sample()
        window = self.samples[max(lo, 0):hi] or self.samples
        return REFERENCE_S / statistics.median(window)

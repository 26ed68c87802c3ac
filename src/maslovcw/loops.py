"""Sampled loops in the Lagrangian Grassmannian and their winding indices.

A FrameLoop holds N unitary frames at parameters t_k = k/N.  The Maslov
index of the loop is the winding number of det(B) = det(frame)^2, computed
from principal phase increments under a pi/2 undersampling guard.  Loops are
stored as plain sample stacks; named generators cover the standard examples
and the file format mirrors the in-memory layout.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from . import matcore
from .errors import (
    LoopNotClosed, MaslovCWError, RankMismatch, Undersampled, UnknownName, ZeroSample,
)
from .grassmann import LagrangianFrame, same_lagrangian
from .tolerances import TOL

MIN_SAMPLES = 8


def winding_increments(zs: np.ndarray) -> np.ndarray:
    """Principal phase increments of a closed loop of nonzero complex numbers.

    Raises ZeroSample on a vanishing entry and Undersampled when any
    increment reaches the guard (pi/2 by default, leaving a 2x margin
    against aliasing) or is NaN.
    """
    zs = np.asarray(zs, dtype=complex).ravel()
    if np.any(np.abs(zs) <= 1e-15):
        raise ZeroSample("winding input touches zero")
    dphi = np.angle(np.roll(zs, -1) / zs)
    worst = float(np.max(np.abs(dphi)))
    if not worst < TOL.winding_guard:
        raise Undersampled(
            f"phase step {worst:.4f} rad >= guard {TOL.winding_guard:.4f}; "
            "refine the sampling"
        )
    return dphi


def winding_detail(zs: np.ndarray):
    """(rounded winding, raw value, |raw - rounded| residual)."""
    dphi = winding_increments(zs)
    raw = float(dphi.sum() / (2.0 * np.pi))
    rounded = int(round(raw))
    return rounded, raw, abs(raw - rounded)


def winding(zs: np.ndarray) -> int:
    """Winding number of a closed sampled loop in C \\ {0}."""
    return winding_detail(zs)[0]


@dataclass(frozen=True, eq=False)
class FrameLoop:
    """Closed sampled path of Lagrangian frames over a boundary circle."""

    n: int
    samples: np.ndarray  # (N, n, n) complex, frames at t_k = k/N

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=complex)
        if s.ndim != 3 or s.shape[1] != s.shape[2] or s.shape[1] != self.n:
            raise RankMismatch(f"samples shape {s.shape} does not match rank {self.n}")
        if self.n > matcore.MAX_RANK:
            raise RankMismatch(f"rank {self.n} exceeds the {matcore.MAX_RANK} cap")
        if s.shape[0] < MIN_SAMPLES:
            raise Undersampled(f"need at least {MIN_SAMPLES} samples, got {s.shape[0]}")
        if not np.all(np.isfinite(s)):
            raise ZeroSample("non-finite frame entries")
        defect = matcore.unitary_defect(s)
        if defect > TOL.same_lagrangian:
            raise Undersampled(f"frame unitary defect {defect:.3g} at construction")
        if defect > 1e-12:
            s = matcore.unitarize_batch(s)
        object.__setattr__(self, "samples", s)
        det_b = np.linalg.det(s) ** 2
        det_b.flags.writeable = False
        object.__setattr__(self, "_det_b", det_b)
        # guard: det B must advance by less than pi/2 per step
        winding_increments(det_b)

    @classmethod
    def from_path(cls, samples: np.ndarray) -> "FrameLoop":
        """Build a loop from an open path that includes both endpoints.

        The final sample must span the same Lagrangian as the first (it may
        differ by a right real-orthogonal factor); it is then dropped.
        """
        samples = np.asarray(samples, dtype=complex)
        n = samples.shape[1]
        first = LagrangianFrame(n, samples[0])
        last = LagrangianFrame(n, samples[-1])
        if not same_lagrangian(first, last):
            raise LoopNotClosed("endpoint Lagrangian differs from the start")
        return cls(n, samples[:-1])

    def __len__(self) -> int:
        return self.samples.shape[0]

    @cached_property
    def aligned(self):
        """``aligned_frames(samples)`` as read-only arrays, computed on first read.

        An Undersampled alignment is not cached: it raises on every read.
        """
        w, o_wrap = aligned_frames(self.samples)
        w.flags.writeable = False
        o_wrap.flags.writeable = False
        return w, o_wrap

    def frame(self, k: int) -> LagrangianFrame:
        return LagrangianFrame(self.n, self.samples[k % len(self)])

    def det_b(self) -> np.ndarray:
        """det(B) = det(frame)^2 at every sample, computed once (read-only)."""
        return self._det_b

    def reversed(self) -> "FrameLoop":
        """Orientation reversal; keeps sample 0 as the base point."""
        rev = np.roll(self.samples[::-1], 1, axis=0)
        return FrameLoop(self.n, rev)

    def refined(self, factor: int = 2) -> "FrameLoop":
        """Insert polar midpoints between consecutive aligned frames."""
        out = self
        for _ in range(int(np.log2(factor))):
            w, o_wrap = out.aligned
            nxt = np.concatenate([w[1:], (w[0] @ o_wrap)[None]], axis=0)
            mids = matcore.unitarize_batch(0.5 * (w + nxt))
            doubled = np.empty((2 * len(out), out.n, out.n), dtype=complex)
            doubled[0::2] = w
            doubled[1::2] = mids
            out = FrameLoop(out.n, doubled)
        return out


def maslov_loop(loop: FrameLoop) -> int:
    """Maslov index: winding number of det(B) along the loop."""
    return winding(loop.det_b())


def orientation_reverse(loop: FrameLoop) -> FrameLoop:
    return loop.reversed()


@dataclass(frozen=True, eq=False)
class BundlePairSpec:
    """Boundary data of a bundle pair: one oriented frame loop per component."""

    n: int
    loops: tuple
    euler_characteristic: int = 1

    def __post_init__(self):
        if not self.loops:
            raise RankMismatch("need at least one boundary component")
        for L in self.loops:
            if L.n != self.n:
                raise RankMismatch("all boundary loops must share the rank")
        object.__setattr__(self, "loops", tuple(self.loops))

    @property
    def components(self) -> int:
        return len(self.loops)


def maslov_bundle_pair(pair: BundlePairSpec) -> int:
    """Sum of the per-component loop indices, in component order."""
    return sum(maslov_loop(L) for L in pair.loops)


# ---------------------------------------------------------------------------
# frame alignment: smooth the right O(n) gauge so consecutive samples are close
# ---------------------------------------------------------------------------

def _polar_orthogonal(R: np.ndarray):
    A, s, Bt = np.linalg.svd(R)
    return A @ Bt, float(s.min())


def aligned_frames(samples: np.ndarray):
    """Right-multiply each frame by an O(n) factor so the path varies slowly.

    Returns (aligned samples, wrap monodromy O_w) with the continuation
    convention w(t + 1) = w(t) O_w.  The per-step orthogonal Procrustes
    problems are solved independently and chained; a small or NaN singular
    value in any alignment matrix means the loop is too coarsely sampled.
    """
    u = np.asarray(samples, dtype=complex)
    N, n, _ = u.shape
    if n == 0:
        raise RankMismatch("empty frames")
    M = np.real(np.swapaxes(u[1:], -1, -2).conj() @ u[:-1])
    if n == 1:
        # the polar factor of a 1x1 matrix is its sign, and products of +-1
        # are exact, so this equals the SVD chain bitwise
        s, steps = np.abs(M), np.sign(M)
    elif np.isfinite(M).all():
        A, s, Bt = np.linalg.svd(M)
        steps = A @ Bt
    else:
        s = np.array(np.nan)  # the SVD would raise LinAlgError; the guard reports it
    if not s.min() >= TOL.frame_step_sv:
        raise Undersampled(
            f"frame alignment singular value {s.min():.3f} < {TOL.frame_step_sv}"
        )
    # only the O(n) chain is sequential; the frames are rotated in one batch
    O = np.empty((N, n, n))
    O[0] = np.eye(n)
    if n == 1:
        np.cumprod(steps, axis=0, out=O[1:])
    else:
        for k in range(1, N):
            np.matmul(steps[k - 1], O[k - 1], out=O[k])
    w = u @ O
    # wrap monodromy from a 5-point extrapolation past the last sample
    if N >= 5:
        w_next = 5 * w[-1] - 10 * w[-2] + 10 * w[-3] - 5 * w[-4] + w[-5]
    else:
        w_next = w[-1]
    O_w, sv = _polar_orthogonal(np.real(w[0].conj().T @ w_next))
    if not sv >= TOL.frame_step_sv:
        raise Undersampled(f"wrap alignment singular value {sv:.3f}")
    return w, O_w


# ---------------------------------------------------------------------------
# generators and file format
# ---------------------------------------------------------------------------

def generate_loop(name: str, N: int = 256, **params) -> FrameLoop:
    """Built-in loops: ``circle_tangent``, ``power_k`` (param k), ``constant``."""
    t = np.arange(N) / N
    if name == "circle_tangent":
        # tangent lines of the unit circle; index 2
        return FrameLoop(1, (1j * np.exp(2j * np.pi * t))[:, None, None])
    if name == "power_k":
        k = int_from_json(params.get("k", 1), "k")
        return FrameLoop(1, np.exp(1j * np.pi * k * t)[:, None, None])
    if name == "constant":
        n = int_from_json(params.get("n", 1), "n")
        frame = params.get("frame")
        try:
            f = np.eye(n, dtype=complex) if frame is None else np.asarray(frame, complex)
        except TypeError:
            raise RankMismatch("a constant frame must be a square array of numbers") from None
        return FrameLoop(n, np.tile(f, (N, 1, 1)))
    raise UnknownName(f"unknown loop generator {name!r}")


def random_frame_loop(
    rng: np.random.Generator,
    n: int,
    N: int = 512,
    k_max: int = 3,
    index_cap: Optional[int] = 8,
):
    """Seeded random loop with a known index.

    Frames are Q diag(e^{i pi k_j t}) R(t) for a fixed Haar unitary Q, integer
    twists k_j and a closed SO(n) rotation loop; the Maslov index is exactly
    sum(k_j).  Returns (loop, index).
    """
    while True:
        ks = rng.integers(-k_max, k_max + 1, n)
        if index_cap is None or abs(int(ks.sum())) <= index_cap:
            break
    t = np.arange(N) / N
    Q = matcore.haar_unitary(n, rng)
    u = Q[None, :, :] * np.exp(1j * np.pi * np.outer(t, ks))[:, None, :]
    if n >= 2:
        m = int(rng.integers(-2, 3))
        p, q = rng.choice(n, size=2, replace=False)
        th = 2 * np.pi * m * t
        R = np.tile(np.eye(n), (N, 1, 1))
        R[:, p, p] = np.cos(th)
        R[:, q, q] = np.cos(th)
        R[:, p, q] = -np.sin(th)
        R[:, q, p] = np.sin(th)
        u = u @ R
    return FrameLoop(n, u), int(ks.sum())


def loop_to_json(loop: FrameLoop) -> dict:
    flat = loop.samples.reshape(len(loop), loop.n * loop.n)
    return {
        "n": loop.n,
        "samples": [[[float(z.real), float(z.imag)] for z in row] for row in flat],
    }


def int_from_json(value, name: str) -> int:
    """An integer (or a float with no fractional part) as an int, else MaslovCWError."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    try:
        return operator.index(value)
    except TypeError:
        raise MaslovCWError(f"{name!r} must be an integer, got {value!r}") from None


def samples_from_json(rows, n: int) -> np.ndarray:
    """(N, n, n) complex samples from N rows of n² row-major [re, im] pairs.

    Raises RankMismatch unless ``rows`` is a list of such rows of numbers.
    """
    try:
        arr = np.asarray(rows)
    except ValueError:  # ragged nesting
        arr = None
    if arr is None or arr.dtype.kind not in "biuf" or arr.ndim != 3 or arr.shape[1:] != (n * n, 2):
        raise RankMismatch(f"samples must be rows of {n * n} [re, im] pairs")
    s = np.empty(arr.shape[:2], dtype=complex)
    s.real = arr[..., 0]
    s.imag = arr[..., 1]
    return s.reshape(-1, n, n)


def loop_from_json(obj: dict) -> FrameLoop:
    if not isinstance(obj, dict):
        raise MaslovCWError("a frame loop file must hold a JSON object")
    if "generator" in obj:
        params = obj.get("params", {})
        if not isinstance(params, dict):
            raise MaslovCWError("generator params must be a JSON object")
        params = dict(params)
        N = int_from_json(params.pop("N", 256), "N")
        return generate_loop(obj["generator"], N=N, **params)
    n = int_from_json(obj["n"], "n")
    return FrameLoop(n, samples_from_json(obj["samples"], n))


def load_loop(path: str) -> FrameLoop:
    with open(path, "r", encoding="utf-8") as fh:
        return loop_from_json(json.load(fh))


def save_loop(loop: FrameLoop, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(loop_to_json(loop), fh)

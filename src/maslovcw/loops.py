"""Sampled loops in the Lagrangian Grassmannian and their winding indices.

A FrameLoop holds N unitary frames at parameters t_k = k/N.  The Maslov
index of the loop is the winding number of det(B) = det(frame)^2, computed
from principal phase increments under a pi/2 undersampling guard.  Loops are
stored as plain sample stacks; named generators cover the standard examples
and the file format mirrors the in-memory layout.
"""

from __future__ import annotations

import contextlib
import gc
import json
import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Optional

import numpy as np

from . import matcore
from .errors import (
    InvalidParameter, MaslovCWError, RankMismatch, Undersampled, UnknownName, ZeroSample,
)
from .tolerances import TOL

MIN_SAMPLES = 8
# the most samples a generated loop or an orbifold pullback may have
MAX_SAMPLES = 2**16


def winding_increments(zs: np.ndarray) -> np.ndarray:
    """Principal phase increments of a closed loop of nonzero complex numbers.

    Raises ZeroSample on a vanishing entry and Undersampled on a NaN or
    infinite entry, or when any increment reaches the guard (pi/2 by
    default, leaving a 2x margin against aliasing) or is NaN.
    """
    zs = np.asarray(zs, dtype=complex).ravel()
    size = np.abs(zs)
    if np.any(size <= 1e-15):
        raise ZeroSample("winding input touches zero")
    if not np.isfinite(size.max()):  # the max of the sizes is inf or NaN if any is
        raise Undersampled("winding input has a non-finite sample")
    # a NaN increment is reported by the guard below, not by a numpy warning
    with np.errstate(invalid="ignore"):
        dphi = np.angle(np.roll(zs, -1) / zs)
    worst = float(np.max(np.abs(dphi)))
    if not worst < TOL.winding_guard:
        raise Undersampled(
            f"phase step {worst:.4f} rad >= guard {TOL.winding_guard:.4f}; "
            "refine the sampling"
        )
    return dphi


def _turns(dphi: np.ndarray) -> int:
    """The summed phase increments in whole turns, rounded to the nearest."""
    return int(round(float(dphi.sum() / (2.0 * np.pi))))


def winding(zs: np.ndarray) -> int:
    """Winding number of a closed sampled loop in C \\ {0}."""
    return _turns(winding_increments(zs))


@dataclass(frozen=True, eq=False)
class FrameLoop:
    """Closed sampled path of Lagrangian frames over a boundary circle."""

    n: int
    samples: np.ndarray  # (N, n, n) complex, frames at t_k = k/N

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=complex)
        if s.ndim != 3 or s.shape[1] != s.shape[2] or s.shape[1] != self.n:
            raise RankMismatch(f"samples shape {s.shape} does not match rank {self.n}")
        if not 1 <= self.n <= matcore.MAX_RANK:
            raise RankMismatch(f"rank {self.n} outside [1, {matcore.MAX_RANK}]")
        if s.shape[0] < MIN_SAMPLES:
            raise Undersampled(f"need at least {MIN_SAMPLES} samples, got {s.shape[0]}")
        if not np.all(np.isfinite(s)):
            raise ZeroSample("non-finite frame entries")
        defect = matcore.unitary_defect(s)
        if not defect <= TOL.same_lagrangian:
            raise Undersampled(f"frame unitary defect {defect:.3g} at construction")
        if defect > TOL.loop_polish:
            s = matcore.unitarize_batch(s)
        object.__setattr__(self, "samples", s)
        det_b = matcore.det(s) ** 2
        # guard: det B must advance by less than pi/2 per step
        dphi = winding_increments(det_b)
        for name, a in (("_det_b", det_b), ("_dphi", dphi)):
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    def __len__(self) -> int:
        return self.samples.shape[0]

    @cached_property
    def alignment_margins(self):
        """``alignment_guard(samples)``, on first read: the smallest step and wrap singular values.

        The guards of ``aligned`` on the same step matrices, without the
        alignment; an Undersampled loop is not cached: it raises on every
        read.
        """
        return alignment_guard(self.samples)

    @cached_property
    def aligned(self):
        """``aligned_frames(samples)`` as read-only arrays, computed on first read.

        Only the full boundary forms and ``refined`` read it; the index path
        reads ``alignment_margins``.  An Undersampled alignment is not
        cached: it raises on every read.
        """
        w, o_wrap = aligned_frames(self.samples)
        w.flags.writeable = False
        o_wrap.flags.writeable = False
        return w, o_wrap

    def det_b(self) -> np.ndarray:
        """det(B) = det(frame)^2 at every sample, computed once (read-only)."""
        return self._det_b

    def phase_increments(self) -> np.ndarray:
        """Principal increments of arg det B, sample k to k + 1 and across the seam (read-only)."""
        return self._dphi

    def refined(self) -> "FrameLoop":
        """The loop with twice the samples: polar midpoints between aligned frames."""
        w, o_wrap = self.aligned
        nxt = np.concatenate([w[1:], (w[0] @ o_wrap)[None]], axis=0)
        doubled = np.empty((2 * len(self), self.n, self.n), dtype=complex)
        doubled[0::2] = w
        doubled[1::2] = matcore.unitarize_batch(0.5 * (w + nxt))
        return FrameLoop(self.n, doubled)


def maslov_loop(loop: FrameLoop) -> int:
    """Maslov index: winding number of det(B) along the loop, from its kept increments."""
    return _turns(loop.phase_increments())


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

def _step_matrices(samples: np.ndarray):
    """(u, M) with M[k] = Re(u[k+1]* u[k]), the alignment matrix of step k (no seam).

    At rank 2 or more, M = X[k+1]^T X[k] + Y[k+1]^T Y[k] for X, Y the real
    and imaginary parts of u: about twice as fast as the complex product,
    and equal to it within rounding (a few 1e-16).  At rank 1 the complex
    product is the faster.
    """
    u = np.asarray(samples, dtype=complex)
    if u.shape[1] == 0:
        raise RankMismatch("empty frames")
    if u.shape[1] == 1:
        return u, np.real(u[1:].conj() @ u[:-1])
    x, y = u.real, u.imag
    M = np.swapaxes(x[1:], -1, -2) @ x[:-1]
    M += np.swapaxes(y[1:], -1, -2) @ y[:-1]
    return u, M


def _polar(M: np.ndarray):
    """(singular values, polar factors) of a stack of real n x n matrices, or of one.

    At rank 1 they are |M| and sign(M), equal to the SVD's bitwise, and no
    SVD runs.  Above, a non-finite entry gives NaN singular values and no
    polar factors (the SVD would raise LinAlgError), for the guard to report.
    """
    if M.shape[-1] == 1:
        return np.abs(M[..., 0]), np.sign(M)
    if not np.isfinite(M).all():
        return np.full(M.shape[:-1], np.nan), None
    A, s, Bt = np.linalg.svd(M)
    return s, A @ Bt


def _min_step_sv(M: np.ndarray) -> float:
    """The smallest singular value of the step matrices ``M`` (N, n, n), NaN if one is not finite.

    |M| at rank 1.  At rank 2, M = [[a, b], [c, d]] has the singular values
    (hypot(a + d, b - c) +- hypot(a - d, b + c)) / 2.  Above, the square
    root of the smallest eigenvalue of M^T M.
    """
    n = M.shape[-1]
    if n == 1:
        return float(np.abs(M).min())
    if not np.isfinite(M).all():
        return np.nan  # the guard reports it
    if n == 2:
        a, b, c, d = M[:, 0, 0], M[:, 0, 1], M[:, 1, 0], M[:, 1, 1]
        return float(np.abs(np.hypot(a + d, b - c) - np.hypot(a - d, b + c)).min() / 2)
    return float(np.sqrt(max(np.linalg.eigvalsh(np.swapaxes(M, -1, -2) @ M)[:, 0].min(), 0.0)))


def _check_step(step_sv) -> None:
    """Raise Undersampled unless the smallest step singular value clears the guard (NaN fails)."""
    if not step_sv >= TOL.frame_step_sv:
        raise Undersampled(
            f"frame alignment singular value {step_sv:.3f} < {TOL.frame_step_sv}"
        )


def _check_wrap(first: np.ndarray, f: np.ndarray):
    """(smallest singular value, polar factor) of Re(first* f_next), checked against the guard.

    f_next is the frame one sample past the last of ``f``: a 5-point
    extrapolation, or the last frame if there are fewer than 5.
    """
    nxt = f[-1] if len(f) < 5 else 5 * f[-1] - 10 * f[-2] + 10 * f[-3] - 5 * f[-4] + f[-5]
    s, polar = _polar(np.real(first.conj().T @ nxt))
    wrap = s.min()
    if not wrap >= TOL.frame_step_sv:
        raise Undersampled(f"wrap alignment singular value {wrap:.3f}")
    return wrap, polar


def alignment_guard(samples: np.ndarray):
    """The guards of ``aligned_frames`` without aligning: smallest step and wrap singular values.

    The step matrices are those of ``aligned_frames``, and their smallest
    singular value comes from ``_min_step_sv``, with no SVD.  The aligned
    frames are w[k] = u[k] O[k], O[k] = steps[k-1] ... steps[0], so each of
    the last five is u[k] R[k] O[N-1], R[k] a product of the last four
    polar steps transposed.  Re(w[0]* w_next) is the same extrapolation of
    u[k] R[k] times the orthogonal O[N-1], so it has the same singular
    values, and no frame is rotated.  Raises the same Undersampled errors
    at the same ``TOL.frame_step_sv``, also on NaN.
    """
    u, M = _step_matrices(samples)
    N, n, _ = u.shape
    s = _min_step_sv(M)
    _check_step(s)
    tail = u
    if N >= 5:
        last = _polar(M[-4:])[1]
        R = np.empty((5, n, n))
        R[4] = np.eye(n)
        for j in (3, 2, 1, 0):  # at rank 1 a chain of +-1: exact
            np.matmul(last[j].T, R[j + 1], out=R[j])
        tail = u[-5:] @ R
    return s, float(_check_wrap(u[0], tail)[0])


def aligned_frames(samples: np.ndarray):
    """Right-multiply each frame by an O(n) factor so the path varies slowly.

    Returns (aligned samples, wrap monodromy O_w) with the continuation
    convention w(t + 1) = w(t) O_w.  The per-step orthogonal Procrustes
    problems take their polar factors from one batched ``_polar`` of the
    step matrices and are chained by a prefix scan of log2(N) batched
    products; a small or NaN singular value in any step, or in the wrap,
    means the loop is too coarsely sampled.  The guards and their errors are
    those of ``alignment_guard``, fed from the same step matrices.
    """
    u, M = _step_matrices(samples)
    N, n, _ = u.shape
    s, steps = _polar(M)
    _check_step(s.min())
    # O[k] = steps[k-1] ... steps[0]; the frames are rotated in one batch
    O = np.empty((N, n, n))
    O[0] = np.eye(n)
    if n == 1:
        # products of +-1 are exact, so this equals the scan below bitwise, and is faster
        np.cumprod(steps, axis=0, out=O[1:])
    else:
        # Hillis-Steele scan: after the round with stride d, O[k] holds the
        # product of the last 2d steps before k (all of them once k <= 2d)
        O[1:] = steps
        d = 1
        while d < N:
            O[d:] = O[d:] @ O[:-d]
            d *= 2
    w = u @ O
    return w, _check_wrap(w[0], w)[1]


# ---------------------------------------------------------------------------
# generators and file format
# ---------------------------------------------------------------------------

_GENERATOR_PARAMS = {"circle_tangent": set(), "power_k": {"k"}, "constant": {"n", "frame"}}


def generate_loop(name: str, N: int = 256, **params) -> FrameLoop:
    """Built-in loops: ``circle_tangent``, ``power_k`` (param k), ``constant`` (n, frame).

    Raises before allocating if N lies outside [MIN_SAMPLES, MAX_SAMPLES],
    the rank n outside [1, MAX_RANK], or a param is not one the generator
    reads.
    """
    if N < MIN_SAMPLES:
        raise Undersampled(f"need at least {MIN_SAMPLES} samples, got {N}")
    if N > MAX_SAMPLES:
        raise InvalidParameter(f"{N} samples exceed the cap of {MAX_SAMPLES}")
    if not isinstance(name, str) or name not in _GENERATOR_PARAMS:
        raise UnknownName(f"unknown loop generator {name!r}")
    unknown = sorted(set(params) - _GENERATOR_PARAMS[name])
    if unknown:
        raise InvalidParameter(f"generator {name!r} takes no params {unknown}")
    t = np.arange(N) / N
    if name == "circle_tangent":
        # tangent lines of the unit circle; index 2
        return FrameLoop(1, (1j * np.exp(2j * np.pi * t))[:, None, None])
    if name == "power_k":
        k = int_from_json(params.get("k", 1), "k")
        # det B turns by 2 pi k / N per step: at pi/2 or more the samples
        # alias inside the winding guard, so reject before sampling
        if 4 * abs(k) >= N:
            raise Undersampled(f"power_k with k = {k} needs more than 4|k| samples, got {N}")
        return FrameLoop(1, np.exp(1j * np.pi * k * t)[:, None, None])
    # constant
    n = int_from_json(params.get("n", 1), "n")
    if not 1 <= n <= matcore.MAX_RANK:
        raise RankMismatch(f"rank {n} outside [1, {matcore.MAX_RANK}]")
    frame = params.get("frame")
    try:  # no dtype yet: an integer too large for a float becomes an object entry
        f = np.eye(n, dtype=complex) if frame is None else np.asarray(frame)
    except ValueError:  # ragged nesting
        f = None
    if f is None or f.dtype.kind not in "biufc":
        raise RankMismatch(f"rank-{n} constant frame: need a square array of numbers")
    return FrameLoop(n, np.tile(f.astype(complex), (N, 1, 1)))


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
    """An integer (or a float with no fractional part) as an int, else MaslovCWError.

    A boolean is not an integer here, though Python counts True as 1.
    """
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise MaslovCWError(f"{name!r} must be an integer, got {value!r}")


def samples_from_json(rows, n: int) -> np.ndarray:
    """(N, n, n) complex samples from N rows of n² row-major [re, im] pairs.

    Raises RankMismatch unless ``rows`` is a list of such rows of numbers;
    a JSON boolean is not a number here.
    """
    try:
        arr = np.asarray(rows)
    except ValueError:  # ragged nesting
        arr = None
    if (arr is None or n < 1 or arr.dtype.kind not in "iuf" or arr.ndim != 3
            or arr.shape[1:] != (n * n, 2)):
        raise RankMismatch(f"samples must be rows of {n * n} [re, im] pairs")
    # np.asarray turns booleans among numbers into exact 0 and 1, so walk only
    # the samples holding such entries: at worst one C-level pass over the tree
    for k in np.flatnonzero(((arr == 0) | (arr == 1)).any(axis=(1, 2))).tolist():
        if bool in map(type, chain.from_iterable(rows[k])):
            raise RankMismatch(f"sample {k} holds a boolean, not a number")
    s = np.empty(arr.shape[:2], dtype=complex)
    s.real = arr[..., 0]
    s.imag = arr[..., 1]
    return s.reshape(-1, n, n)


def loop_from_json(obj: dict) -> FrameLoop:
    if not isinstance(obj, dict):
        raise MaslovCWError(f"a frame loop must be a JSON object, got {type(obj).__name__}")
    if "generator" in obj:
        params = obj.get("params", {})
        if not isinstance(params, dict):
            raise MaslovCWError("generator params must be a JSON object")
        params = dict(params)
        N = int_from_json(params.pop("N", 256), "N")
        return generate_loop(obj["generator"], N=N, **params)
    n = int_from_json(obj.get("n"), "n")
    return FrameLoop(n, samples_from_json(obj.get("samples"), n))


@contextlib.contextmanager
def _gc_paused():
    """Run the block with the cyclic garbage collector off, then restore the caller's state.

    For the life of a JSON sample tree: a JSON value holds no reference cycle
    and the builders make none, yet each ``[re, im]`` pair is a tracked list,
    so a large file would otherwise pay dozens of collections that walk the
    half-built tree.  Free the tree inside the block: CPython counts a freed
    tracked object off the pending gen-0 allocations, so a tree that outlives
    the block costs one collection over all of it at the next allocation.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _parse_json(path: str):
    """The JSON value in the file at ``path``; MaslovCWError, naming the file, if it does not parse."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise MaslovCWError(f"{path}: JSON nested too deeply") from None
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise MaslovCWError(f"{path}: {exc}") from None


def read_json(path: str, build):
    """``build(value)`` of the JSON value in the file at ``path``, parsed and built under ``_gc_paused``.

    The parsed tree is only an argument of ``build``, so it is freed when
    ``build`` returns, before the collector resumes.
    """
    with _gc_paused():
        return build(_parse_json(path))


def load_loop(path: str) -> FrameLoop:
    return read_json(path, loop_from_json)


def save_loop(loop: FrameLoop, path: str) -> None:
    # one call into the C encoder; json.dump streams through the Python one
    with _gc_paused():
        text = json.dumps(loop_to_json(loop))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)

"""Unitary connection 1-forms on meshed domains.

A ConnectionSpec evaluates the d(theta) coefficient A_theta of a
skew-Hermitian-valued 1-form with no dr part, and its trace, at batches of
points.  Collar connections extend a boundary frame loop inward through a
radial cutoff so that parallel transport along the boundary preserves the
Lagrangian frames; the analytic built-ins cover the standard disc example,
the flat connection, and the verify suite's non-unitary counterexample.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Callable, Optional

import numpy as np

from . import matcore
from .errors import InvalidParameter, NonUnitaryConnection, Undersampled, UnknownName
from .loops import FrameLoop
from .tolerances import TOL

# Cutoff profiles rise 0 -> 1 on [0, sat] and plateau at 1 afterwards, so the
# form has an exact product structure near the boundary.  Both have zero
# slope at the ends of the ramp.  They are the package's only ramps: the
# polygon corner arcs and the orbifold cone cutoff use them with sat = 1.
_SATURATION = 0.9


def _ramp_cubic(x: np.ndarray) -> np.ndarray:
    return x * x * (3.0 - 2.0 * x)


def _ramp_quintic(x: np.ndarray) -> np.ndarray:
    return x ** 3 * (10.0 - 15.0 * x + 6.0 * x * x)


_CUTOFFS = {"cubic": _ramp_cubic, "quintic": _ramp_quintic}


def cutoff_profile(x: np.ndarray, kind: str = "cubic", saturation: float = _SATURATION):
    if kind not in _CUTOFFS:
        raise UnknownName(f"unknown cutoff {kind!r}; choose from {sorted(_CUTOFFS)}")
    x = np.clip(np.asarray(x, dtype=float) / saturation, 0.0, 1.0)
    return _CUTOFFS[kind](x)


@dataclass(eq=False)
class ConnectionSpec:
    """Evaluator of a connection 1-form A_theta d(theta) with no dr part.

    ``coeffs(r, t)`` takes flat arrays and returns A_theta, shape
    r.shape + (n, n).  ``trace(r, t)`` returns tr A_theta, shape r.shape,
    equal up to rounding to the trace of the ``coeffs`` values.  Since
    d(theta) vanishes along radial edges, the spec is evaluated only at
    angular-edge points: the index path evaluates only the trace, and
    ``coeffs`` runs only on the rim, where its values are checked.
    ``unitary`` tags whether the values are skew-Hermitian (the builders'
    are, exactly); non-unitary specs are only accepted by the norm-drift
    pipeline.  ``rim_cutoff(r)``, when given, is
    the collar's cutoff as a function of the radius; at every quadrature
    point of the mesh's rim chords it must equal its value on the rim
    itself, or ``edge_transports`` raises Unrefined.  Every collar-type spec
    gives one.
    """

    n: int
    coeffs: Callable[[np.ndarray, np.ndarray], np.ndarray]
    trace: Callable[[np.ndarray, np.ndarray], np.ndarray]
    tag: str
    unitary: bool = True
    boundary_loop: Optional[FrameLoop] = None
    rim_cutoff: Optional[Callable[[np.ndarray], np.ndarray]] = None


def check_skew(defect: float, what: str) -> None:
    """Raise NonUnitaryConnection unless ``defect`` <= ``TOL.skew``; a NaN raises too."""
    if not defect <= TOL.skew:
        raise NonUnitaryConnection(f"skew-Hermitian defect {defect:.3g} of the {what}")


def collar_spec(term: Callable, traces: tuple, forms: Callable, n: int, tag: str,
                boundary_loop=None, rim_cutoff: Optional[Callable] = None) -> ConnectionSpec:
    """Rank-n spec: A_theta = term(*forms(), r, t), trace term(*traces, r, t).

    ``term`` may only interpolate, scale and add its inputs with real
    weights, for any trailing shape.  ``traces`` (complex arrays (N,) or ())
    are checked here, NaN-safe, to be imaginary.  ``forms()`` gives the
    skew-Hermitian samples (N, n, n) or matrices (n, n); it runs on the first
    ``coeffs`` call, where each form F is checked against ``TOL.skew``, made
    exactly skew, (F - F^*) / 2, and moved onto its trace: F - ((tr F -
    trace) / n) I.  So ``term``'s values are exactly skew off the diagonal,
    whose real part is the weighted Re trace / n, checked on every edge.
    ``rim_cutoff(r)`` is the collar cutoff (see ``ConnectionSpec``).
    """
    for tr in traces:
        check_skew(matcore.diagonal_skew_defect(tr), "boundary trace")
    diag = np.arange(n)

    @cache
    def shifted():
        out = []
        for F, tr in zip(forms(), traces):
            check_skew(matcore.skew_defect(F), "boundary form")
            F = 0.5 * (F - np.swapaxes(F, -1, -2).conj())
            F[..., diag, diag] -= ((np.trace(F, axis1=-2, axis2=-1) - tr) / n)[..., None]
            out.append(F)
        return out

    return ConnectionSpec(n, lambda r, t: term(*shifted(), r, t), lambda r, t: term(*traces, r, t),
                          tag, boundary_loop=boundary_loop, rim_cutoff=rim_cutoff)


def builtin_connection(name: str, n: int = 1) -> ConnectionSpec:
    """Named analytic connections on the unit disc.

    ``example_2_7``: d - i r d(theta) on the trivial line bundle, the
    orthogonal connection for the circle-tangent boundary loop.
    ``example_4_3_nonunitary``: d + r d(theta), real-valued, preserves the
    Lagrangian data but not the metric.  ``flat``: d.
    """
    if name == "example_2_7":
        return ConnectionSpec(1, lambda r, t: (-1j * r)[..., None, None].astype(complex),
                              lambda r, t: -1j * r, name)
    if name == "example_4_3_nonunitary":
        return ConnectionSpec(1, lambda r, t: r[..., None, None].astype(complex),
                              lambda r, t: r, name, unitary=False)
    if name == "flat":
        return ConnectionSpec(n, lambda r, t: np.zeros(r.shape + (n, n), dtype=complex),
                              lambda r, t: np.zeros(r.shape, dtype=complex), name)
    raise UnknownName(f"unknown builtin connection {name!r}")


# ---------------------------------------------------------------------------
# boundary 1-form of a frame loop and interpolation helpers
# ---------------------------------------------------------------------------

def _centred_derivative(ext: np.ndarray, N: int) -> np.ndarray:
    """Fourth-order centred d/dt at t_k = k/N of N samples padded by two on each side."""
    return (ext[0:N] - 8.0 * ext[1 : N + 1] + 8.0 * ext[3 : N + 3] - ext[4 : N + 4]) * (N / 12.0)


def _open_derivative(f: np.ndarray) -> np.ndarray:
    """Fourth-order d/dt of N samples at t_k = k/(N - 1), one-sided at the ends."""
    N = f.shape[0]
    h = 1.0 / (N - 1)
    d = np.empty_like(f)
    d[2 : N - 2] = (f[0 : N - 4] - 8 * f[1 : N - 3] + 8 * f[3 : N - 1] - f[4:N]) / (12 * h)
    for k in (0, 1):
        d[k] = (-25 * f[k] + 48 * f[k + 1] - 36 * f[k + 2] + 16 * f[k + 3] - 3 * f[k + 4]) / (12 * h)
    for k in (N - 2, N - 1):
        d[k] = (25 * f[k] - 48 * f[k - 1] + 36 * f[k - 2] - 16 * f[k - 3] + 3 * f[k - 4]) / (12 * h)
    return d


def loop_boundary_form(loop: FrameLoop):
    """Per-sample values of A(t) = w dw*/dt in the aligned frame gauge.

    Fourth-order centered differences on the aligned frames; the wrap
    monodromy extends the stencil across the seam.  Values are projected to
    exact skew-Hermitian.  Returns (A values (N, n, n), aligned frames); the
    frames are the loop's cached, read-only ``aligned``.
    """
    w, o_wrap = loop.aligned
    ext = np.concatenate([w[-2:] @ o_wrap.T, w, w[:2] @ o_wrap], axis=0)
    A = w @ _centred_derivative(ext.conj().transpose(0, 2, 1), len(loop))
    A = 0.5 * (A - A.conj().transpose(0, 2, 1))
    return A, w


def loop_boundary_trace(loop: FrameLoop) -> np.ndarray:
    """tr A(t) of ``loop_boundary_form`` from det B alone: -(i/2) d/dt arg det B.

    With w = u O, tr(O dO^T/dt) = 0, so no alignment enters: arg det B is
    summed from the loop's phase increments, continued across the seam by
    their total, and differentiated by the same stencil.  The frames are
    never aligned, but the loop's ``alignment_margins`` are read, so the
    frame-step and wrap guards raise here as they would for the full form.
    """
    loop.alignment_margins  # the guards run on this read
    dphi = loop.phase_increments()
    phi, total = np.concatenate([[0.0], np.cumsum(dphi[:-1])]), dphi.sum()
    ext = np.concatenate([phi[-2:] - total, phi, phi[:2] + total])
    return -0.5j * _centred_derivative(ext, len(loop))


def open_path_form(samples: np.ndarray):
    """Same derivative for an open frame path (one-sided stencils at ends)."""
    u = np.asarray(samples, dtype=complex)
    A = u @ _open_derivative(u.conj().transpose(0, 2, 1))
    return 0.5 * (A - A.conj().transpose(0, 2, 1))


def open_path_trace(samples: np.ndarray) -> np.ndarray:
    """tr of ``open_path_form`` from det(u)^2 alone, by the same stencils.

    arg det(u)^2 is unwrapped from its principal increments under the
    ``TOL.winding_guard`` step guard.  A NaN sample passes the guard and
    gives a NaN trace, which the collar's trace check rejects.
    """
    with np.errstate(invalid="ignore", divide="ignore"):
        z = matcore.det(np.asarray(samples, dtype=complex)) ** 2
        dphi = np.angle(z[1:] / z[:-1])
    worst = np.max(np.abs(dphi))
    if worst >= TOL.winding_guard:
        raise Undersampled(f"path phase step {worst:.4f} rad >= guard {TOL.winding_guard:.4f}")
    return -0.5j * _open_derivative(np.concatenate([[0.0], np.cumsum(dphi)]))


def _trailing(v: np.ndarray, A: np.ndarray) -> np.ndarray:
    """``v`` with one unit axis per trailing axis of the samples ``A``."""
    return v.reshape(v.shape + (1,) * (A.ndim - 1))


def collar_term(form, depth, t, span: float, periodic=True, cutoff="cubic",
                saturation=_SATURATION) -> np.ndarray:
    """rho(depth) A(t / span) / span: a boundary form carried inward by a cutoff.

    ``form`` samples the boundary 1-form over a parameter interval of length
    ``span``, read periodically (closed loop) or clamped (open path) and
    interpolated linearly; each sample may have any shape, such as (n, n)
    values or their traces (), and the same elementwise operations run on
    either.
    ``depth`` runs from 0 at the inner edge of the collar to 1 at the rim.
    The form is interpolated only where the cutoff is nonzero; every other
    point gets an exact zero.
    """
    N = form.shape[0]
    rho = cutoff_profile(depth, cutoff, saturation)
    on = rho > 0
    x = t[on] / span
    if periodic:  # fractional sample index x, mod N
        x = np.mod(x * N, N)
        i0 = np.floor(x).astype(int) % N
        i1, fr = (i0 + 1) % N, x - np.floor(x)
    else:
        x = np.clip(x * (N - 1), 0.0, N - 1.0)
        i0 = np.minimum(np.floor(x).astype(int), N - 2)
        i1, fr = i0 + 1, x - i0
    fr = _trailing(fr, form)
    out = np.zeros(rho.shape + form.shape[1:], dtype=complex)
    out[on] = _trailing(rho[on], form) * ((1.0 - fr) * form[i0] + fr * form[i1]) / span
    return out


def build_collar_connection(
    loop: FrameLoop,
    width: float = 0.3,
    cutoff: str = "cubic",
    saturation: float = _SATURATION,
) -> ConnectionSpec:
    """Collar extension of a boundary loop over the disc.

    A(r, theta) = rho((r - (1 - w))/w) A_boundary(theta) d(theta), zero for
    r <= 1 - w.  The resulting connection is flat away from the collar and
    its boundary transport preserves the loop's Lagrangian frames.
    """
    if not (0.0 < width < 1.0):
        raise InvalidParameter("collar width must lie in (0, 1)")

    def depth(r):
        return (r - (1.0 - width)) / width

    def term(A, r, t):
        return collar_term(A, depth(r), t, 2.0 * np.pi, cutoff=cutoff, saturation=saturation)

    return collar_spec(term, (loop_boundary_trace(loop),), lambda: (loop_boundary_form(loop)[0],),
                       loop.n, f"collar(w={width},{cutoff})", loop,
                       lambda r: cutoff_profile(depth(r), cutoff, saturation))


def build_arc_collar_connection(
    path: np.ndarray, t_span: float, width: float = 0.3
) -> ConnectionSpec:
    """Collar of an open frame path over an arc of angular span ``t_span``."""
    path = np.array(path, dtype=complex)  # a copy: the full form is built from it later

    def depth(r):
        return (r - (1.0 - width)) / width

    def term(A, r, t):
        return collar_term(A, depth(r), t, t_span, periodic=False)

    return collar_spec(term, (open_path_trace(path),), lambda: (open_path_form(path),),
                       path.shape[-1], f"arc_collar(w={width})",
                       rim_cutoff=lambda r: cutoff_profile(depth(r)))

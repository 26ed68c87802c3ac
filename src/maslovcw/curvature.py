"""Discrete curvature integration and the Chern-Weil Maslov index.

Edge transports are midpoint-rule path-ordered exponentials of a connection
form; each quad face contributes the principal argument of the determinant
of its plaquette holonomy.  The exact, correctly rounded sum of the face
angles divided by pi gives the raw index, which is rounded to a
caller-declared quantum.  Only the abelianized (trace) part of the
curvature enters, so per-edge determinant phases are accumulated exactly
from the generators and faces only wrap them once through the principal
branch, guarded at pi/2.  A connection has no dr part, so each face angle
is the difference of its two angular edges' phases.  A face row whose
bounding rings carry a zero phase has angle exactly +0, so only the rows
that can be nonzero (a collar band, a cone disc) are wrapped, guarded and
summed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Optional

import numpy as np

from . import _kernels, matcore
from .connections import ConnectionSpec, check_skew
from .errors import InvalidParameter, NonUnitaryConnection, Undersampled, Unrefined
from .loops import BundlePairSpec, FrameLoop, winding
from .mesh import Mesh2D
from .tolerances import TOL


@dataclass(eq=False)
class DiscreteConnection:
    """A connection integrated along every directed mesh edge.

    ``ring_logdet`` (num_angular,) is log det of each angular edge
    transport (ring i, column j at i * n_t + j), summed from the trace of
    the connection values; the index reads nothing else.  A spec has no dr
    part, so a radial edge's log det is exactly 0 and is not stored.  The
    generators of any range of angular edges come from one evaluator,
    ``_generators``; ``transport_defects`` evaluates only the rim's, so no
    interior value is built.  Transports are for increasing angle; they
    are chained on every read and not kept.
    """

    mesh: Mesh2D
    spec: ConnectionSpec
    substeps: int
    ring_logdet: np.ndarray     # (num_angular,) complex

    @property
    def n(self) -> int:
        return self.spec.n

    @property
    def unitary(self) -> bool:
        return self.spec.unitary


def edge_transports(
    spec: ConnectionSpec,
    mesh: Mesh2D,
    substeps: int = 1,
    allow_non_unitary: bool = False,
) -> DiscreteConnection:
    """Integrate the connection along every edge by the midpoint rule.

    Each substep contributes exp(-A(midpoint)(step)); transports are chained
    only when read.  A non-unitary spec is rejected unless explicitly
    allowed (the non-unitary control, rank 1 only).

    ``ring_logdet`` is minus the trace times the step, summed over the
    substeps, a block of ``matcore.BLOCK`` matrices (edges times substeps)
    at a time; a unitary spec's trace is checked to be imaginary over every
    block, and a NaN fails the check.  Only ``transport_defects`` evaluates
    the full values, on the rim.  Edges outside the rows where a block's
    trace is nonzero get exact +0, which is also what the sum gives on an
    all-zero row, so the bytes do not depend on the block size.

    A spec with a ``rim_cutoff`` raises Unrefined where that cutoff at a
    quadrature point of a rim chord differs from its value on the rim
    itself, r = 1 (1 for a collar), or is NaN.  A chord cuts inside the
    unit circle, to radius cos(pi/n_t) at its midpoint, so on a coarse
    angular mesh the rim points fall short of the collar's plateau and the
    face sum misses part of the boundary phase, with no face angle near its
    guard.
    """
    if not spec.unitary:
        if not allow_non_unitary:
            raise NonUnitaryConnection(
                f"spec {spec.tag!r} is tagged non-unitary; only the norm-drift "
                "pipeline accepts it"
            )
        if spec.n != 1:
            raise NonUnitaryConnection("non-unitary transports implemented for rank 1 only")
    if spec.rim_cutoff is not None:
        _check_rim(spec, mesh, substeps)
    r_mid, t_mid, dt = mesh.edge_quadrature(substeps)
    ring_logdet = np.zeros(mesh.num_angular, dtype=complex)
    worst, step = 0.0, max(1, matcore.BLOCK // substeps)  # edges per block
    for a in range(0, len(r_mid), step):
        b = min(a + step, len(r_mid))
        tau = spec.trace(r_mid[a:b].ravel(), t_mid[a:b].ravel())
        tau = np.asarray(tau, dtype=complex).reshape(b - a, substeps)
        band = _live_rows(tau)  # skips a collar's flat interior
        if spec.unitary:  # np.maximum keeps a NaN defect of any block
            worst = np.maximum(worst, matcore.diagonal_skew_defect(tau[band]))
        g = tau[band] * dt[a:b][band]
        np.negative(g.view(float), out=g.view(float))  # one float pass, same bits
        g.sum(axis=1, out=ring_logdet[a:b][band])  # 0 + makes a -0 sum +0
    if spec.unitary:
        check_skew(float(worst), "connection trace")
    return DiscreteConnection(mesh, spec, substeps, ring_logdet)


def _check_rim(spec: ConnectionSpec, mesh: Mesh2D, substeps: int) -> None:
    """Raise Unrefined unless ``spec.rim_cutoff`` is the same at every rim point as on the rim."""
    r_mid = mesh.edge_quadrature(substeps)[0][-mesh.n_t :]  # the outer ring's chords
    # the chords' points, then the rim r = 1 itself; a NaN compares unequal
    rho = spec.rim_cutoff(np.append(r_mid, 1.0))
    bad = rho[:-1] != rho[-1]
    if bad.any():
        raise Unrefined(
            f"collar cutoff {rho[:-1][bad][0]:.3g} at a rim chord point against "
            f"{rho[-1]:.3g} on the rim r = 1 (mesh {mesh.n_r}x{mesh.n_t}): the "
            "chords cut inside the collar's plateau; refine the angular mesh or widen "
            "the collar"
        )


def _generators(spec: ConnectionSpec, mesh: Mesh2D, substeps: int, lo: int, hi: int) -> np.ndarray:
    """(hi - lo, s, n, n) generators -A_theta dt of angular edges lo..hi-1, one ``coeffs`` call.

    Angular edges are numbered from 0, as the rows of ``edge_quadrature``.
    A unitary spec's values are checked skew-Hermitian on every evaluated
    row.  Each value is elementwise in the edge, so the bytes of an edge's
    generator do not depend on the range it is evaluated in.
    """
    r_mid, t_mid, dt = (a[lo:hi] for a in mesh.edge_quadrature(substeps))
    At = np.asarray(spec.coeffs(r_mid.ravel(), t_mid.ravel()), dtype=complex)
    At = At.reshape(r_mid.shape + (spec.n, spec.n))
    if spec.unitary:
        check_skew(float(matcore.skew_defect(At)), "connection values")
    g = np.multiply(At, dt[..., None, None])
    np.negative(g, out=g)
    return g


def _live_rows(tau: np.ndarray) -> slice:
    """Smallest row range of the traces ``tau`` (E', s) that holds every nonzero entry.

    A NaN or inf counts as nonzero, a -0 as zero.  One flat ``!= 0`` mask
    over the real and imaginary parts with a first and a last ``argmax``,
    so no row-wise reduction runs.
    """
    nz = tau.reshape(-1).view(float) != 0
    first = int(nz.argmax()) if nz.size else 0
    if not nz.size or not nz[first]:
        return slice(0, 0)
    per_row = nz.size // len(tau)
    return slice(first // per_row, (nz.size - 1 - int(nz[::-1].argmax())) // per_row + 1)


def _face_terms(mesh: Mesh2D, x: np.ndarray, rows=slice(None)):
    """Ring terms (q, u) of the faces in ``rows``, face value q - u.

    Face (i, j) has boundary +radial(i, j), +angular(i+1, j), -radial(i, j+1),
    -angular(i, j); a reversed mesh walks it backwards with flipped signs.
    The radial terms are +0, left out: q is the outer ring and u the inner
    (swapped on a reversed mesh), views of the per-angular-edge values
    ``x``, one row of n_t per face row.  ((+0 + q) - +0) - u differs from
    q - u only by +0 for -0, which ``_principal`` maps to +0 alike.
    """
    ring = x.reshape(mesh.n_r + 1, mesh.n_t)
    inner, outer = ring[:-1][rows], ring[1:][rows]
    return (outer, inner) if mesh.orientation > 0 else (inner, outer)


def _principal(t: np.ndarray) -> tuple[np.ndarray, float]:
    """(t + pi) % (2 pi) - pi, bitwise, and its largest |value| (NaN when one is NaN).

    Where t + pi lies in [0, 2 pi) the remainder returns it unchanged, so
    it runs, masked to the entries outside that range, only when the min or
    max of t + pi leaves it (a NaN fails the check).  The largest |value|
    is max(max - pi, pi - min) of the wrapped t + pi, bitwise, since
    rounding is monotone and odd.
    """
    a = t + np.pi
    lo, hi = a.min(initial=np.inf), a.max(initial=-np.inf)
    if not (lo >= 0.0 and hi < 2.0 * np.pi):
        np.remainder(a, 2.0 * np.pi, out=a, where=~((a >= 0.0) & (a < 2.0 * np.pi)))
        lo, hi = a.min(initial=np.inf), a.max(initial=-np.inf)
    a -= np.pi
    return a, float(np.maximum(hi - np.pi, np.pi - lo))


def _face_angles(D: DiscreteConnection) -> tuple[np.ndarray, slice, float]:
    """Principal angles of every face, the faces that can be nonzero, and their largest |angle|.

    A face angle wraps its two ring terms (``_face_terms``) of
    ``ring_logdet.imag``, one log det per angular edge.  A face row can be
    nonzero unless both its bounding rings hold +-0; a NaN or inf counts as
    nonzero, as in ``_live_rows``.  The faces are taken a block of whole
    face rows (about ``matcore.BLOCK`` faces) at a time, and in each block
    the rows from its first such row to its last are wrapped into
    ``alpha``.  A row in between holds +-0 - +-0, which wraps to exactly
    +0, as every face outside them is left, so the bytes do not depend on
    the block size.  Returns ``alpha`` (num_faces,) in face order; the
    slice of it from the first row that can be nonzero to the last (empty
    when there is none); and the largest |angle|, NaN when an angle is NaN.
    """
    mesh = D.mesh
    x = D.ring_logdet.imag
    ring = x.reshape(mesh.n_r + 1, mesh.n_t)
    alpha = np.zeros((mesh.n_r, mesh.n_t))
    rows = max(1, matcore.BLOCK // mesh.n_t)
    live, worst = [], 0.0
    for a in range(0, mesh.n_r, rows):
        b = min(a + rows, mesh.n_r)
        ring_nz = (ring[a : b + 1] != 0).any(axis=1)
        nz = np.flatnonzero(ring_nz[:-1] | ring_nz[1:])
        if not nz.size:
            continue
        lo, hi = a + int(nz[0]), a + int(nz[-1]) + 1
        q, u = _face_terms(mesh, x, slice(lo, hi))
        alpha[lo:hi], top = _principal(q - u)
        worst = np.maximum(worst, top)  # keeps a NaN
        live += [lo, hi]
    span = slice(live[0] * mesh.n_t, live[-1] * mesh.n_t) if live else slice(0, 0)
    return alpha.ravel(), span, float(worst)


# terms per np.sum in ``_exact_sum``: each level value is at most 2^30 units,
# so every partial sum of fewer than 2^22 of them is exact in 53 bits
_SUM_CHUNK = 1 << 22


def _exact_sum(x: np.ndarray) -> float:
    """Correctly rounded sum of the float array ``x``, bitwise ``math.fsum``.

    With |x| < 2^e, each level k = 1, 2, ... rounds the remainder to a
    multiple of 2^(e - 30k) by ``(x + C) - C`` with C = 1.5 * 2^(52 + e - 30k),
    which is exact, as is the new remainder.  A level's values are at most
    2^30 such units, so ``np.sum`` of a chunk of them is exact in any order.
    The chunks, of at most ``matcore.BLOCK`` values, are taken through the
    levels one at a time from the same e, so the temporaries are one
    chunk's.  Zero remainders are dropped after each level, and
    ``math.fsum`` rounds the few level sums once.  Below the subnormal grid
    the remainder is summed as it is.  Non-finite values, and values from
    2^960 up, where a level constant or sum could overflow, go to
    ``math.fsum`` itself.
    """
    x = np.asarray(x, dtype=float).ravel()
    # max and -min, where max |x| would copy x; np.maximum keeps a NaN
    top = float(np.maximum(x.max(), -x.min())) if x.size else 0.0
    if not top < 2.0 ** 960:
        return math.fsum(x.tolist())
    first_unit = math.frexp(top)[1]
    step = min(matcore.BLOCK, _SUM_CHUNK)
    sums = []
    for start in range(0, x.size, step):
        rest, unit = x[start : start + step], first_unit
        while rest.size:
            unit -= 30
            if unit < -1074:
                sums.append(float(np.sum(rest)))
                break
            C = math.ldexp(1.5, 52 + unit)
            hi = rest + C
            hi -= C
            sums.append(float(np.sum(hi)))
            np.subtract(rest, hi, out=hi)  # the new remainder, in the level's buffer
            rest = hi[hi != 0]
    return math.fsum(sums)


def complex_face_logsum(D: DiscreteConnection) -> np.ndarray:
    """Per-face log det holonomy with principal imaginary part (any rank-1 spec)."""
    q, u = _face_terms(D.mesh, D.ring_logdet)
    # the face sum (p + q) - (r + u) with p = r = +0: the real part is
    # summed unwrapped, so it keeps the signed zeros that sum gives
    z = ((0.0 + q) - (0.0 + u)).ravel()
    return z.real + 1j * _principal(z.imag)[0]


@dataclass(eq=False)
class CurvatureReport:
    """Outcome of one curvature integration.

    The two diagnostics that need transports are computed together on the
    first read of either, by ``transport_defects``, from one chain of the
    outer ring's edges: ``unitarity_defect``, the drift of those
    transports, and ``orthogonality_defect``, the rim's frame defect against
    ``probe`` (None when there is no probe loop or no closed rim).
    """

    raw: float
    rounded: Fraction
    residual: float
    quantum: Fraction
    max_face_angle: float
    face_angles: np.ndarray
    connection: DiscreteConnection = field(repr=False)
    probe: Optional[FrameLoop] = field(default=None, repr=False)

    @cached_property
    def _transport_defects(self) -> tuple:
        return transport_defects(self.connection, self.probe)

    @property
    def unitarity_defect(self) -> float:
        """Transport drift over the outer ring's edges."""
        return self._transport_defects[0]

    @property
    def orthogonality_defect(self) -> Optional[float]:
        """Frame defect of the rim transport, None without a probe."""
        return self._transport_defects[1]

    def to_json_dict(self) -> dict:
        mesh = self.connection.mesh
        return {
            "raw": self.raw,
            "rounded": float(self.rounded),
            "rounded_exact": {"num": self.rounded.numerator, "den": self.rounded.denominator},
            "residual": self.residual,
            "quantum": {"num": self.quantum.numerator, "den": self.quantum.denominator},
            "max_face_angle": self.max_face_angle,
            "unitarity_defect": self.unitarity_defect,
            "orthogonality_defect": self.orthogonality_defect,
            "mesh": {"domain": mesh.domain, "Nr": mesh.n_r, "Nt": mesh.n_t},
        }

    def faces_csv(self, path: str) -> None:
        """Per-face angle sidecar with columns face_i, face_j, alpha_f.

        The lines are formatted from Python floats, a block of about
        ``matcore.BLOCK`` faces (whole face rows) per write.
        """
        n_t = self.connection.mesh.n_t
        angles = self.face_angles.reshape(-1, n_t)
        rows = max(1, matcore.BLOCK // n_t)
        cols = [f",{j}," for j in range(n_t)]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("face_i,face_j,alpha_f\n")
            for a in range(0, len(angles), rows):
                fh.write("".join(f"{i}{c}{x!r}\n" for i, row in
                                 enumerate(angles[a : a + rows].tolist(), a)
                                 for c, x in zip(cols, row)))


def chern_weil_index(
    D: DiscreteConnection,
    quantum: Fraction = Fraction(1),
    loop: Optional[FrameLoop] = None,
) -> CurvatureReport:
    """Curvature integral (i/pi) integral tr F as a rounded index.

    raw = (1/pi) sum of face angles, the exact sum correctly rounded (so it
    does not depend on the summation order); rounded to the nearest
    multiple of ``quantum`` (checked by ``check_quantum``).  Only the face
    rows that can be nonzero are wrapped and guarded, a block at a time
    (``_face_angles``), and summed; every other face is exactly +0.  Raises
    Unrefined when any face angle reaches the pi/2 branch guard, or when
    raw lies farther than ``TOL.rounding_residual`` quanta from its
    rounding.  The probe loop (``loop``, else the spec's boundary loop) is
    checked here against the rim, so a sample count not divisible by the
    angular resolution raises Undersampled at once; the report computes its
    frame defect only when it is read.
    """
    if not D.unitary:
        raise NonUnitaryConnection("chern_weil_index requires a unitary connection")
    quantum = check_quantum(quantum)
    alpha, live, max_face = _face_angles(D)
    if not max_face < TOL.face_angle_guard:
        raise Unrefined(
            f"face angle {max_face:.3f} rad >= guard {TOL.face_angle_guard:.3f}; "
            "refine the mesh"
        )
    raw = _exact_sum(alpha[live]) / math.pi
    rounded = Fraction(round(raw / quantum)) * quantum
    residual = abs(raw - float(rounded))
    if not residual <= TOL.rounding_residual * float(quantum):
        raise Unrefined(
            f"raw index {raw:.6g} lies {residual / float(quantum):.3g} quanta of {quantum} "
            f"from {rounded}, past the rounding bound {TOL.rounding_residual:g}; refine the mesh"
        )
    probe = loop if loop is not None else D.spec.boundary_loop
    if probe is not None and D.mesh.wrap:
        _check_probe(D.mesh, probe)
    else:
        probe = None
    return CurvatureReport(
        raw=raw,
        rounded=rounded,
        residual=residual,
        quantum=quantum,
        max_face_angle=max_face,
        face_angles=alpha,
        connection=D,
        probe=probe,
    )


def check_quantum(quantum) -> Fraction:
    """``quantum`` as a Fraction; InvalidParameter unless its float lies in (0, inf).

    The index divides its float raw value by the quantum, so a quantum whose
    float is 0 or overflows is rejected with the non-positive ones.
    """
    q = Fraction(quantum)
    try:
        if 0.0 < float(q) < math.inf:
            return q
    except OverflowError:
        pass
    raise InvalidParameter("quantum must be positive, with a float value in (0, inf)")


# sample cap of ``index_refining``; each doubling also doubles the angular mesh
_MAX_REFINED_SAMPLES = 2**12


def index_refining(index, loop: FrameLoop):
    """``index(loop)``, retried on ``loop.refined()`` while it raises Unrefined.

    For integrations with one angular cell per loop sample, where refining
    the loop refines the rim chords and the faces.  The last Unrefined is
    raised once a doubling would pass 2^12 samples.
    """
    while True:
        try:
            return index(loop)
        except Unrefined:
            if 2 * len(loop) > _MAX_REFINED_SAMPLES:
                raise
            loop = loop.refined()


def _check_probe(mesh: Mesh2D, loop: FrameLoop) -> None:
    """Raise Undersampled unless the rim is closed and the loop samples align with it."""
    if not mesh.wrap:
        raise Undersampled("boundary transport defect needs a closed rim")
    N = len(loop)
    if N % mesh.n_t:
        raise Undersampled(
            f"loop samples ({N}) must be divisible by the angular resolution ({mesh.n_t})"
        )


def orthogonality_defect(D: DiscreteConnection, loop: FrameLoop) -> float:
    """How far boundary transport strays from preserving the Lagrangian frames.

    Transports the frame at the base boundary vertex around the outer rim and
    measures, at every vertex, the distance of (transported)^* (loop frame)
    from the real orthogonal group.  Requires the loop samples to align with
    the rim vertices (sample count divisible by the angular resolution).
    The frame defect of ``transport_defects``.
    """
    return transport_defects(D, loop)[1]


def transport_defects(
    D: DiscreteConnection, loop: Optional[FrameLoop] = None
) -> tuple[float, Optional[float]]:
    """Drift of the rim transports, and their frame defect against ``loop`` (None without).

    Only the outer ring's n_t edges, the last n_t angular edges, are evaluated
    (one ``_generators`` call, which skew-checks them) and chained (one
    call).  The index reads only the trace, which is checked on every
    angular edge, and ``connections.collar_spec`` makes the builders'
    values exactly skew, so no interior value is evaluated.
    """
    mesh = D.mesh
    if loop is not None:
        _check_probe(mesh, loop)
    rim = mesh.num_angular - mesh.n_t  # the first rim edge
    T = _kernels.transport_chain(_generators(D.spec, mesh, D.substeps, rim, mesh.num_angular))
    return matcore.unitary_defect(T), None if loop is None else _frame_defect(T, loop)


def _frame_defect(T: np.ndarray, loop: FrameLoop) -> float:
    """Frame defect of the rim transports ``T`` (increasing angle) against ``loop``.

    At each rim vertex, the distance ||M - O||_F of M = (transported)^*
    (loop frame) from the nearest real orthogonal O, the polar factor of
    Re M: d^2 = sum_j (1 - sigma_j)^2 + ||Im M||_F^2 over the singular
    values sigma_j of Re M, a sum of squares that does not cancel.  NaN
    when an entry is not finite, so that a ``not defect <= tol`` guard trips.
    """
    N, n, n_t = len(loop), loop.n, len(T)
    P = np.empty_like(T)
    acc = np.eye(n, dtype=complex)
    for j, Tj in enumerate(T):
        acc = Tj @ acc
        P[j] = acc
    targets = loop.samples[(np.arange(1, n_t + 1) * (N // n_t)) % N]
    M = np.swapaxes((P @ loop.samples[0]).conj(), -1, -2) @ targets
    if not np.isfinite(M).all():  # the SVD would not converge
        return math.nan
    sv = np.linalg.svd(np.real(M), compute_uv=False)
    d2 = ((1.0 - sv) ** 2).sum(axis=-1) + (np.imag(M) ** 2).sum(axis=(-2, -1))
    return float(np.sqrt(d2).max(initial=0.0))


def double_degree(pair: BundlePairSpec) -> int:
    """Degree of the doubled bundle from overlap-map windings.

    Per boundary component the doubling overlap map is B(t) = u(t) u(t)^T;
    the degree is the sum of the windings of det B, computed directly from
    the assembled symmetric matrices.
    """
    total = 0
    for L in pair.loops:
        B = L.samples @ L.samples.transpose(0, 2, 1)
        total += winding(matcore.det(B))
    return total


def complex_curvature_value(D: DiscreteConnection) -> complex:
    """(i/pi) integral tr F without assuming unitarity (rank 1).

    The real part carries the angle content of the plaquette holonomies; a
    nonzero imaginary part means |det| of the transports drifts from 1, i.e.
    the connection fails the metric condition.
    """
    z = complex_face_logsum(D)
    re = _exact_sum(z.imag) / math.pi
    im = -_exact_sum(z.real) / math.pi
    return complex(re, im)

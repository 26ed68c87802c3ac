"""Discrete curvature integration and the Chern-Weil Maslov index.

Edge transports are midpoint-rule path-ordered exponentials of a connection
form; each quad face contributes the principal argument of the determinant
of its plaquette holonomy.  Summing face angles over the mesh in fixed
row-major order and dividing by pi gives the raw index, which is rounded to
a caller-declared quantum.  Only the abelianized (trace) part of the
curvature enters, so per-edge determinant phases are accumulated exactly
from the generators and faces only wrap them once through the principal
branch, guarded at pi/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from fractions import Fraction
from typing import Optional

import numpy as np

from . import _kernels, matcore
from .connections import ConnectionSpec
from .errors import MaslovCWError, NonUnitaryConnection, Undersampled, Unrefined
from .loops import BundlePairSpec, FrameLoop, winding
from .mesh import Mesh2D
from .tolerances import TOL


@dataclass(eq=False)
class DiscreteConnection:
    """Parallel transports of a connection along every directed mesh edge.

    Holds the evaluated connection values ``A_theta`` and ``A_r`` (None when
    the spec returned none), each (E', s, n, n) over the evaluated edges, and
    ``edge_logdet``, log det of each transport accumulated from the
    generator diagonals, so the per-edge determinant phase is unwrapped
    exactly; the index needs nothing else.  A spec without a dr part is
    evaluated on the angular edges only (E' = num_angular), and the radial
    rows of ``edge_logdet`` and ``G`` are exact zeros.  ``live`` is the
    smallest row range of the values that holds every nonzero entry; rows
    outside it are exact zeros in the values, so they are skipped.  The
    generator stack ``G`` (E, s, n, n) is built from the values on first
    read.  Transports are stored for the canonical edge direction (outward
    radial, increasing angle); the reverse transport is the conjugate
    transpose.  They are built on demand: ``transports_of`` chains only the
    edges asked for, and ``transports`` chains every edge once and caches
    the stack.  ``max_unitary_defect`` chains only the edges with a nonzero
    generator: an all-zero generator chains to the exact identity, whose
    defect is 0.  When every rim edge is among them, it keeps the rim's
    transports, so a later frame defect chains no rim edge.  ``conjugate``
    marks the complex conjugate connection, whose transports are the
    conjugates of the chained ones.
    """

    mesh: Mesh2D
    spec: ConnectionSpec
    substeps: int
    A_theta: np.ndarray         # (E', s, n, n) evaluated values
    A_r: Optional[np.ndarray]   # same shape, or None
    live: slice                 # rows of the values holding every nonzero entry
    edge_logdet: np.ndarray     # (E,) complex
    unitary: bool
    conjugate: bool = False

    @property
    def n(self) -> int:
        return self.spec.n

    @cached_property
    def G(self) -> np.ndarray:
        """(E, s, n, n) generators -(A_theta dt + A_r dr) of every substep.

        Only the rows in ``live`` are multiplied; the others start as +0, so
        the closing negation writes the -0 the full product gives there.
        """
        skip = 0 if self.spec.radial else self.mesh.num_radial
        _, _, dr, dt = (a[skip:][self.live] for a in self.mesh.edge_quadrature(self.substeps))
        G = np.zeros((self.mesh.num_edges,) + self.A_theta.shape[1:], dtype=complex)
        g = G[skip:]
        g_live = g[self.live]
        np.multiply(self.A_theta[self.live], dt[:, :, None, None], out=g_live)
        if self.A_r is not None:
            g_live += self.A_r[self.live] * dr[:, :, None, None]
        np.negative(g, out=g)
        return G

    def _chain(self, edge_ids) -> np.ndarray:
        T = _kernels.transport_chain(self.G[edge_ids])
        return T.conj() if self.conjugate else T

    def transports_of(self, edge_ids) -> np.ndarray:
        """Transports of the given edge ids; reuses what is already chained."""
        full = self.__dict__.get("transports")
        if full is not None:
            return full[edge_ids]
        rim = self.__dict__.get("_rim_transports")
        if rim is not None:
            pos = _positions(rim[0], edge_ids)
            if pos is not None:
                return rim[1][pos]
        return self._chain(edge_ids)

    @cached_property
    def transports(self) -> np.ndarray:
        """(E, n, n) transports of every edge, chained on first access."""
        return self._chain(slice(None))

    @cached_property
    def max_unitary_defect(self) -> float:
        """Largest Frobenius distance of any edge transport from the unitary group."""
        if not self.unitary:
            return float("nan")
        # a NaN entry is truthy, so a NaN generator is chained and reported
        live = np.flatnonzero(self.G.any(axis=(1, 2, 3)))
        if not live.size:
            return 0.0
        T = self.transports_of(live)
        rim = self.mesh.boundary_angular_ids()
        pos = _positions(live, rim)
        if pos is not None:
            # kept for transports_of, so a later frame defect chains no rim edge
            self._rim_transports = (rim, T[pos])
        return matcore.unitary_defect(T)

    def conjugated(self) -> "DiscreteConnection":
        return replace(
            self,
            edge_logdet=self.edge_logdet.conj(),
            conjugate=not self.conjugate,
        )

    def on_reversed_mesh(self) -> "DiscreteConnection":
        return replace(self, mesh=self.mesh.reversed())


def edge_transports(
    spec: ConnectionSpec,
    mesh: Mesh2D,
    substeps: int = 1,
    allow_non_unitary: bool = False,
) -> DiscreteConnection:
    """Integrate the connection along every edge by the midpoint rule.

    Each substep contributes exp(-A(midpoint)(step)); products are
    re-unitarized when the transports are built.  A spec without a dr part
    (``spec.radial`` false) is evaluated only at the angular edges: a radial
    edge has dtheta = 0, so its generators are exact zeros and its transport
    the identity, and a returned A_r is rejected.  An A_r of None counts as
    zero.  Unitary specs are checked for skew-Hermitian values at every
    point where they are evaluated, of every coefficient they return; a NaN
    fails the check.  A non-unitary spec is rejected unless explicitly
    allowed (the norm-drift demonstration does that, rank 1 only).
    ``edge_logdet`` reads only the diagonals, in the operation order of
    ``trace(G.sum(axis=1))``; the generator stack is left to the first read
    of ``G``.  The check and the diagonals run on views of the live row
    range only: an all-zero row has skew defect 0 and log det +0.
    """
    skip = 0 if spec.radial else mesh.num_radial
    r_mid, t_mid, dr, dt = (a[skip:] for a in mesh.edge_quadrature(substeps))
    E, s = r_mid.shape
    n = spec.n
    Ar, At = spec.coeffs(r_mid.ravel(), t_mid.ravel())
    if Ar is not None and not spec.radial:
        raise MaslovCWError(f"spec {spec.tag!r} declares no dr part but returned A_r")
    At = np.asarray(At, dtype=complex).reshape(E, s, n, n)
    if Ar is not None:
        Ar = np.asarray(Ar, dtype=complex).reshape(E, s, n, n)
    values = [At] if Ar is None else [Ar, At]
    live = _live_rows(values)

    if spec.unitary:
        # np.max, not max(): a NaN defect must propagate to the guard
        skew = float(np.max([_skew_defect(A[live]) for A in values]))
        if not skew <= TOL.skew:
            raise NonUnitaryConnection(
                f"connection values have skew-Hermitian defect {skew:.3g}"
            )
    elif not allow_non_unitary:
        raise NonUnitaryConnection(
            f"spec {spec.tag!r} is tagged non-unitary; only the norm-drift "
            "pipeline accepts it"
        )
    elif n != 1:
        raise NonUnitaryConnection("non-unitary transports implemented for rank 1 only")

    diag = np.diagonal(At[live], axis1=-2, axis2=-1) * dt[live, :, None]
    if Ar is not None:
        diag += np.diagonal(Ar[live], axis1=-2, axis2=-1) * dr[live, :, None]
    np.negative(diag, out=diag)
    # radial rows of a dtheta form and rows outside ``live`` stay exact +0,
    # which is also what the sums give on an all-zero row
    edge_logdet = np.zeros(mesh.num_edges, dtype=complex)
    edge_logdet[skip:][live] = diag.sum(axis=1).sum(axis=-1)
    return DiscreteConnection(
        mesh=mesh,
        spec=spec,
        substeps=substeps,
        A_theta=At,
        A_r=Ar,
        live=live,
        edge_logdet=edge_logdet,
        unitary=spec.unitary,
    )


def _live_rows(values) -> slice:
    """Smallest row range of the value stacks that holds every nonzero entry.

    A NaN or inf counts as nonzero, a -0 as zero.  One flat ``!= 0`` mask
    over the real and imaginary parts with a first and a last ``argmax``,
    so no row-wise reduction runs.
    """
    lo, hi = len(values[0]), 0
    for A in values:
        if not A.size:
            continue
        nz = A.reshape(-1).view(float) != 0
        first = int(nz.argmax())
        if nz[first]:
            per_row = nz.size // len(A)
            lo = min(lo, first // per_row)
            hi = max(hi, (nz.size - 1 - int(nz[::-1].argmax())) // per_row + 1)
    return slice(lo, max(lo, hi))


def _positions(ids: np.ndarray, wanted) -> Optional[np.ndarray]:
    """Positions of ``wanted`` in the sorted ``ids``; None unless all are there."""
    pos = np.searchsorted(ids, wanted)
    if np.all(pos < ids.size) and np.array_equal(ids[pos], wanted):
        return pos
    return None


def _skew_defect(A: np.ndarray) -> float:
    """Largest |A + A^*| entry of a (rows, s, n, n) stack, 0 when it is empty."""
    return float(np.max(np.abs(A + A.conj().transpose(0, 1, 3, 2)))) if A.size else 0.0


def face_holonomy(D: DiscreteConnection, face_index: int) -> np.ndarray:
    """Ordered product of the four edge transports around one face boundary.

    Only the face's own four edges are chained.
    """
    ids, signs = D.mesh.face_edges()
    H = np.eye(D.n, dtype=complex)
    for T, sg in zip(D.transports_of(ids[face_index]), signs[face_index]):
        H = (T if sg > 0 else T.conj().T) @ H
    return H


def _face_terms(mesh: Mesh2D, x: np.ndarray):
    """Boundary terms (p, q, r, u) of every face, face value p + q - r - u.

    Face (i, j) has boundary +radial(i, j), +angular(i+1, j), -radial(i, j+1),
    -angular(i, j); a reversed mesh walks it backwards with flipped signs.
    Each term is an (n_r, n_t) slice of the per-edge values ``x`` on the
    structured grid, in row-major face order; the column after the last
    wraps to column 0 on a closed rim.
    """
    rad = x[: mesh.num_radial].reshape(mesh.n_r, mesh.n_tv)
    ang = x[mesh.num_radial :].reshape(mesh.n_r + 1, mesh.n_t)
    if mesh.wrap:
        rad = np.concatenate([rad, rad[:, :1]], axis=1)
    left, right = rad[:, :-1], rad[:, 1:]
    inner, outer = ang[:-1], ang[1:]
    if mesh.orientation > 0:
        return left, outer, right, inner
    return inner, right, outer, left


def face_angle_array(D: DiscreteConnection) -> np.ndarray:
    """Arg det of every plaquette holonomy, principal branch, face order."""
    p, q, r, u = _face_terms(D.mesh, np.imag(D.edge_logdet))
    alpha = (((p + q) - r) - u).ravel()
    return (alpha + np.pi) % (2.0 * np.pi) - np.pi


def complex_face_logsum(D: DiscreteConnection) -> np.ndarray:
    """Per-face log det holonomy with principal imaginary part (any rank-1 spec)."""
    p, q, r, u = _face_terms(D.mesh, D.edge_logdet)
    # pairwise here, left to right in face_angle_array: both orders are
    # fixed, and the reported values depend on them bitwise
    z = ((p + q) - (r + u)).ravel()
    im = (z.imag + np.pi) % (2.0 * np.pi) - np.pi
    return z.real + 1j * im


@dataclass(eq=False)
class CurvatureReport:
    """Outcome of one curvature integration.

    The diagnostics that need transports are computed on first read:
    ``orthogonality_defect`` chains the rim edges against ``probe`` (None
    when there is no probe loop or no closed rim), and ``unitarity_defect``
    chains every edge.
    """

    raw: float
    rounded: Fraction
    residual: float
    quantum: Fraction
    max_face_angle: float
    mesh_domain: str
    n_r: int
    n_t: int
    face_angles: np.ndarray
    connection: DiscreteConnection = field(repr=False)
    probe: Optional[FrameLoop] = field(default=None, repr=False)

    @property
    def unitarity_defect(self) -> float:
        """Transport drift over every edge; builds the transports on first read."""
        return self.connection.max_unitary_defect

    @cached_property
    def orthogonality_defect(self) -> Optional[float]:
        """Frame defect of the rim transport; chains the rim edges on first read."""
        if self.probe is None:
            return None
        return orthogonality_defect(self.connection, self.probe)

    def to_json_dict(self) -> dict:
        return {
            "raw": self.raw,
            "rounded": float(self.rounded),
            "rounded_exact": {"num": self.rounded.numerator, "den": self.rounded.denominator},
            "residual": self.residual,
            "quantum": {"num": self.quantum.numerator, "den": self.quantum.denominator},
            "max_face_angle": self.max_face_angle,
            "unitarity_defect": self.unitarity_defect,
            "orthogonality_defect": self.orthogonality_defect,
            "mesh": {"domain": self.mesh_domain, "Nr": self.n_r, "Nt": self.n_t},
        }

    def faces_csv(self, path: str) -> None:
        """Per-face angle sidecar with columns face_i, face_j, alpha_f."""
        n_t = self.n_t
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("face_i,face_j,alpha_f\n")
            for idx, a in enumerate(self.face_angles):
                fh.write(f"{idx // n_t},{idx % n_t},{float(a)!r}\n")


def chern_weil_index(
    D: DiscreteConnection,
    quantum: Fraction = Fraction(1),
    loop: Optional[FrameLoop] = None,
) -> CurvatureReport:
    """Curvature integral (i/pi) integral tr F as a rounded index.

    raw = (1/pi) sum of face angles (fixed row-major order, exact
    accumulation); rounded to the nearest multiple of ``quantum``.  Raises
    Unrefined when any face angle reaches the pi/2 branch guard.  The probe
    loop (``loop``, else the spec's boundary loop) is checked here against
    the rim, so a sample count not divisible by the angular resolution
    raises Undersampled at once; the report computes its frame defect only
    when it is read.
    """
    if not D.unitary:
        raise NonUnitaryConnection("chern_weil_index requires a unitary connection")
    quantum = Fraction(quantum)
    alpha = face_angle_array(D)
    max_face = float(np.max(np.abs(alpha))) if alpha.size else 0.0
    if not max_face < TOL.face_angle_guard:
        raise Unrefined(
            f"face angle {max_face:.3f} rad >= guard {TOL.face_angle_guard:.3f}; "
            "refine the mesh"
        )
    raw = math.fsum(alpha.tolist()) / math.pi
    rounded = Fraction(round(raw / quantum)) * quantum
    residual = abs(raw - float(rounded))
    probe = loop if loop is not None else D.spec.boundary_loop
    if probe is not None and D.mesh.wrap:
        _rim_stride(D.mesh, probe)
    else:
        probe = None
    return CurvatureReport(
        raw=raw,
        rounded=rounded,
        residual=residual,
        quantum=quantum,
        max_face_angle=max_face,
        mesh_domain=D.mesh.domain,
        n_r=D.mesh.n_r,
        n_t=D.mesh.n_t,
        face_angles=alpha,
        connection=D,
        probe=probe,
    )


def _rim_stride(mesh: Mesh2D, loop: FrameLoop) -> int:
    """Loop samples per rim edge; the rim must be closed and the samples align."""
    if not mesh.wrap:
        raise Undersampled("boundary transport defect needs a closed rim")
    N = len(loop)
    if N % mesh.n_t:
        raise Undersampled(
            f"loop samples ({N}) must be divisible by the angular resolution ({mesh.n_t})"
        )
    return N // mesh.n_t


def orthogonality_defect(D: DiscreteConnection, loop: FrameLoop) -> float:
    """How far boundary transport strays from preserving the Lagrangian frames.

    Transports the frame at the base boundary vertex around the outer rim and
    measures, at every vertex, the distance of (transported)^* (loop frame)
    from the real orthogonal group.  Requires the loop samples to align with
    the rim vertices (sample count divisible by the angular resolution).
    Only the rim edges are chained, and all rim SVDs run as one batch.
    """
    mesh = D.mesh
    stride = _rim_stride(mesh, loop)
    N = len(loop)
    n = loop.n
    T = D.transports_of(mesh.boundary_angular_ids())
    P = np.empty_like(T)
    acc = np.eye(n, dtype=complex)
    for j, Tj in enumerate(T):
        acc = Tj @ acc
        P[j] = acc
    targets = loop.samples[(np.arange(1, mesh.n_t + 1) * stride) % N]
    M = np.swapaxes((P @ loop.samples[0]).conj(), -1, -2) @ targets
    sv_sums = np.linalg.svd(np.real(M), compute_uv=False).sum(axis=-1)
    worst = 0.0
    for Mj, sv_sum in zip(M, sv_sums):
        d2 = float(np.linalg.norm(Mj) ** 2 + n - 2.0 * sv_sum)
        worst = max(worst, math.sqrt(max(d2, 0.0)))
    return worst


def double_degree(pair: BundlePairSpec) -> int:
    """Degree of the doubled bundle from overlap-map windings.

    Per boundary component the doubling overlap map is B(t) = u(t) u(t)^T;
    the degree is the sum of the windings of det B, computed directly from
    the assembled symmetric matrices.
    """
    total = 0
    for L in pair.loops:
        B = L.samples @ L.samples.transpose(0, 2, 1)
        total += winding(np.linalg.det(B))
    return total


def complex_curvature_value(D: DiscreteConnection) -> complex:
    """(i/pi) integral tr F without assuming unitarity (rank 1).

    The real part carries the angle content of the plaquette holonomies; a
    nonzero imaginary part means |det| of the transports drifts from 1, i.e.
    the connection fails the metric condition.
    """
    z = complex_face_logsum(D)
    re = math.fsum(z.imag.tolist()) / math.pi
    im = -math.fsum(z.real.tolist()) / math.pi
    return complex(re, im)


def norm_drift_demo(resolution: int = 128, substeps: int = 1):
    """Run the real-valued connection d + r d(theta) through the complex pipeline.

    Returns (real part, imaginary part) of (i/pi) integral tr F.  The whole
    integral lands on the imaginary axis (near 2i): transports here rescale
    sections instead of rotating them, so no index can be read off.  This is
    why the index pipeline insists on unitarity.
    """
    from .connections import builtin_connection

    spec = builtin_connection("example_4_3_nonunitary")
    mesh = Mesh2D("disc", resolution, resolution)
    D = edge_transports(spec, mesh, substeps, allow_non_unitary=True)
    val = complex_curvature_value(D)
    return val.real, val.imag

"""Structured polar meshes on the unit disc and the quarter disc.

Vertices sit on a polar grid of radii 0 to 1, so the only rim is the ring
r = 1; edges are either radial segments or straight chords between
consecutive ring vertices, so the faces tile an inscribed polygonal
domain.  The degenerate angular "edges" at a center vertex carry
zero geometric length but still transport the d(theta) component of a
connection form, which is how a cone twist at the origin enters the face sum.

Faces are quads (i, j) oriented counterclockwise; the face boundary lists
edge ids with signs so plaquette holonomies and their determinant angles can
be assembled from per-edge data alone.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter, UnknownName

DOMAINS = ("disc", "quarter_disc")


@dataclass(frozen=True, eq=False)
class Mesh2D:
    domain: str
    n_r: int
    n_t: int
    orientation: int = +1  # +1 counterclockwise, -1 reversed

    def __post_init__(self):
        if self.domain not in DOMAINS:
            raise UnknownName(f"unknown domain {self.domain!r}")
        if self.n_r < 2 or self.n_t < 4:
            raise InvalidParameter("mesh too coarse")
        if self.orientation not in (+1, -1):
            raise InvalidParameter("orientation must be +-1")

    # -- grid ---------------------------------------------------------------

    @property
    def wrap(self) -> bool:
        return self.domain != "quarter_disc"

    @property
    def t_span(self) -> float:
        return 2.0 * np.pi if self.wrap else 0.5 * np.pi

    @property
    def r_nodes(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.n_r + 1)

    @property
    def t_nodes(self) -> np.ndarray:
        return self.t_span * np.arange(self.n_t + 1) / self.n_t

    # -- edge enumeration -----------------------------------------------------
    # radial edge (i, j): (r_i, t_j) -> (r_{i+1}, t_j), i < n_r, j < n_tv
    # angular edge (i, j): ring r_i, t_j -> t_{j+1}, i <= n_r, j < n_t

    @property
    def n_tv(self) -> int:
        """Number of distinct vertex columns."""
        return self.n_t if self.wrap else self.n_t + 1

    @property
    def num_radial(self) -> int:
        return self.n_r * self.n_tv

    @property
    def num_angular(self) -> int:
        return (self.n_r + 1) * self.n_t

    @property
    def num_edges(self) -> int:
        return self.num_radial + self.num_angular

    @property
    def num_faces(self) -> int:
        return self.n_r * self.n_t

    def radial_id(self, i: int, j: int) -> int:
        return i * self.n_tv + j

    def angular_id(self, i: int, j: int) -> int:
        return self.num_radial + i * self.n_t + j

    def face_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """(num_faces, 4) edge ids and signs for counterclockwise boundaries.

        Face (i, j) spans [r_i, r_{i+1}] x [t_j, t_{j+1}]; its boundary is
        +radial(i, j), +angular(i+1, j), -radial(i, j+1), -angular(i, j).
        Row-major face order (i outer, j inner) fixes the reduction order.
        """
        ii, jj = np.meshgrid(np.arange(self.n_r), np.arange(self.n_t), indexing="ij")
        ii = ii.ravel()
        jj = jj.ravel()
        j_next = (jj + 1) % self.n_tv if self.wrap else jj + 1
        ids = np.stack(
            [
                self.radial_id(ii, jj),
                self.angular_id(ii + 1, jj),
                self.radial_id(ii, j_next),
                self.angular_id(ii, jj),
            ],
            axis=1,
        )
        signs = np.tile(np.array([1, 1, -1, -1]), (self.num_faces, 1))
        if self.orientation < 0:
            ids = ids[:, ::-1]
            signs = -signs[:, ::-1]
        return ids, signs

    def reversed(self) -> "Mesh2D":
        return Mesh2D(self.domain, self.n_r, self.n_t, -self.orientation)

    # -- quadrature geometry --------------------------------------------------

    def edge_quadrature(self, substeps: int):
        """Midpoint-rule nodes and polar displacements for every edge.

        Returns (r_mid, t_mid, dr, dt), each (num_edges, substeps).  Radial
        edges move only in r; angular edges are straight chords subdivided in
        the plane, with exact per-substep increments of r and theta so closed
        forms integrate exactly; center angular edges (zero length) keep
        their parametric d(theta) increment.  The geometry does not depend on
        the orientation; it is computed once per (domain, n_r, n_t, substeps),
        keeping the ``QUADRATURE_CACHE_SIZE`` most recently used, and the
        arrays are read-only because every caller shares them.
        """
        s = int(substeps)
        if s < 1:
            raise InvalidParameter("substeps must be >= 1")
        return _edge_quadrature(self.domain, self.n_r, self.n_t, s)

    def boundary_angular_ids(self) -> np.ndarray:
        """Edge ids of the rim chords (the outer ring, r = 1), in increasing angle order."""
        return self.angular_id(self.n_r, np.arange(self.n_t))


# verify integrates about ten mesh shapes; cw integrates one
QUADRATURE_CACHE_SIZE = 16


@functools.lru_cache(maxsize=QUADRATURE_CACHE_SIZE)
def _edge_quadrature(domain: str, n_r: int, n_t: int, s: int):
    mesh = Mesh2D(domain, n_r, n_t)
    E = mesh.num_edges
    r_mid = np.empty((E, s))
    t_mid = np.empty((E, s))
    dr = np.zeros((E, s))
    dt = np.zeros((E, s))
    rv, tv = mesh.r_nodes, mesh.t_nodes
    frac_mid = (np.arange(s) + 0.5) / s

    # radial edges
    i_idx, j_idx = np.meshgrid(np.arange(mesh.n_r), np.arange(mesh.n_tv), indexing="ij")
    r0 = rv[i_idx.ravel()][:, None]
    r1 = rv[i_idx.ravel() + 1][:, None]
    theta = tv[j_idx.ravel()][:, None]
    sl = slice(0, mesh.num_radial)
    r_mid[sl] = r0 + (r1 - r0) * frac_mid[None, :]
    t_mid[sl] = np.broadcast_to(theta, (mesh.num_radial, s))
    dr[sl] = np.broadcast_to((r1 - r0) / s, (mesh.num_radial, s))

    # angular edges
    i_idx, j_idx = np.meshgrid(np.arange(mesh.n_r + 1), np.arange(mesh.n_t), indexing="ij")
    j = j_idx.ravel()
    ring_r = rv[i_idx.ravel()]
    th0 = tv[j]
    th1 = tv[j + 1]
    sl = slice(mesh.num_radial, None)
    center = ring_r <= 0.0
    e = np.exp(1j * tv)  # the unit vector of each node angle, gathered per edge
    z0 = ring_r[:, None] * e[j][:, None]
    z1 = ring_r[:, None] * e[j + 1][:, None]
    frac = np.arange(s + 1) / s
    zz = z0 + (z1 - z0) * frac[None, :]
    zm = 0.5 * (zz[:, :-1] + zz[:, 1:])
    with np.errstate(divide="ignore", invalid="ignore"):
        ang_dt = np.angle(zz[:, 1:] / zz[:, :-1])
    ang_r = np.abs(zm)
    ang_t = np.mod(np.angle(zm), 2 * np.pi) if mesh.wrap else np.angle(zm)
    ang_dr = np.abs(zz[:, 1:]) - np.abs(zz[:, :-1])
    # degenerate ring at r = 0: parametric theta increments
    mid_t = th0[:, None] + (th1 - th0)[:, None] * frac_mid[None, :]
    step_t = ((th1 - th0) / s)[:, None]
    ang_r[center] = 0.0
    ang_t[center] = np.broadcast_to(mid_t, ang_t.shape)[center]
    ang_dr[center] = 0.0
    ang_dt = np.where(center[:, None], np.broadcast_to(step_t, ang_dt.shape), ang_dt)
    r_mid[sl] = ang_r
    t_mid[sl] = ang_t
    dr[sl] = ang_dr
    dt[sl] = ang_dt
    for a in (r_mid, t_mid, dr, dt):
        a.flags.writeable = False
    return r_mid, t_mid, dr, dt

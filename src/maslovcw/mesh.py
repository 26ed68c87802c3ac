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
import operator
from dataclasses import dataclass

import numpy as np

from . import matcore
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
        for name in ("n_r", "n_t"):
            object.__setattr__(self, name, _count(getattr(self, name), name))
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
        """Midpoint-rule nodes and angular displacements of every angular edge.

        Returns (r_mid, t_mid, dt), each (num_angular, substeps), row k for
        edge id ``num_radial + k``.  The edges are straight chords
        subdivided in the plane, with the exact per-substep increment of
        theta, so closed forms integrate exactly; center angular edges (zero
        length) keep their parametric d(theta) increment.  A connection has
        no dr part, so neither the chords' dr nor the radial edges (where
        d(theta) = 0) get rows.  The geometry does not depend on the
        orientation; it is computed once per (domain, n_r, n_t, substeps),
        keeping the ``QUADRATURE_CACHE_SIZE`` most recently used, and the
        arrays are read-only because every caller shares them.  They are
        filled a block of rings at a time, each block about ``matcore.BLOCK``
        matrices (edges times substeps), so the temporaries beyond the
        output are one block's.  Every value is elementwise in the edge, so
        the bytes do not depend on the block size.  ``substeps`` must be an
        integer >= 1.
        """
        s = _count(substeps, "substeps")
        if s < 1:
            raise InvalidParameter("substeps must be >= 1")
        return _edge_quadrature(self.domain, self.n_r, self.n_t, s)

    def boundary_angular_ids(self) -> np.ndarray:
        """Edge ids of the rim chords (the outer ring, r = 1), in increasing angle order."""
        return self.angular_id(self.n_r, np.arange(self.n_t))


def _count(value, name: str) -> int:
    """``value`` as an int; InvalidParameter for a bool or any non-integer, a float included."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise InvalidParameter(f"{name} must be an integer, got {value!r}")


# verify integrates about ten mesh shapes; cw integrates one
QUADRATURE_CACHE_SIZE = 16


@functools.lru_cache(maxsize=QUADRATURE_CACHE_SIZE)
def _edge_quadrature(domain: str, n_r: int, n_t: int, s: int):
    mesh = Mesh2D(domain, n_r, n_t)
    out = tuple(np.empty((mesh.num_angular, s)) for _ in range(3))
    tv = mesh.t_nodes
    frac_mid = (np.arange(s) + 0.5) / s
    e = np.exp(1j * tv)  # the unit vector of each node angle
    rings = max(1, matcore.BLOCK // (n_t * s))
    angular = [a.reshape(n_r + 1, n_t, s) for a in out]
    for a in range(0, n_r + 1, rings):
        _angular_rows(mesh.r_nodes[a : a + rings], tv, e, frac_mid, mesh.wrap,
                      [x[a : a + rings] for x in angular])
    for a in out:
        a.flags.writeable = False
    return out


def _angular_rows(ring_r, tv, e, frac_mid, wrap, out) -> None:
    """Fill ``out`` (r_mid, t_mid, dt), each (rings, n_t, s), for the chords of ``ring_r``."""
    s = len(frac_mid)
    th0, th1 = tv[:-1], tv[1:]
    z0 = ring_r[:, None, None] * e[:-1, None]
    z1 = ring_r[:, None, None] * e[1:, None]
    zz = z0 + (z1 - z0) * (np.arange(s + 1) / s)
    zm = 0.5 * (zz[..., :-1] + zz[..., 1:])
    r_mid, t_mid, dt = out
    with np.errstate(divide="ignore", invalid="ignore"):
        dt[...] = np.angle(zz[..., 1:] / zz[..., :-1])
    np.abs(zm, out=r_mid)
    t_mid[...] = np.mod(np.angle(zm), 2 * np.pi) if wrap else np.angle(zm)
    # degenerate ring at r = 0: parametric theta increments
    center = ring_r <= 0.0
    r_mid[center] = 0.0
    t_mid[center] = th0[:, None] + (th1 - th0)[:, None] * frac_mid
    dt[center] = ((th1 - th0) / s)[:, None]

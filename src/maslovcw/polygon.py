"""Transversal Lagrangian boundary conditions on marked discs.

Boundary data is one open frame path per edge; adjacent edges meet at
vertices where their Lagrangians intersect trivially.  Closing the data with
canonical positive-definite paths at the vertices produces the loop whose
winding is the topological index; subtracting one quarter-disc model per
vertex recovers the curvature index, and the topological index feeds the
closed index formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import matcore
from .connections import build_arc_collar_connection, build_collar_connection, cutoff_profile
from .curvature import CurvatureReport, chern_weil_index, edge_transports
from .errors import (
    MaslovCWError, NotTransverse, RankMismatch, Undersampled, ViolatedIdentity, ZeroSample,
)
from .grassmann import LagrangianFrame, intersection_dim, positive_path
from .loops import FrameLoop, int_from_json, maslov_loop, read_json, samples_from_json
from .mesh import Mesh2D
from .tolerances import TOL

_VERTEX_SAMPLES = 64
_DISC_MESH_N_R = 24
_QUARTER_MESH_N_R, _QUARTER_MESH_N_T = 32, 128
_EDGE_SAMPLES = 64


@dataclass(eq=False)
class TransversalBundleData:
    """k+1 open edge paths around a disc with transverse corners.

    ``edges[i]`` is an (M_i, n, n) stack of frames including both endpoints;
    vertex i joins the end of edge i to the start of edge i+1 (mod k+1), and
    those two Lagrangians must intersect trivially.
    """

    n: int
    edges: list
    chi: int = 1

    def __post_init__(self):
        if len(self.edges) < 2:
            raise NotTransverse(
                "need at least two edges; a single edge cannot meet itself transversely"
            )
        # read-only copies: the corner frames and the closed loop are kept
        self.edges = [np.array(e, dtype=complex) for e in self.edges]
        for e in self.edges:
            e.flags.writeable = False
            if e.ndim != 3 or e.shape[1:] != (self.n, self.n):
                raise RankMismatch(f"edge shape {e.shape} does not match rank {self.n}")
            if e.shape[0] < 5:
                raise Undersampled("edge paths need at least 5 samples")
            if not np.all(np.isfinite(e)):
                raise ZeroSample("non-finite edge entries")
        pairs = []
        for i in range(len(self.edges)):
            F = LagrangianFrame.from_matrix(self.edges[i][-1])
            G = LagrangianFrame.from_matrix(self.edges[(i + 1) % len(self.edges)][0])
            if intersection_dim(F, G) != 0:
                raise NotTransverse(f"edges {i} and {(i + 1) % len(self.edges)} "
                                    "meet non-transversely")
            pairs.append((F, G))
        self._vertex_pairs = tuple(pairs)

    @property
    def k_plus_1(self) -> int:
        return len(self.edges)

    def vertex_pair(self, i: int):
        """(end of edge i, start of edge i+1) as frames, built once at construction."""
        return self._vertex_pairs[i]

    @cached_property
    def closed_loop(self) -> FrameLoop:
        """The closed-up boundary loop: built by ``build_L_loop`` on first use, then reused."""
        return build_L_loop(self)


def build_L_loop(data: TransversalBundleData) -> FrameLoop:
    """Close the edge data into a loop with positive paths at the corners.

    Each corner path is sampled at 64 points, linear in path time.  Its
    angles lie in (0, pi), so arg det B turns by 2 sum(theta_j) / 64 < pi/2
    per step at every rank up to ``matcore.MAX_RANK`` = 16: the corners
    always pass the winding guard, and an Undersampled loop is an edge's
    own failure, which denser corners could not mend.
    """
    ts = np.arange(1, _VERTEX_SAMPLES) / _VERTEX_SAMPLES
    pieces = []
    for i, edge in enumerate(data.edges):
        pieces += (edge, positive_path(*data.vertex_pair(i)).sample(ts))
    return FrameLoop(data.n, np.concatenate(pieces, axis=0))


def mu_top(data: TransversalBundleData) -> int:
    """Topological index: winding of the closed-up boundary loop."""
    return maslov_loop(data.closed_loop)


# ---------------------------------------------------------------------------
# quarter-disc vertex model
# ---------------------------------------------------------------------------

def quarter_arc_path(frame: LagrangianFrame) -> np.ndarray:
    """Arc frames gamma(t) = V e^{i pi s(t)/2} joining V.R^n to its i-rotation, 129 samples.

    The quintic ramp s has vanishing first and second derivatives at the
    ends, so the path is constant to second order near the two axes and four
    rotated copies glue smoothly around a full disc.
    """
    t = np.linspace(0.0, 1.0, 129)
    s = cutoff_profile(t, "quintic", 1.0)
    return frame.u[None, :, :] * np.exp(1j * np.pi * s / 2.0)[:, None, None]


def quarter_model_report(frame: LagrangianFrame) -> CurvatureReport:
    """Curvature integral of the corner model at ``frame`` on a 32 x 128 quarter-disc mesh.

    The model's boundary is the arc ``quarter_arc_path(frame)`` between the
    two straight axes.  The connection makes the arc frames parallel (a
    collar of width 0.3 on the arc path) and is trivial near the axes; the
    integral rounds to n/2 at quantum 1/2.
    """
    spec = build_arc_collar_connection(quarter_arc_path(frame), t_span=0.5 * np.pi)
    m = Mesh2D("quarter_disc", _QUARTER_MESH_N_R, _QUARTER_MESH_N_T)
    return chern_weil_index(edge_transports(spec, m), Fraction(1, 2))


def glue_quadrants(frame: LagrangianFrame) -> FrameLoop:
    """Four rotated copies of the quarter arc glued into a full boundary loop (512 samples)."""
    g = quarter_arc_path(frame)[:-1]
    blocks = [(1j**k) * g for k in range(4)]
    return FrameLoop(frame.n, np.concatenate(blocks, axis=0))


# ---------------------------------------------------------------------------
# index formulas
# ---------------------------------------------------------------------------

def mu_cw_polygon(data: TransversalBundleData, verify: bool = False):
    """Curvature index of the transversal pair: mu_top - (k+1) n / 2.

    With ``verify=True`` the value is recomputed by honest integration:
    the closed-up loop's collar connection is integrated over the disc (24
    rings, one angular step per loop sample) and the quarter-disc models of
    the k+1 vertices are subtracted, matching the gluing decomposition of
    the boundary data.  The two routes must agree within
    ``TOL.raw_agreement``.

    One model, on vertex 0's frame, is integrated and counted k+1 times.
    Its collar reads only the trace -(i/2) d/dt arg det B of the arc
    F e^{i pi s/2}, and det B = det(F)^2 e^{i pi n s} there, so the frame
    drops out: every vertex's model gives the same integral up to rounding
    in its phase increments (spread within 1e-14).
    """
    top = mu_top(data)
    value = Fraction(top) - Fraction(data.k_plus_1 * data.n, 2)
    details = {"mu_top": top, "k_plus_1": data.k_plus_1}
    if verify:
        loop = data.closed_loop
        spec = build_collar_connection(loop)
        m = Mesh2D("disc", _DISC_MESH_N_R, len(loop))
        disc_raw = chern_weil_index(edge_transports(spec, m), Fraction(1, 2)).raw
        corner = quarter_model_report(data.vertex_pair(0)[0]).raw
        raw = disc_raw - data.k_plus_1 * corner
        residual = abs(raw - float(value))
        details.update({"raw": raw, "residual": residual, "disc_raw": disc_raw})
        if not residual <= TOL.raw_agreement:
            raise ViolatedIdentity(
                f"curvature route gave {raw}, formula gives {float(value)}", details
            )
    return value, details


def fredholm_index(data: TransversalBundleData) -> int:
    """Index of the boundary value problem: Ind = mu_top + n chi - (k+1) n.

    In terms of the curvature index this is mu_cw + n chi - (k+1) n / 2.
    """
    return mu_top(data) + data.n * data.chi - data.k_plus_1 * data.n


def maslov_viterbo(data: TransversalBundleData) -> int:
    """Index of a bi-gon on a disc: there Ind = mu_top - n = mu_cw."""
    if data.k_plus_1 != 2:
        raise RankMismatch("the bi-gon index needs exactly two edges")
    if data.chi != 1:
        raise RankMismatch("the bi-gon lives on a disc (chi = 1)")
    return fredholm_index(data)


# ---------------------------------------------------------------------------
# generators for randomized suites
# ---------------------------------------------------------------------------

def random_transversal_data(
    rng: np.random.Generator, n: int, k_plus_1: int
) -> TransversalBundleData:
    """Seeded transversal data on a disc: k+1 smooth random edge paths of 64 samples."""
    t = np.linspace(0.0, 1.0, _EDGE_SAMPLES)
    edges = []
    for i in range(k_plus_1):
        # the fixed frames a redraw must meet: the previous edge's end, and
        # for the last edge also edge 0's start
        prev_end = LagrangianFrame.from_matrix(edges[-1][-1]) if i > 0 else None
        first_start = LagrangianFrame.from_matrix(edges[0][0]) if 0 < i == k_plus_1 - 1 else None
        for _attempt in range(60):
            Q = matcore.haar_unitary(n, rng)
            K = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            K = 0.5 * (K - K.conj().T)
            K *= 2.0 / max(np.linalg.norm(K), 1e-9)
            lam, V = np.linalg.eigh(-1j * K)
            ph = np.exp(1j * np.outer(t, lam))
            path = Q @ np.einsum("ij,tj,kj->tik", V, ph, V.conj())
            ok = prev_end is None or intersection_dim(
                prev_end, LagrangianFrame.from_matrix(path[0])) == 0
            if ok and first_start is not None:
                ok = intersection_dim(LagrangianFrame.from_matrix(path[-1]), first_start) == 0
            if ok:
                edges.append(path)
                break
        else:
            raise NotTransverse("could not draw transverse edges (improbable)")
    return TransversalBundleData(n, edges)


def bigon_standard(n: int) -> TransversalBundleData:
    """Constant edges R^n and i.R^n of 64 samples; the closed-up loop has index n."""
    e0 = np.tile(np.eye(n, dtype=complex), (_EDGE_SAMPLES, 1, 1))
    return TransversalBundleData(n, [e0, 1j * e0])


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------

def polygon_from_json(obj: dict) -> TransversalBundleData:
    """``{"n", "chi"?, "edges"}``; each edge is a sample list or ``{"samples": ...}``."""
    if not isinstance(obj, dict) or not isinstance(obj.get("edges"), list):
        raise MaslovCWError("a polygon file must hold a JSON object with an edge list")
    n = int_from_json(obj.get("n"), "n")
    edges = [samples_from_json(e.get("samples") if isinstance(e, dict) else e, n)
             for e in obj["edges"]]
    return TransversalBundleData(n, edges, int_from_json(obj.get("chi", 1), "chi"))


def load_polygon(path: str) -> TransversalBundleData:
    return read_json(path, polygon_from_json)

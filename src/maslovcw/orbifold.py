"""Maslov indices over orbifold discs with one interior cone point.

The cone point at the origin has order m and integer weights (m_1..m_n); the
boundary loop is given in the outer trivialization, the one that extends
over the desingularized bundle.  Three routes to the index are implemented
and cross-checked: pulling back along a branch cover z -> z^d and dividing
by the degree, integrating curvature of an invariant connection whose cone
model carries the weight twist, and correcting the desingularized winding
index by twice the weight sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .connections import (
    ConnectionSpec, collar_spec, collar_term, cutoff_profile, loop_boundary_form,
    loop_boundary_trace,
)
from .curvature import chern_weil_index, edge_transports, index_refining
from .errors import InvalidParameter, MaslovCWError, RankMismatch, Undersampled, ViolatedIdentity
from .loops import (
    MAX_SAMPLES, BundlePairSpec, FrameLoop, int_from_json, loop_from_json,
    maslov_bundle_pair, maslov_loop, read_json,
)
from .mesh import Mesh2D
from .tolerances import TOL

_COLLAR_WIDTH = 0.3
_CW_MESH_N_R = 48


@dataclass(frozen=True)
class ConePoint:
    """Cone point at the origin (covering map z -> z^d): order m and a weight per rank."""

    order: int
    weights: tuple

    def __post_init__(self):
        # integers, or floats with no fractional part; anything else raises MaslovCWError
        object.__setattr__(self, "order", int_from_json(self.order, "m"))
        if self.order < 2:
            raise RankMismatch("cone order must be >= 2")
        object.__setattr__(self, "weights", tuple(int_from_json(w, "weight") for w in self.weights))
        for w in self.weights:
            if not (0 <= w < self.order):
                raise RankMismatch(f"weight {w} outside [0, {self.order})")

    @property
    def weight_sum(self) -> Fraction:
        return Fraction(sum(self.weights), self.order)


@dataclass(eq=False)
class OrbifoldDiscSpec:
    """Disc with a single cone point at the origin and a boundary frame loop."""

    n: int
    cone: ConePoint
    boundary: FrameLoop

    def __post_init__(self):
        if len(self.cone.weights) != self.n:
            raise RankMismatch(
                f"cone carries {len(self.cone.weights)} weights for rank {self.n}"
            )
        if self.boundary.n != self.n:
            raise RankMismatch("boundary loop rank mismatch")


@dataclass(frozen=True)
class BranchCover:
    """The cover z -> z^d of the uniformized model; d must be a multiple of m."""

    degree: int
    order: int

    def __post_init__(self):
        if self.degree < 1 or self.degree % self.order:
            raise RankMismatch(
                f"cover degree {self.degree} is not a positive multiple of {self.order}"
            )


def pullback_bundle_pair(spec: OrbifoldDiscSpec, cover: BranchCover) -> BundlePairSpec:
    """Boundary loop of the pulled-back pair in the equivariant trivialization.

    v(t) = diag(e^{2 pi i (d/m) m_j t}) u(d t mod 1); sampled with d times the
    base count so the base samples are reused exactly, and refined (up to
    ``MAX_SAMPLES``) until the winding guard passes.  A first pullback of
    more than ``MAX_SAMPLES`` raises before allocating.
    """
    if cover.order != spec.cone.order:
        raise RankMismatch("cover order does not match the cone order")
    d = cover.degree
    base = spec.boundary
    if d * len(base) > MAX_SAMPLES:  # before the weights (each below d) become floats
        raise InvalidParameter(
            f"pullback of {d * len(base)} samples exceeds the cap of {MAX_SAMPLES}"
        )
    ratio = d // spec.cone.order
    w = np.array(spec.cone.weights, dtype=float)
    while True:
        Nv = d * len(base)
        t = np.arange(Nv) / Nv
        twist = np.exp(2j * np.pi * ratio * np.outer(t, w))
        samples = twist[:, None, :] * np.tile(base.samples, (d, 1, 1))
        try:
            loop = FrameLoop(spec.n, samples)
            break
        except Undersampled:
            if 2 * Nv > MAX_SAMPLES:
                raise
            base = base.refined()
    return BundlePairSpec(spec.n, (loop,), euler_characteristic=1)


def mu_pi(spec: OrbifoldDiscSpec, cover: Optional[BranchCover] = None) -> Fraction:
    """Index of the branch-cover pullback divided by the cover degree."""
    if cover is None:
        cover = BranchCover(spec.cone.order, spec.cone.order)
    pulled = pullback_bundle_pair(spec, cover)
    return Fraction(maslov_bundle_pair(pulled), cover.degree)


def desing_index(spec: OrbifoldDiscSpec) -> int:
    """Winding index of the boundary loop in the outer trivialization."""
    return maslov_loop(spec.boundary)


def chen_ruan_correction(cones) -> Fraction:
    """Sum of weight fractions over the cone points, exact."""
    total = Fraction(0)
    for c in cones:
        total += c.weight_sum
    return total


def invariant_connection(spec: OrbifoldDiscSpec) -> ConnectionSpec:
    """Cone model near the origin plus a boundary collar of width 0.3.

    Near the cone point the form is i diag(m_j / m) eta(r) d(theta), matching
    the flat equivariant structure of the weight representation; eta is 1
    for r <= 0.1 and falls by a cubic ramp to 0 at r = 0.4, so the cone term
    is disjoint from the collar support.
    """
    D = 1j * np.diag(np.array(spec.cone.weights, dtype=float) / spec.cone.order)

    def depth(r):
        return (r - (1.0 - _COLLAR_WIDTH)) / _COLLAR_WIDTH

    def term(A_bdry, cone, r, t):
        collar = collar_term(A_bdry, depth(r), t, 2 * np.pi)
        eta = 1.0 - cutoff_profile((r - 0.1) / 0.3, "cubic", 1.0)
        return collar + eta.reshape(eta.shape + (1,) * cone.ndim) * cone

    loop = spec.boundary
    return collar_spec(term, (loop_boundary_trace(loop), np.trace(D)),
                       lambda: (loop_boundary_form(loop)[0], D), spec.n,
                       f"cone(m={spec.cone.order})+collar", loop,
                       lambda r: cutoff_profile(depth(r)))


def mu_cw_orbifold(spec: OrbifoldDiscSpec):
    """Curvature index of the invariant connection, quantum 1/(2m).

    Integrated over 48 rings, one angular step per boundary sample; a
    boundary the mesh cannot resolve is refined (``index_refining``).
    Returns (rounded Fraction, CurvatureReport); the rounded value must
    agree with the branch-cover index.
    """
    def index(loop):
        D = edge_transports(invariant_connection(OrbifoldDiscSpec(spec.n, spec.cone, loop)),
                            Mesh2D("disc", _CW_MESH_N_R, len(loop)))
        return chern_weil_index(D, Fraction(1, 2 * spec.cone.order), loop=loop)

    report = index_refining(index, spec.boundary)
    return report.rounded, report


def verify_desingularization(spec: OrbifoldDiscSpec) -> dict:
    """Check mu_cw = mu_de + 2 * (weight sum) three ways.

    Exact rationals through the branch cover, the desingularized winding and
    the weight correction; the curvature raw value must sit within
    ``TOL.raw_agreement`` of the common rational.  Raises ViolatedIdentity
    with diagnostics on failure.
    """
    de = desing_index(spec)
    corr = chen_ruan_correction([spec.cone])
    pi_val = mu_pi(spec)
    pi_val_2m = mu_pi(spec, BranchCover(2 * spec.cone.order, spec.cone.order))
    cw_rounded, report = mu_cw_orbifold(spec)
    expected = Fraction(de) + 2 * corr
    out = {
        "mu_de": de,
        "correction": corr,
        "mu_pi": pi_val,
        "mu_pi_double_cover": pi_val_2m,
        "mu_cw": cw_rounded,
        "mu_cw_raw": report.raw,
        "expected": expected,
        "cover_independent": pi_val == pi_val_2m,
        "identity_exact": cw_rounded == expected == pi_val,
        "identity_raw_residual": abs(report.raw - float(expected)),
        "report": report,
    }
    if not out["cover_independent"]:
        raise ViolatedIdentity("branch-cover index depends on the cover degree", out)
    if not (out["identity_exact"] and out["identity_raw_residual"] <= TOL.raw_agreement):
        raise ViolatedIdentity(
            f"desingularization identity failed: cw={cw_rounded}, de={de}, corr={corr}",
            out,
        )
    return out


def cover_multiplicativity(pair: BundlePairSpec, m: int) -> dict:
    """Composing with a degree-m boundary cover multiplies the index by m.

    The pair must be smooth (no cone data); each boundary loop is precomposed
    with t -> m t and the summed index compared exactly.
    """
    if m < 2:
        raise RankMismatch("cover degree must be >= 2")
    base = maslov_bundle_pair(pair)
    covered = tuple(FrameLoop(L.n, np.tile(L.samples, (m, 1, 1))) for L in pair.loops)
    lifted = maslov_bundle_pair(BundlePairSpec(pair.n, covered))
    out = {"m": m, "mu": base, "mu_lifted": lifted, "exact": lifted == m * base}
    if not out["exact"]:
        raise ViolatedIdentity(f"cover multiplicativity failed: {lifted} != {m}*{base}", out)
    return out


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------

def orbifold_from_json(obj: dict) -> OrbifoldDiscSpec:
    if not isinstance(obj, dict) or not isinstance(obj.get("cone"), dict):
        raise MaslovCWError("an orbifold file must hold a JSON object with a cone object")
    m, weights = obj["cone"].get("m"), obj["cone"].get("weights")
    if not isinstance(weights, list):
        raise MaslovCWError("cone weights must be a list of integers")
    cone = ConePoint(m, tuple(weights))
    boundary = loop_from_json(obj.get("boundary"))
    return OrbifoldDiscSpec(int_from_json(obj.get("n"), "n"), cone, boundary)


def load_orbifold(path: str) -> OrbifoldDiscSpec:
    return read_json(path, orbifold_from_json)

"""The Lagrangian Grassmannian U(n)/O(n).

A Lagrangian subspace of C^n is represented by a unitary frame U whose
columns span it over the reals; two frames give the same subspace exactly
when they differ by a right real-orthogonal factor.  The squared-frame map
B(U) = U U^T collapses that freedom and lands in the symmetric unitaries,
where intersection dimensions and canonical positive-definite paths are read
off from eigenphases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matcore
from .errors import NotTransverse, RankMismatch, SingularInput
from .tolerances import TOL


@dataclass(frozen=True, eq=False)
class LagrangianFrame:
    """Unitary frame U spanning the Lagrangian U . R^n inside C^n."""

    n: int
    u: np.ndarray

    @classmethod
    def from_matrix(cls, u: np.ndarray) -> "LagrangianFrame":
        u = np.asarray(u, dtype=complex)
        if u.ndim != 2 or u.shape[0] != u.shape[1]:
            raise SingularInput(f"frame must be square, got {u.shape}")
        n = u.shape[0]
        if n > matcore.MAX_RANK:
            raise SingularInput(f"rank {n} exceeds the {matcore.MAX_RANK} cap")
        if not np.isfinite(u).all():
            raise SingularInput("frame has a non-finite entry")
        defect = matcore.unitary_defect(u)
        if not defect <= TOL.same_lagrangian:
            raise SingularInput(f"frame unitary defect {defect:.3g}")
        if defect > TOL.frame_polish_per_rank * n:
            # one Newton step takes any defect up to TOL.same_lagrangian below 1e-14 n
            u = matcore.unitarize_batch(u, steps=1)
        return cls(n, u)

    @classmethod
    def standard(cls, n: int) -> "LagrangianFrame":
        return cls(n, np.eye(n, dtype=complex))


def b_map(F: LagrangianFrame) -> np.ndarray:
    """Symmetric unitary U U^T; depends only on the Lagrangian, not the frame."""
    return F.u @ F.u.T


def same_lagrangian(F: LagrangianFrame, G: LagrangianFrame) -> bool:
    if F.n != G.n:
        raise RankMismatch(f"ranks {F.n} != {G.n}")
    return matcore.frobenius(b_map(F) - b_map(G)) <= TOL.same_lagrangian


def intersection_dim(F: LagrangianFrame, G: LagrangianFrame) -> int:
    """dim of the real intersection of the two Lagrangians.

    Counted as the multiplicity of eigenvalue +1 of W^T W for W = U_F^* U_G,
    with eigenphases within ``TOL.intersection_phase`` of zero treated as +1.
    """
    if F.n != G.n:
        raise RankMismatch(f"ranks {F.n} != {G.n}")
    W = F.u.conj().T @ G.u
    phases = matcore.eigenphases_unitary(W.T @ W)
    return int(np.count_nonzero(np.abs(phases) <= TOL.intersection_phase))


@dataclass(frozen=True, eq=False)
class PositivePath:
    """Path t -> U_F O e^{i t Theta} R^n with all angles in (0, pi).

    Moves every Kaehler angle monotonically, so Arg det B increases strictly
    along the path; t=0 spans the start Lagrangian and t=1 the end one.
    """

    start: LagrangianFrame
    orthogonal: np.ndarray      # real orthogonal factor from the Takagi step
    angles: np.ndarray          # lifted angles, each strictly inside (0, pi)

    @property
    def n(self) -> int:
        return self.start.n

    def sample(self, ts: np.ndarray) -> np.ndarray:
        """Frames of shape (len(ts), n, n) along the path."""
        ts = np.asarray(ts, dtype=float)
        base = self.start.u @ self.orthogonal
        phases = np.exp(1j * np.outer(ts, self.angles))
        return base[None, :, :] * phases[:, None, :]


def positive_path(F: LagrangianFrame, G: LagrangianFrame) -> PositivePath:
    """Canonical positive-definite path between transverse Lagrangians.

    Takagi-factor B(U_F^* U_G) = O e^{2i Theta} O^T and lift each angle from
    (-pi/2, pi/2] into (0, pi) by adding pi to non-positive ones.  Angles
    within tolerance of 0 mod pi mean the pair is not transverse.  When
    G = i.F every lifted angle is pi/2 and the path is e^{i pi t/2} . F.
    """
    if F.n != G.n:
        raise RankMismatch(f"ranks {F.n} != {G.n}")
    ut = F.u.conj().T @ G.u
    O, theta = matcore.takagi_symmetric_unitary(ut @ ut.T)
    lifted = np.where(theta <= TOL.transverse_angle, theta + np.pi, theta)
    if np.any(np.minimum(np.abs(lifted), np.abs(np.pi - lifted)) <= TOL.transverse_angle):
        raise NotTransverse(
            "positive path undefined: a principal angle sits at 0 mod pi "
            f"(angles {np.round(lifted, 9)})"
        )
    return PositivePath(start=F, orthogonal=O, angles=lifted)

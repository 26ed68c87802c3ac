"""Central numerical tolerances.

Every guard and invariant threshold used across the library lives in one
frozen record, ``TOL``; each guard reads its field where it checks, and no
call can override it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    unitary_global: float = 1e-9      # drift bound for transports anywhere downstream
    symmetric: float = 1e-10          # ||M - M^T||_F on symmetric unitaries
    takagi_recon: float = 1e-9        # ||O e^{2i Theta} O^T - M||_F
    same_lagrangian: float = 1e-8     # ||B(F) - B(G)||_F identifying Lagrangians
    loop_polish: float = 1e-12        # FrameLoop samples are polished above this unitary defect
    frame_polish_per_rank: float = 1e-13  # from_matrix polishes above this times the rank
    intersection_phase: float = 1e-7  # eigenphase window counting intersection dims
    transverse_angle: float = 1e-7    # positive-path angle distance to 0 mod pi
    winding_guard: float = math.pi / 2   # max per-step principal phase increment
    face_angle_guard: float = math.pi / 2  # per-plaquette branch guard
    rounding_residual: float = 0.25   # |raw - rounded| index, in quanta
    frame_step_sv: float = 0.5        # min singular value in frame alignment
    skew: float = 1e-10               # skew-Hermitian defect of connection values
    raw_agreement: float = 2e-2       # raw curvature integrals of two routes to one index
    analytic_raw: float = 1e-2        # raw curvature integral against its analytic value


TOL = Tolerances()

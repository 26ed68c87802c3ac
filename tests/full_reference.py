"""Full-generator reference integration of connection forms with a dr part.

The package integrates a ``ConnectionSpec``, a form A_theta d(theta) with no
dr part, from its trace.  A ``FullForm`` adds a radial coefficient A_r: a
spec's radial gauge transform, or the spec with an explicit zero A_r.
``reference_connection`` integrates either the long way, with generators
G = -(A_theta dt + A_r dr) on every edge, radial rows included, and
log det = tr of G summed over the substeps.  The gauge and twin tests run
against it.  ``full_generators`` gives a spec's generators on every edge,
``full_logdet`` its log dets, and ``reference_face_sum`` sums the faces of
every edge's log det by id and sign, radial edges included.
``reference_ring_logdet`` is the per-edge log det formula of
``edge_transports`` written out over whole arrays, and ``reversed_loop``
reverses a frame loop's orientation, which only the tests need.
"""

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from maslovcw import curvature, matcore
from maslovcw.connections import ConnectionSpec, check_skew
from maslovcw.curvature import DiscreteConnection
from maslovcw.loops import FrameLoop


@dataclass(frozen=True, eq=False)
class FullForm:
    """The form A_r dr + A_theta d(theta).

    ``spec`` evaluates A_theta and its trace; ``radial(r, t)`` evaluates A_r,
    shape r.shape + (n, n), and None stands for no dr part.
    """

    spec: ConnectionSpec
    radial: Optional[Callable] = None


def full_form(form) -> FullForm:
    """``form`` as a FullForm; a ConnectionSpec has no dr part."""
    return FullForm(form) if isinstance(form, ConnectionSpec) else form


def zero_radial_twin(spec: ConnectionSpec) -> FullForm:
    """The same form declared with a dr part, returned as explicit zeros."""
    return FullForm(spec, lambda r, t: np.zeros(np.shape(r) + (spec.n, spec.n), dtype=complex))


def radial_gauge_transform(form, generator: np.ndarray, amplitude: float = 1.0) -> FullForm:
    """Gauge-transform ``form`` (a FullForm or a spec) by g(r) = exp(c s(r) S) with s(1) = 0.

    S is a constant skew-Hermitian generator and s(r) = (1 - r^2)^2, so g is
    the identity on the boundary and smooth at the origin.  The transformed
    form is A' = c s'(r) S dr + g^{-1} A g; its trace curvature integral must
    match the original up to quadrature error.  Conjugation keeps the trace
    of A_theta, so the transformed spec keeps the base trace evaluator.
    """
    form = full_form(form)
    S = np.asarray(generator, dtype=complex)
    S = 0.5 * (S - S.conj().T)
    lam, V = np.linalg.eigh(-1j * S)
    c = float(amplitude)

    def gauge(r):
        ph = np.exp(1j * np.multiply.outer(c * (1.0 - r**2) ** 2, lam))
        g = np.einsum("ij,...j,kj->...ik", V, ph, V.conj())
        g_inv = np.einsum("ij,...j,kj->...ik", V, 1.0 / ph, V.conj())
        return g, g_inv

    def coeffs(r, t):
        g, g_inv = gauge(np.asarray(r, dtype=float))
        return g_inv @ form.spec.coeffs(r, t) @ g

    def radial(r, t):
        r = np.asarray(r, dtype=float)
        s_prime = -4.0 * r * (1.0 - r**2)
        Ar = (c * s_prime)[..., None, None] * S
        if form.radial is not None:
            g, g_inv = gauge(r)
            Ar = Ar + g_inv @ form.radial(r, t) @ g
        return Ar

    return FullForm(replace(form.spec, coeffs=coeffs, tag=f"gauge({form.spec.tag})"), radial)


def radial_quadrature(mesh, substeps: int):
    """(r_mid, t_mid, dr, dt) of every radial edge, each (num_radial, substeps); dt is 0."""
    s = substeps
    out = r_mid, t_mid, dr, dt = tuple(np.empty((mesh.n_r, mesh.n_tv, s)) for _ in range(4))
    r0, r1 = mesh.r_nodes[:-1, None, None], mesh.r_nodes[1:, None, None]
    r_mid[...] = r0 + (r1 - r0) * ((np.arange(s) + 0.5) / s)
    t_mid[...] = mesh.t_nodes[: mesh.n_tv, None]
    dr[...] = (r1 - r0) / s
    dt[...] = 0.0
    return tuple(a.reshape(mesh.num_radial, s) for a in out)


def chord_dr(mesh, substeps: int) -> np.ndarray:
    """(num_angular, substeps) dr of each angular-edge substep: |z| at its end less at its start."""
    s = substeps
    e = np.exp(1j * mesh.t_nodes)
    z0 = mesh.r_nodes[:, None, None] * e[:-1, None]
    z1 = mesh.r_nodes[:, None, None] * e[1:, None]
    zz = z0 + (z1 - z0) * (np.arange(s + 1) / s)
    return (np.abs(zz[..., 1:]) - np.abs(zz[..., :-1])).reshape(mesh.num_angular, s)


def full_quadrature(mesh, substeps: int):
    """(r_mid, t_mid, dr, dt) of every edge, radial rows first: (num_edges, substeps) each."""
    r_mid, t_mid, dt = mesh.edge_quadrature(substeps)
    angular = (r_mid, t_mid, chord_dr(mesh, substeps), dt)
    return tuple(np.concatenate([a, b]) for a, b in zip(radial_quadrature(mesh, substeps), angular))


def full_generators(D: DiscreteConnection) -> np.ndarray:
    """(E, s, n, n) generators -A_theta dt of every edge of ``D``; the radial rows are +0.

    The angular rows come from one ``curvature._generators`` call, the
    evaluator the transport diagnostics run on the rim, so a unitary spec's
    values are skew-checked on every angular edge here.
    """
    g = curvature._generators(D.spec, D.mesh, D.substeps, 0, D.mesh.num_angular)
    return np.concatenate([np.zeros((D.mesh.num_radial,) + g.shape[1:], dtype=complex), g])


def full_logdet(D: DiscreteConnection) -> np.ndarray:
    """(E,) log det of every edge of ``D`` by edge id: +0 on the radial edges, then ``ring_logdet``."""
    return np.concatenate([np.zeros(D.mesh.num_radial, dtype=complex), D.ring_logdet])


def four_term_faces(mesh, x: np.ndarray) -> tuple:
    """Boundary terms (p, q, r, u) of every face from per-edge values ``x`` (E,), face p + q - r - u.

    The face sum over all four edges, radial ones included, on the
    structured grid: one row of n_t per face row, in row-major face order,
    the column after the last wrapping to column 0 on a closed rim.
    """
    rad = x[: mesh.num_radial].reshape(mesh.n_r, mesh.n_tv)
    ang = x[mesh.num_radial :].reshape(mesh.n_r + 1, mesh.n_t)
    inner, outer = ang[:-1], ang[1:]
    if mesh.wrap:
        rad = np.concatenate([rad, rad[:, :1]], axis=1)
    left, right = rad[:, :-1], rad[:, 1:]
    if mesh.orientation > 0:
        return left, outer, right, inner
    return inner, right, outer, left


def gather_face_sum(mesh, x: np.ndarray) -> np.ndarray:
    """Face sums of per-edge values ``x`` (E,): the four boundary edges of every face by id and sign."""
    ids, signs = mesh.face_edges()
    return (x[ids] * signs).sum(axis=1)


def reference_face_sum(mesh, logdet: np.ndarray) -> tuple:
    """(alpha, raw): principal angles of every face of the log dets ``logdet`` (E,), and raw.

    Each face gathers its four edges' ``logdet.imag`` (``gather_face_sum``),
    so radial edges enter; ``curvature._principal`` wraps the sum, and raw
    is the ``math.fsum`` of the angles over pi.
    """
    alpha = curvature._principal(gather_face_sum(mesh, logdet.imag))[0]
    return alpha, math.fsum(alpha.tolist()) / math.pi


def reference_connection(form, mesh, substeps: int = 1):
    """(D, G, logdet): ``form`` (a FullForm or a spec) integrated in full on every edge.

    G (E, s, n, n) is -(A_theta dt + A_r dr), from one evaluation at every
    edge's quadrature points; a unitary form's values are checked
    skew-Hermitian, so a NaN raises NonUnitaryConnection too.  ``logdet``
    (E,) is tr G summed over the substeps, radial edges included, for
    ``reference_face_sum``; D carries ``form.spec`` and the angular slice of
    ``logdet`` as ``ring_logdet``, which is all the index reads, so it
    leaves out a dr part.  The transports of the form are chained from G.
    """
    form = full_form(form)
    r_mid, t_mid, dr, dt = full_quadrature(mesh, substeps)
    r, t = r_mid.ravel(), t_mid.ravel()
    shape = r_mid.shape + (form.spec.n, form.spec.n)
    values = [np.asarray(form.spec.coeffs(r, t), dtype=complex).reshape(shape)]
    if form.radial is not None:
        values.append(np.asarray(form.radial(r, t), dtype=complex).reshape(shape))
    if form.spec.unitary:
        # np.max, not max(): a NaN defect must propagate to the guard
        check_skew(float(np.max([matcore.skew_defect(A) for A in values])), "connection values")
    G = np.multiply(values[0], dt[..., None, None])
    if form.radial is not None:
        G += values[1] * dr[..., None, None]
    np.negative(G, out=G)
    logdet = np.trace(G.sum(axis=1), axis1=-2, axis2=-1)
    return DiscreteConnection(mesh, form.spec, substeps, logdet[mesh.num_radial :]), G, logdet


def reference_ring_logdet(tau: np.ndarray, dt: np.ndarray) -> np.ndarray:
    """(E,) log dets of the traces ``tau`` (E, s) with steps ``dt`` (E, s).

    ``(-(tau * dt)).sum(axis=1)`` on the rows holding a nonzero entry (a
    NaN or inf counts, a -0 does not) and +0 on the others.
    """
    live = (tau.view(float) != 0).any(axis=1)
    out = np.zeros(len(tau), dtype=complex)
    out[live] = (-(tau[live] * dt[live])).sum(axis=1)
    return out


def reversed_loop(loop: FrameLoop) -> FrameLoop:
    """Orientation reversal of ``loop``; keeps sample 0 as the base point."""
    return FrameLoop(loop.n, np.roll(loop.samples[::-1], 1, axis=0))

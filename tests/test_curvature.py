import math
from dataclasses import replace

import numpy as np
import pytest
from fractions import Fraction

from maslovcw import _kernels, curvature, matcore
from maslovcw import mesh as mesh_module
from maslovcw.connections import (
    ConnectionSpec,
    angular_spec,
    build_annulus_collar_connection,
    build_collar_connection,
    builtin_connection,
    radial_gauge_transform,
)
from maslovcw.curvature import (
    chern_weil_index,
    complex_curvature_value,
    double_degree,
    edge_transports,
    face_angle_array,
    face_holonomy,
    norm_drift_demo,
    orthogonality_defect,
)
from maslovcw.errors import MaslovCWError, NonUnitaryConnection, Undersampled, Unrefined
from maslovcw.loops import BundlePairSpec, generate_loop, maslov_bundle_pair, random_frame_loop
from maslovcw.mesh import DOMAINS, Mesh2D


def collar_report(loop, n_r=24, quantum=Fraction(1), **collar_kw):
    spec = build_collar_connection(loop, **collar_kw)
    D = edge_transports(spec, Mesh2D("disc", n_r, len(loop)))
    return chern_weil_index(D, quantum, loop=loop)


class TestMesh:
    def test_counts(self):
        m = Mesh2D("disc", 4, 8)
        assert m.num_faces == 32
        assert m.num_radial == 32
        assert m.num_angular == 40
        ids, signs = m.face_edges()
        assert ids.shape == (32, 4) and signs.shape == (32, 4)

    def test_quarter_has_open_columns(self):
        m = Mesh2D("quarter_disc", 4, 8)
        assert not m.wrap
        assert m.n_tv == 9

    def test_reversed_flips_signs(self):
        m = Mesh2D("disc", 4, 8)
        ids, signs = m.face_edges()
        ids_r, signs_r = m.reversed().face_edges()
        assert np.array_equal(ids_r, ids[:, ::-1])
        assert np.array_equal(signs_r, -signs[:, ::-1])

    def test_annulus_needs_inner_radius(self):
        with pytest.raises(ValueError):
            Mesh2D("annulus", 8, 16)

    @pytest.mark.parametrize("substeps", [1, 2])
    @pytest.mark.parametrize("domain", DOMAINS)
    def test_quadrature_cached_per_shape(self, domain, substeps):
        m = Mesh2D(domain, 6, 12, 0.3 if domain == "annulus" else 0.0)
        cached = m.edge_quadrature(substeps)
        fresh = mesh_module._edge_quadrature.__wrapped__(
            m.domain, m.n_r, m.n_t, m.r_inner, substeps
        )
        for a, b in zip(cached, fresh):
            assert a.shape == (m.num_edges, substeps)
            assert a.tobytes() == b.tobytes()
            with pytest.raises(ValueError):
                a[0, 0] = 1.0
        again = Mesh2D(domain, 6, 12, m.r_inner).reversed().edge_quadrature(substeps)
        assert all(a is b for a, b in zip(again, cached))

    def test_quadrature_cache_is_bounded(self):
        size = mesh_module.QUADRATURE_CACHE_SIZE
        for n_r in range(2, size + 6):
            Mesh2D("disc", n_r, 4).edge_quadrature(1)
        info = mesh_module._edge_quadrature.cache_info()
        assert info.maxsize == size and info.currsize <= size


class TestEdgeTransports:
    def test_flat_gives_identities(self):
        D = edge_transports(builtin_connection("flat", n=2), Mesh2D("disc", 8, 16))
        assert np.allclose(D.transports, np.eye(2), atol=1e-14)
        assert np.allclose(D.edge_logdet, 0.0)

    def test_disc_example_angular_edge_closed_form(self):
        N = 64
        mesh = Mesh2D("disc", N, N)
        D = edge_transports(builtin_connection("example_2_7"), mesh)
        # angular edge at full radius: transport close to e^{i r dtheta}
        e = mesh.angular_id(N, 3)
        dth = 2 * np.pi / N
        assert abs(D.transports[e, 0, 0] - np.exp(1j * 1.0 * dth)) <= dth**3 + 1e-12

    def test_substep_richardson_order_two(self):
        # doubling substeps must cut the per-edge error by >= 4x
        mesh = Mesh2D("disc", 16, 16)
        spec = builtin_connection("example_2_7")
        e = mesh.angular_id(12, 5)
        vals = {}
        for s in (1, 2, 4, 64):
            vals[s] = edge_transports(spec, mesh, substeps=s).transports[e, 0, 0]
        e1 = abs(vals[1] - vals[64])
        e2 = abs(vals[2] - vals[64])
        e4 = abs(vals[4] - vals[64])
        assert e1 / e2 >= 3.9
        assert e2 / e4 >= 3.9

    def test_unitarity_drift_bound(self, rng):
        loop, _ = random_frame_loop(rng, 4, 256)
        spec = build_collar_connection(loop)
        D = edge_transports(spec, Mesh2D("disc", 16, 256), substeps=2)
        assert D.max_unitary_defect <= 1e-9

    def test_nonunitary_rejected_by_default(self):
        spec = builtin_connection("example_4_3_nonunitary")
        with pytest.raises(NonUnitaryConnection):
            edge_transports(spec, Mesh2D("disc", 16, 16))


def reference_diagnostics(D, loop):
    """Transports, drift and frame defect chained from the full G, edge by edge."""
    T = _kernels.transport_chain(D.G)
    drift = float(
        np.max(np.linalg.norm(np.swapaxes(T, -1, -2).conj() @ T - np.eye(D.n), axis=(-2, -1)))
    )
    N, n = len(loop), loop.n
    stride = N // D.mesh.n_t
    P = np.eye(n, dtype=complex)
    worst = 0.0
    for j, e in enumerate(D.mesh.boundary_angular_ids()):
        P = T[e] @ P
        M = (P @ loop.samples[0]).conj().T @ loop.samples[((j + 1) * stride) % N]
        sv = np.linalg.svd(np.real(M), compute_uv=False)
        d2 = float(np.linalg.norm(M) ** 2 + n - 2.0 * sv.sum())
        worst = max(worst, math.sqrt(max(d2, 0.0)))
    return T, drift, worst


class TestLazyTransports:
    def test_index_chains_only_rim_edges(self, rng, monkeypatch):
        loop, _ = random_frame_loop(rng, 3, 512)
        mesh = Mesh2D("disc", 24, 512)
        chained = []
        chain = _kernels.transport_chain

        def recording(gens):
            chained.append(gens.shape)
            return chain(gens)

        monkeypatch.setattr(_kernels, "transport_chain", recording)
        defect_calls = []
        defect = curvature.orthogonality_defect

        def counting(D, probe):
            defect_calls.append(probe)
            return defect(D, probe)

        monkeypatch.setattr(curvature, "orthogonality_defect", counting)
        D = edge_transports(build_collar_connection(loop), mesh)
        rep = chern_weil_index(D, loop=loop)
        # the index itself chains nothing and leaves the frame defect unread
        assert chained == [] and defect_calls == []
        first = rep.orthogonality_defect
        assert defect_calls == [loop]
        assert sum(shape[0] for shape in chained) <= mesh.n_t
        chained.clear()
        assert rep.orthogonality_defect == first
        assert chained == [] and len(defect_calls) == 1
        assert first == defect(D, loop)
        # reading the drift chains exactly the edges with a nonzero generator, once
        chained.clear()
        assert rep.unitarity_defect <= 1e-9
        live = np.count_nonzero(D.G.any(axis=(1, 2, 3)))
        # the collar (width 0.3) is nonzero on the rings with r > 0.7 only
        assert live == np.count_nonzero(mesh.r_nodes > 0.7) * mesh.n_t
        assert [shape[0] for shape in chained] == [live]
        chained.clear()
        assert rep.unitarity_defect <= 1e-9
        assert chained == []

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_full_chain_bitwise(self, rng, n):
        loop, _ = random_frame_loop(rng, n, 256)
        spec = build_collar_connection(loop)
        mesh = Mesh2D("disc", 16, 256)
        lazy = edge_transports(spec, mesh, substeps=2)
        rep = chern_weil_index(lazy, Fraction(1), loop=loop)
        T, drift, worst = reference_diagnostics(lazy, loop)
        assert rep.orthogonality_defect == worst
        assert np.array_equal(lazy.transports, T)
        assert lazy.max_unitary_defect == drift == rep.unitarity_defect
        # a stack built before the index gives the same report
        eager = edge_transports(spec, mesh, substeps=2)
        eager.transports
        rep_eager = chern_weil_index(eager, Fraction(1), loop=loop)
        assert rep_eager.raw == rep.raw
        assert rep_eager.orthogonality_defect == worst

    def test_conjugated_transports(self, rng):
        loop, _ = random_frame_loop(rng, 3, 128)
        D = edge_transports(build_collar_connection(loop), Mesh2D("disc", 8, 128))
        before = D.conjugated()
        assert np.array_equal(before.transports, D.transports.conj())
        assert np.array_equal(D.conjugated().transports, D.transports.conj())
        assert np.array_equal(before.conjugated().transports, D.transports)

    def test_nonunitary_rank_two_rejected_eagerly(self):
        def coeffs(r, t):
            z = np.zeros(r.shape + (2, 2), dtype=complex)
            return z, z + r[..., None, None]

        spec = ConnectionSpec(2, coeffs, tag="real_rank2", unitary=False)
        with pytest.raises(NonUnitaryConnection):
            edge_transports(spec, Mesh2D("disc", 8, 16), allow_non_unitary=True)


def zero_radial_twin(spec):
    """The same form declared with a dr part, returned as explicit zeros."""

    def coeffs(r, t):
        Ar, At = spec.coeffs(r, t)
        assert Ar is None
        return np.zeros(np.shape(r) + (spec.n, spec.n), dtype=complex), At

    return ConnectionSpec(spec.n, coeffs, tag=f"zero_dr({spec.tag})",
                          boundary_loop=spec.boundary_loop)


TWIN_MESHES = (
    Mesh2D("disc", 8, 64),
    Mesh2D("annulus", 6, 64, r_inner=0.4),
    Mesh2D("quarter_disc", 8, 16),
    Mesh2D("disc", 8, 64).reversed(),
)


def recording_coeffs(spec, sizes):
    """``spec`` with a coeffs that records how many points it is asked for."""
    base = spec.coeffs

    def coeffs(r, t):
        sizes.append(np.size(r))
        return base(r, t)

    return replace(spec, coeffs=coeffs)


class TestAbsentRadialPart:
    @pytest.mark.parametrize("substeps", [1, 2])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_none_matches_explicit_zero(self, rng, n, substeps):
        # the angular-only path against the full path of a twin declaring dr
        loop, _ = random_frame_loop(rng, n, 64)
        spec = build_collar_connection(loop)
        twin = zero_radial_twin(spec)
        assert not spec.radial and twin.radial
        S = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        S = S - S.conj().T
        pairs = [(spec, twin), (radial_gauge_transform(spec, S), radial_gauge_transform(twin, S))]
        for mesh in TWIN_MESHES:
            for a, b in pairs:
                Da = edge_transports(a, mesh, substeps)
                Db = edge_transports(b, mesh, substeps)
                assert np.array_equal(Da.edge_logdet, Db.edge_logdet)
                assert np.array_equal(face_angle_array(Da), face_angle_array(Db))
                assert np.array_equal(Da.transports, Db.transports)
                assert Da.max_unitary_defect == Db.max_unitary_defect
            D = edge_transports(spec, mesh, substeps)
            R = mesh.num_radial
            assert not np.any(D.G[:R]) and not np.any(D.edge_logdet[:R])
            assert np.array_equal(D.transports[:R], np.broadcast_to(np.eye(n), (R, n, n)))

    @pytest.mark.parametrize("substeps", [1, 2])
    def test_angular_spec_evaluated_on_angular_edges_only(self, rng, substeps):
        loop, _ = random_frame_loop(rng, 2, 64)
        mesh = Mesh2D("disc", 8, 64)
        angular, full = [], []
        spec = recording_coeffs(build_collar_connection(loop), angular)
        edge_transports(spec, mesh, substeps)
        assert angular == [mesh.num_angular * substeps]
        angular.clear()
        gauge = recording_coeffs(radial_gauge_transform(spec, np.diag([1j, -1j])), full)
        edge_transports(gauge, mesh, substeps)
        assert full == angular == [mesh.num_edges * substeps]

    def test_angular_spec_returning_radial_part_rejected(self):
        def coeffs(r, t):
            z = np.zeros(r.shape + (1, 1), dtype=complex)
            return z, z

        spec = ConnectionSpec(1, coeffs, tag="undeclared_dr", radial=False)
        with pytest.raises(MaslovCWError):
            edge_transports(spec, Mesh2D("disc", 4, 8))
        # a non-unitary tag does not let it through either
        with pytest.raises(MaslovCWError):
            edge_transports(replace(spec, unitary=False), Mesh2D("disc", 4, 8),
                            allow_non_unitary=True)

    def test_returned_radial_part_is_still_checked(self):
        def coeffs(r, t):
            Ar = np.ones(r.shape + (1, 1), dtype=complex)  # Hermitian, not skew
            return Ar, np.zeros(r.shape + (1, 1), dtype=complex)

        with pytest.raises(NonUnitaryConnection):
            edge_transports(ConnectionSpec(1, coeffs, tag="real_dr"), Mesh2D("disc", 4, 8))


def gather_face_sum(mesh, x):
    """Reference face sum: gather the four boundary edges of every face by id."""
    ids, signs = mesh.face_edges()
    return (x[ids] * signs).sum(axis=1)


FACE_MESHES = (
    Mesh2D("disc", 6, 16),
    Mesh2D("annulus", 5, 12, r_inner=0.3),
    Mesh2D("quarter_disc", 6, 8),
)


def drift_meshes_and_specs(rng, n):
    """A collar spec per domain plus the rank-n built-ins, each with its mesh."""
    loop, _ = random_frame_loop(rng, n, 64)
    inner, _ = random_frame_loop(rng, n, 64)
    yield build_collar_connection(loop), Mesh2D("disc", 8, 64)
    yield (build_annulus_collar_connection(loop, inner, r_inner=0.4, width=0.2),
           Mesh2D("annulus", 8, 64, r_inner=0.4))
    yield build_collar_connection(loop), Mesh2D("quarter_disc", 8, 16)
    yield builtin_connection("flat", n=n), Mesh2D("disc", 8, 16)
    if n == 1:
        yield builtin_connection("example_2_7"), Mesh2D("disc", 16, 16)


class TestTraceOnlyPath:
    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("mesh", FACE_MESHES, ids=lambda m: m.domain)
    def test_face_sums_match_gather(self, rng, mesh, reverse):
        mesh = mesh.reversed() if reverse else mesh
        D = edge_transports(builtin_connection("flat"), mesh)
        logdet = rng.normal(size=mesh.num_edges) + 1j * rng.uniform(-3, 3, mesh.num_edges)
        D = replace(D, edge_logdet=logdet)
        alpha = gather_face_sum(mesh, logdet.imag)
        assert face_angle_array(D).tobytes() == ((alpha + np.pi) % (2 * np.pi) - np.pi).tobytes()
        z = gather_face_sum(mesh, logdet)
        ref = z.real + 1j * ((z.imag + np.pi) % (2 * np.pi) - np.pi)
        assert curvature.complex_face_logsum(D).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("substeps", [1, 2, 3, 8, 9, 16])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_edge_logdet_is_trace_of_generators(self, rng, n, substeps):
        loop, _ = random_frame_loop(rng, n, 64)
        spec = build_collar_connection(loop)
        S = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        for sp in (spec, radial_gauge_transform(spec, S - S.conj().T)):
            D = edge_transports(sp, Mesh2D("disc", 6, 64), substeps)
            ref = np.trace(D.G.sum(axis=1), axis1=-2, axis2=-1)
            assert D.edge_logdet.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_drift_read_first_matches_full_chain(self, rng, n):
        for spec, mesh in drift_meshes_and_specs(rng, n):
            D = edge_transports(spec, mesh)
            drift = D.max_unitary_defect
            assert "transports" not in D.__dict__
            T = _kernels.transport_chain(D.G)
            assert drift == matcore.unitary_defect(T)

    def test_nan_generator_is_chained(self):
        D = edge_transports(builtin_connection("flat", n=2), Mesh2D("disc", 4, 8))
        D.G[-1, 0, 0, 0] = np.nan
        assert math.isnan(D.max_unitary_defect)

    def test_index_leaves_generators_unbuilt(self, rng):
        loop, _ = random_frame_loop(rng, 3, 128)
        D = edge_transports(build_collar_connection(loop), Mesh2D("disc", 8, 128))
        rep = chern_weil_index(D, loop=loop)
        assert rep.rounded is not None and rep.face_angles.size
        assert "G" not in D.__dict__ and "transports" not in D.__dict__

    def test_conjugated_and_reversed_keep_values(self, rng):
        loop, _ = random_frame_loop(rng, 2, 64)
        D = edge_transports(build_collar_connection(loop), Mesh2D("disc", 8, 64), 2)
        for other, T in ((D.conjugated(), D.transports.conj()),
                         (D.on_reversed_mesh(), D.transports)):
            assert other.A_theta is D.A_theta and other.A_r is D.A_r
            assert "G" not in other.__dict__
            assert np.array_equal(other.G, D.G)
            assert np.array_equal(other.transports, T)


class TestFaceHolonomy:
    def test_flat_identity(self):
        D = edge_transports(builtin_connection("flat", n=2), Mesh2D("disc", 8, 16))
        assert np.allclose(face_holonomy(D, 17), np.eye(2), atol=1e-13)

    def test_disc_example_face_determinant(self):
        N = 32
        mesh = Mesh2D("disc", N, N)
        D = edge_transports(builtin_connection("example_2_7"), mesh)
        f = 5 * N + 7  # interior face, rings r in [5/N, 6/N]
        hol = face_holonomy(D, f)
        expected = np.exp(1j * (1.0 / N) * (2 * np.pi / N))
        assert abs(np.linalg.det(hol) - expected) <= (2 * np.pi / N) ** 3
        # matches the accumulated per-edge phases
        alpha = face_angle_array(D)
        assert abs(np.angle(np.linalg.det(hol)) - alpha[f]) <= 1e-12

    def test_chains_only_its_edges(self, rng, monkeypatch):
        loop, _ = random_frame_loop(rng, 3, 64)
        mesh = Mesh2D("disc", 8, 64)
        D = edge_transports(build_collar_connection(loop), mesh, 2)
        chained = []
        chain = _kernels.transport_chain

        def recording(gens):
            chained.append(gens.shape[0])
            return chain(gens)

        monkeypatch.setattr(_kernels, "transport_chain", recording)
        faces = (0, 7 * 64 + 5, mesh.num_faces - 1)
        hols = [face_holonomy(D, f) for f in faces]
        assert chained == [4, 4, 4]
        ids, signs = mesh.face_edges()
        for f, H in zip(faces, hols):
            ref = np.eye(3, dtype=complex)
            for e, sg in zip(ids[f], signs[f]):
                T = D.transports[e]
                ref = (T if sg > 0 else T.conj().T) @ ref
            assert H.tobytes() == ref.tobytes()

    def test_products_stay_unitary(self, rng):
        loop, _ = random_frame_loop(rng, 3, 256)
        D = edge_transports(build_collar_connection(loop), Mesh2D("disc", 16, 256))
        for f in (0, 100, 1000):
            H = face_holonomy(D, f)
            assert np.linalg.norm(H.conj().T @ H - np.eye(3)) <= 1e-9


class TestChernWeilIndex:
    def test_disc_example_128(self):
        D = edge_transports(builtin_connection("example_2_7"), Mesh2D("disc", 128, 128))
        rep = chern_weil_index(D, Fraction(1))
        assert abs(rep.raw - 2.0) <= 1e-2
        assert rep.rounded == 2

    def test_flat_exact_zero(self):
        D = edge_transports(builtin_connection("flat", n=2), Mesh2D("disc", 16, 32))
        rep = chern_weil_index(D, Fraction(1))
        assert rep.raw == 0.0
        assert rep.rounded == 0

    @pytest.mark.parametrize("k", range(-3, 4))
    def test_collar_power_loops(self, k):
        loop = generate_loop("power_k", 256, k=k)
        rep = collar_report(loop)
        assert rep.rounded == k
        assert rep.residual < 1e-2

    def test_unrefined_guard(self):
        def coeffs(r, t):
            z = np.zeros(r.shape + (1, 1), dtype=complex)
            return z, (-80j * r)[..., None, None].astype(complex)

        spec = ConnectionSpec(1, coeffs, tag="steep")
        with pytest.raises(Unrefined):
            chern_weil_index(edge_transports(spec, Mesh2D("disc", 16, 16)), Fraction(1))

    def test_nan_form_raises_library_error(self):
        spec = angular_spec(
            1, lambda r, t: np.where(r > 0.9, np.nan, -1j * r)[..., None, None], "nan_rim"
        )
        with pytest.raises(NonUnitaryConnection):
            chern_weil_index(edge_transports(spec, Mesh2D("disc", 16, 16)), Fraction(1))

    def test_nan_face_angle_trips_the_guard(self):
        D = edge_transports(builtin_connection("example_2_7"), Mesh2D("disc", 16, 16))
        logdet = D.edge_logdet.copy()
        logdet[-1] = complex(0.0, np.nan)
        with pytest.raises(Unrefined):
            chern_weil_index(replace(D, edge_logdet=logdet), Fraction(1))

    def test_determinism_bitwise(self, rng):
        loop, _ = random_frame_loop(rng, 2, 256)
        a = collar_report(loop)
        b = collar_report(loop)
        assert a.raw == b.raw
        assert np.array_equal(a.face_angles, b.face_angles)


class TestOrthogonalityDefect:
    def test_collar_self_consistency(self):
        loop = generate_loop("circle_tangent", 256)
        rep = collar_report(loop)
        assert rep.orthogonality_defect is not None
        assert rep.orthogonality_defect <= 1e-6

    def test_misaligned_loop_rejected_by_the_index(self):
        loop = generate_loop("circle_tangent", 500)
        mesh = Mesh2D("disc", 8, 128)
        D = edge_transports(builtin_connection("flat"), mesh)
        with pytest.raises(Undersampled):
            chern_weil_index(D, loop=loop)
        # the spec's own boundary loop is the probe when none is passed
        with pytest.raises(Undersampled):
            chern_weil_index(edge_transports(build_collar_connection(loop), mesh))

    def test_flat_with_constant_loop(self):
        loop = generate_loop("constant", 128, n=2)
        D = edge_transports(builtin_connection("flat", n=2), Mesh2D("disc", 8, 128))
        assert orthogonality_defect(D, loop) <= 1e-12

    def test_flat_is_not_orthogonal_for_twisted_loop(self):
        loop = generate_loop("circle_tangent", 128)
        D = edge_transports(builtin_connection("flat", n=1), Mesh2D("disc", 8, 128))
        assert orthogonality_defect(D, loop) >= 0.5


class TestConjugationAndOrientation:
    def test_conjugation_negates_exactly(self, rng):
        loop, _ = random_frame_loop(rng, 2, 256)
        D = edge_transports(build_collar_connection(loop), Mesh2D("disc", 16, 256))
        a = face_angle_array(D)
        a_conj = face_angle_array(D.conjugated())
        assert np.max(np.abs(a + a_conj)) <= 1e-10

    def test_reversed_mesh_negates_exactly(self, rng):
        loop, _ = random_frame_loop(rng, 2, 256)
        D = edge_transports(build_collar_connection(loop), Mesh2D("disc", 16, 256))
        a = face_angle_array(D)
        a_rev = face_angle_array(D.on_reversed_mesh())
        assert np.max(np.abs(a - (-a_rev))) <= 1e-10

    def test_double_copy_totals_twice_the_index(self, rng):
        # conjugated data on the reversed copy carries the same raw value, so
        # the two halves of the double add up to 2 mu
        loop, idx = random_frame_loop(rng, 2, 256)
        D = edge_transports(build_collar_connection(loop), Mesh2D("disc", 16, 256))
        raw = chern_weil_index(D, Fraction(1)).raw
        mirrored = D.conjugated().on_reversed_mesh()
        raw_mirror = chern_weil_index(mirrored, Fraction(1)).raw
        assert abs(raw - raw_mirror) <= 1e-10
        assert round((raw + raw_mirror) / 2) == idx


class TestGaugeInvariance:
    def test_interior_gauge_leaves_index(self, rng):
        loop, idx = random_frame_loop(rng, 2, 256)
        spec = build_collar_connection(loop)
        S = np.array([[0.9j, 0.4 + 0.2j], [-0.4 + 0.2j, -0.3j]])
        gauged = radial_gauge_transform(spec, S, amplitude=0.8)
        mesh = Mesh2D("disc", 32, 256)
        rep0 = chern_weil_index(edge_transports(spec, mesh, substeps=2), Fraction(1))
        rep1 = chern_weil_index(edge_transports(gauged, mesh, substeps=2), Fraction(1))
        assert abs(rep0.raw - rep1.raw) <= 2e-2
        assert rep0.rounded == rep1.rounded == idx


class TestDoubleDegree:
    def test_disc_example(self):
        pair = BundlePairSpec(1, (generate_loop("circle_tangent", 128),))
        assert double_degree(pair) == 2

    def test_constant(self):
        pair = BundlePairSpec(3, (generate_loop("constant", 64, n=3),))
        assert double_degree(pair) == 0

    def test_matches_winding_route(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 5))
            loop, _ = random_frame_loop(rng, n, 256)
            pair = BundlePairSpec(n, (loop,))
            assert double_degree(pair) == maslov_bundle_pair(pair)


class TestNormDrift:
    def test_nonunitary_drift_is_two_i(self):
        re, im = norm_drift_demo(128)
        assert abs(re) <= 1e-2
        assert abs(im - 2.0) <= 1e-2

    def test_unitary_example_through_complex_pipeline(self):
        D = edge_transports(builtin_connection("example_2_7"), Mesh2D("disc", 128, 128))
        val = complex_curvature_value(D)
        assert abs(val.real - 2.0) <= 1e-2
        assert abs(val.imag) <= 1e-2

    def test_flat_is_zero(self):
        D = edge_transports(builtin_connection("flat"), Mesh2D("disc", 32, 32))
        val = complex_curvature_value(D)
        assert val == 0.0


class TestAnnulus:
    def test_two_rim_collar_index_adds(self):
        outer = generate_loop("circle_tangent", 256)   # index 2
        inner = generate_loop("power_k", 256, k=-3)    # index -3 as oriented
        spec = build_annulus_collar_connection(outer, inner, r_inner=0.4, width=0.2)
        mesh = Mesh2D("annulus", 24, 256, r_inner=0.4)
        rep = chern_weil_index(edge_transports(spec, mesh), Fraction(1))
        pair = BundlePairSpec(1, (outer, inner), euler_characteristic=0)
        assert rep.rounded == maslov_bundle_pair(pair) == -1


class TestConvergence:
    def test_order_at_least_1_8(self):
        errs = []
        for N in (32, 64, 128):
            D = edge_transports(builtin_connection("example_2_7"), Mesh2D("disc", N, N))
            rep = chern_weil_index(D, Fraction(1))
            errs.append(abs(rep.raw - 2.0))
            assert rep.unitarity_defect <= 1e-9
        assert np.log2(errs[0] / errs[1]) >= 1.8
        assert np.log2(errs[1] / errs[2]) >= 1.8

import math
from functools import lru_cache
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings
from hypothesis import strategies as st

from maslovcw import _kernels, connections, curvature, matcore, orbifold
from maslovcw import mesh as mesh_module
from maslovcw.connections import (
    ConnectionSpec,
    angular_spec,
    build_arc_collar_connection,
    build_collar_connection,
    builtin_connection,
    radial_gauge_transform,
)
from maslovcw.curvature import (
    chern_weil_index,
    complex_curvature_value,
    double_degree,
    edge_transports,
    index_refining,
    orthogonality_defect,
    transport_defects,
)
from maslovcw.errors import (
    InvalidParameter, MaslovCWError, NonUnitaryConnection, Undersampled, Unrefined,
)
from maslovcw.loops import (
    BundlePairSpec, generate_loop, maslov_bundle_pair, maslov_loop, random_frame_loop,
)
from maslovcw.mesh import DOMAINS, Mesh2D
from maslovcw.orbifold import ConePoint, OrbifoldDiscSpec, invariant_connection
from maslovcw.tolerances import TOL


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

    @pytest.mark.parametrize("build", [
        lambda: Mesh2D("disc", 1, 8),
        lambda: Mesh2D("disc", 4, 3),
        lambda: Mesh2D("disc", 4, 8, orientation=0),
        lambda: Mesh2D("disc", 4, 8).edge_quadrature(0),
    ], ids=["n_r", "n_t", "orientation", "substeps"])
    def test_bad_parameters_raise_library_error(self, build):
        # still a ValueError, so the CLI exit code does not change
        with pytest.raises(InvalidParameter) as err:
            build()
        assert isinstance(err.value, MaslovCWError) and isinstance(err.value, ValueError)

    @pytest.mark.parametrize("substeps", [1, 2])
    @pytest.mark.parametrize("domain", DOMAINS)
    def test_quadrature_cached_per_shape(self, domain, substeps):
        m = Mesh2D(domain, 6, 12)
        cached = m.edge_quadrature(substeps)
        fresh = mesh_module._edge_quadrature.__wrapped__(m.domain, m.n_r, m.n_t, substeps)
        for a, b in zip(cached, fresh):
            assert a.shape == (m.num_edges, substeps)
            assert a.tobytes() == b.tobytes()
            with pytest.raises(ValueError):
                a[0, 0] = 1.0
        again = Mesh2D(domain, 6, 12).reversed().edge_quadrature(substeps)
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
        assert np.allclose(_kernels.transport_chain(D.G), np.eye(2), atol=1e-14)
        assert np.allclose(D.edge_logdet, 0.0)

    def test_disc_example_angular_edge_closed_form(self):
        N = 64
        mesh = Mesh2D("disc", N, N)
        D = edge_transports(builtin_connection("example_2_7"), mesh)
        # angular edge at full radius: transport close to e^{i r dtheta}
        e = mesh.angular_id(N, 3)
        dth = 2 * np.pi / N
        T = _kernels.transport_chain(D.G)
        assert abs(T[e, 0, 0] - np.exp(1j * 1.0 * dth)) <= dth**3 + 1e-12

    def test_substep_richardson_order_two(self):
        # doubling substeps must cut the per-edge error by >= 4x
        mesh = Mesh2D("disc", 16, 16)
        spec = builtin_connection("example_2_7")
        e = mesh.angular_id(12, 5)
        vals = {}
        for s in (1, 2, 4, 64):
            vals[s] = _kernels.transport_chain(edge_transports(spec, mesh, substeps=s).G)[e, 0, 0]
        e1 = abs(vals[1] - vals[64])
        e2 = abs(vals[2] - vals[64])
        e4 = abs(vals[4] - vals[64])
        assert e1 / e2 >= 3.9
        assert e2 / e4 >= 3.9

    def test_unitarity_drift_bound(self, rng):
        loop, _ = random_frame_loop(rng, 4, 256)
        spec = build_collar_connection(loop)
        D = edge_transports(spec, Mesh2D("disc", 16, 256), substeps=2)
        assert transport_defects(D)[0] <= 1e-9

    def test_nonunitary_rejected_by_default(self):
        spec = builtin_connection("example_4_3_nonunitary")
        with pytest.raises(NonUnitaryConnection):
            edge_transports(spec, Mesh2D("disc", 16, 16))


def reference_diagnostics(D, loop):
    """Transports, drift and frame defect chained from the full G, edge by edge.

    The frame defect is None when ``loop`` is.
    """
    T = _kernels.transport_chain(D.G)
    drift = float(
        np.max(np.linalg.norm(np.swapaxes(T, -1, -2).conj() @ T - np.eye(D.n), axis=(-2, -1)))
    )
    if loop is None:
        return T, drift, None
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


def report_cases(rng):
    """(spec, mesh, probe) for a collar, flat with a probe, and a built-in without one."""
    loop, _ = random_frame_loop(rng, 3, 256)
    return (
        # a collar: the rim edges are among the live ones
        (build_collar_connection(loop), Mesh2D("disc", 16, 256), loop),
        # flat with a probe: no live edge, so only the n_t rim edges
        (builtin_connection("flat", n=3), Mesh2D("disc", 8, 128),
         generate_loop("constant", N=128, n=3)),
        # a built-in with no probe loop: the live edges only
        (builtin_connection("example_2_7"), Mesh2D("disc", 16, 16), None),
    )


def recording_chain(monkeypatch):
    """Patch transport_chain to record the row count of each call; return the record."""
    chained = []
    chain = _kernels.transport_chain

    def recording(gens):
        chained.append(gens.shape[0])
        return chain(gens)

    monkeypatch.setattr(_kernels, "transport_chain", recording)
    return chained


def assert_report_chains_once(spec, mesh, probe, first, chained):
    """The index chains nothing; reading ``first`` chains live and rim once, the other read none."""
    chained.clear()
    D = edge_transports(spec, mesh)
    rep = chern_weil_index(D, loop=probe)
    assert chained == []
    getattr(rep, first)
    rows = D.G.any(axis=(1, 2, 3))
    live = np.count_nonzero(rows)
    if probe is not None:
        # the rim edges are all live, or none is
        rim = mesh.boundary_angular_ids()
        assert rows[rim].all() == (live > 0)
        rows[rim] = True
    assert chained == [np.count_nonzero(rows)]
    values = (rep.unitarity_defect, rep.orthogonality_defect)
    assert len(chained) == 1
    _, drift, worst = reference_diagnostics(D, probe)
    assert values == (drift, worst)
    assert (worst is None) == (probe is None)
    return D


STORE_MESH = Mesh2D("disc", 4, 64)


@lru_cache(maxsize=None)
def store_spec(n):
    loop, _ = random_frame_loop(np.random.default_rng(n), n, 64)
    return build_collar_connection(loop)


class TestLazyTransports:
    def test_index_chains_only_rim_edges(self, rng, monkeypatch):
        # the index reads no transport; the frame defect read first chains
        # the live and rim edges in one call, and the drift then chains none
        chained = recording_chain(monkeypatch)
        for spec, mesh, probe in report_cases(rng):
            D = assert_report_chains_once(spec, mesh, probe, "orthogonality_defect", chained)
            if not D.G.any():
                # with no live edge, the report chains the n_t rim edges only
                assert chained[0] == mesh.n_t

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 3), reads=st.lists(
        st.one_of(
            # distinct ids in random order, or a run of consecutive ids
            st.lists(st.integers(0, STORE_MESH.num_edges - 1), min_size=1, max_size=12, unique=True),
            st.tuples(st.integers(0, STORE_MESH.num_edges - 1), st.integers(1, 80)).map(
                lambda t: list(range(t[0], min(t[0] + t[1], STORE_MESH.num_edges)))),
        ), min_size=1, max_size=6))
    def test_store_reads_match_chain_and_chain_once(self, n, reads):
        # nothing is stored: each read chains its own ids once, in one call
        D = edge_transports(store_spec(n), STORE_MESH)
        chain = _kernels.transport_chain
        chained = []

        def recording(gens):
            chained.append(gens.shape[0])
            return chain(gens)

        with mock.patch.object(_kernels, "transport_chain", recording):
            for ids in reads:
                ids = np.array(ids)
                chained.clear()
                T = D.transports_of(ids)
                assert chained == [len(ids)]
                assert T.tobytes() == chain(D.G[ids]).tobytes()
            # the drift chains the live edges in one call, whatever was read above
            chained.clear()
            drift, frame = transport_defects(D)
        live = np.count_nonzero(D.G.any(axis=(1, 2, 3)))
        assert chained == ([live] if live else [])
        assert frame is None and drift == reference_diagnostics(D, None)[1]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_full_chain_bitwise(self, rng, n):
        loop, _ = random_frame_loop(rng, n, 256)
        spec = build_collar_connection(loop)
        mesh = Mesh2D("disc", 16, 256)
        lazy = edge_transports(spec, mesh, substeps=2)
        rep = chern_weil_index(lazy, Fraction(1), loop=loop)
        T, drift, worst = reference_diagnostics(lazy, loop)
        assert rep.orthogonality_defect == worst == orthogonality_defect(lazy, loop)
        assert np.array_equal(_kernels.transport_chain(lazy.G), T)
        assert rep.unitarity_defect == drift
        # generators built before the index give the same report
        eager = edge_transports(spec, mesh, substeps=2)
        eager.G
        rep_eager = chern_weil_index(eager, Fraction(1), loop=loop)
        assert rep_eager.raw == rep.raw
        assert rep_eager.orthogonality_defect == worst

    def test_nonunitary_rank_two_rejected_eagerly(self):
        def coeffs(r, t):
            z = np.zeros(r.shape + (2, 2), dtype=complex)
            return z, z + r[..., None, None]

        spec = ConnectionSpec(2, coeffs, tag="real_rank2", unitary=False)
        with pytest.raises(NonUnitaryConnection):
            edge_transports(spec, Mesh2D("disc", 8, 16), allow_non_unitary=True)


def zero_radial_twin(spec):
    """The same form declared with a dr part, returned as explicit zeros.

    The twin has no trace evaluator, so it is evaluated in full on every
    edge; it reads the full values of ``spec`` through ``coeffs``.
    """

    def coeffs(r, t):
        Ar, At = spec.coeffs(r, t)
        assert Ar is None
        return np.zeros(np.shape(r) + (spec.n, spec.n), dtype=complex), At

    return ConnectionSpec(spec.n, coeffs, tag=f"zero_dr({spec.tag})",
                          boundary_loop=spec.boundary_loop)


TWIN_MESHES = (
    Mesh2D("disc", 8, 64),
    Mesh2D("quarter_disc", 8, 16),
    Mesh2D("disc", 8, 64).reversed(),
)


def recording_coeffs(spec, sizes):
    """``spec`` whose evaluators record (evaluator, number of points) per call."""

    def recording(name, fn):
        def call(r, t):
            sizes.append((name, np.size(r)))
            return fn(r, t)

        return call

    trace = None if spec.trace is None else recording("trace", spec.trace)
    return replace(spec, coeffs=recording("coeffs", spec.coeffs), trace=trace)


class TestAbsentRadialPart:
    @pytest.mark.parametrize("substeps", [1, 2])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_none_matches_explicit_zero(self, rng, n, substeps):
        # the angular-only trace path, and the full path of the same form
        # with A_r None, against a twin returning explicit zeros
        loop, _ = random_frame_loop(rng, n, 64)
        spec = build_collar_connection(loop)
        twin = zero_radial_twin(spec)
        assert spec.trace is not None and twin.trace is None
        S = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        S = S - S.conj().T
        # the trace path meets the twin's trace sums up to rounding only
        pairs = [(spec, twin), (replace(spec, trace=None), twin),
                 (radial_gauge_transform(spec, S), radial_gauge_transform(twin, S))]
        for mesh in TWIN_MESHES:
            for a, b in pairs:
                Da = edge_transports(a, mesh, substeps)
                Db = edge_transports(b, mesh, substeps)
                if a.trace is None:
                    assert np.array_equal(Da.edge_logdet, Db.edge_logdet)
                    fa, fb = curvature._face_angles(Da)[0], curvature._face_angles(Db)[0]
                    assert np.array_equal(fa, fb)
                else:
                    assert np.abs(Da.edge_logdet - Db.edge_logdet).max() <= 1e-12
                    fa, fb = curvature._face_angles(Da)[0], curvature._face_angles(Db)[0]
                    assert np.abs(fa - fb).max() <= 1e-12
                assert np.array_equal(_kernels.transport_chain(Da.G), _kernels.transport_chain(Db.G))
                assert transport_defects(Da) == transport_defects(Db)
            D = edge_transports(spec, mesh, substeps)
            R = mesh.num_radial
            assert not np.any(D.G[:R]) and not np.any(D.edge_logdet[:R])
            T = _kernels.transport_chain(D.G)
            assert np.array_equal(T[:R], np.broadcast_to(np.eye(n), (R, n, n)))

    @pytest.mark.parametrize("substeps", [1, 2])
    def test_angular_spec_evaluated_on_angular_edges_only(self, rng, substeps):
        loop, _ = random_frame_loop(rng, 2, 64)
        mesh = Mesh2D("disc", 8, 64)
        points = mesh.num_angular * substeps
        angular, full = [], []
        spec = recording_coeffs(build_collar_connection(loop), angular)
        D = edge_transports(spec, mesh, substeps)
        # the index path evaluates the trace only; G evaluates the full values once
        assert angular == [("trace", points)]
        D.G
        transport_defects(D)
        assert angular == [("trace", points), ("coeffs", points)]
        angular.clear()
        gauge = recording_coeffs(radial_gauge_transform(spec, np.diag([1j, -1j])), full)
        D = edge_transports(gauge, mesh, substeps)
        D.G
        assert gauge.trace is None
        assert full == [("coeffs", mesh.num_edges * substeps)]
        assert angular == [("coeffs", mesh.num_edges * substeps)]

    def test_angular_spec_returning_radial_part_rejected(self):
        # a trace evaluator declares no dr part; the index path reads the
        # trace only, and the first read of G rejects the returned A_r
        def coeffs(r, t):
            z = np.zeros(r.shape + (1, 1), dtype=complex)
            return z, z

        spec = ConnectionSpec(1, coeffs, tag="undeclared_dr",
                              trace=lambda r, t: np.zeros(r.shape, dtype=complex))
        # a non-unitary tag does not let it through either
        for sp in (spec, replace(spec, unitary=False)):
            D = edge_transports(sp, Mesh2D("disc", 4, 8), allow_non_unitary=True)
            with pytest.raises(MaslovCWError):
                D.G

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
    Mesh2D("quarter_disc", 6, 8),
)


def drift_meshes_and_specs(rng, n):
    """A collar spec per domain plus the rank-n built-ins, each with its mesh."""
    loop, _ = random_frame_loop(rng, n, 64)
    yield build_collar_connection(loop), Mesh2D("disc", 8, 64)
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
        wrapped = (alpha + np.pi) % (2 * np.pi) - np.pi
        assert curvature._face_angles(D)[0].tobytes() == wrapped.tobytes()
        z = gather_face_sum(mesh, logdet)
        ref = z.real + 1j * ((z.imag + np.pi) % (2 * np.pi) - np.pi)
        assert curvature.complex_face_logsum(D).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("substeps", [1, 2, 3, 8, 9, 16])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_edge_logdet_is_trace_of_generators(self, rng, n, substeps):
        # a full-path spec sums the trace of its generators; a trace spec
        # sums -tau dt, which meets that trace up to rounding
        loop, _ = random_frame_loop(rng, n, 64)
        spec = build_collar_connection(loop)
        S = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        for sp in (spec, radial_gauge_transform(spec, S - S.conj().T)):
            D = edge_transports(sp, Mesh2D("disc", 6, 64), substeps)
            ref = np.trace(D.G.sum(axis=1), axis1=-2, axis2=-1)
            if sp.trace is None:
                assert D.edge_logdet.tobytes() == ref.tobytes()
            else:
                assert D.edge_logdet.tobytes() == trace_logdet(D)[0].tobytes()
                assert np.abs(D.edge_logdet - ref).max() <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_drift_read_first_matches_full_chain(self, rng, n):
        chain = _kernels.transport_chain
        chained = []

        def recording(gens):
            chained.append(gens.copy())
            return chain(gens)

        for spec, mesh in drift_meshes_and_specs(rng, n):
            D = edge_transports(spec, mesh)
            chained.clear()
            with mock.patch.object(_kernels, "transport_chain", recording):
                drift, frame = transport_defects(D)
            assert frame is None
            # only the edges with a nonzero generator were chained, in one call
            live = D.G.any(axis=(1, 2, 3))
            if live.any():
                assert len(chained) == 1 and chained[0].tobytes() == D.G[live].tobytes()
            else:
                assert chained == [] and drift == 0.0
            assert drift == matcore.unitary_defect(chain(D.G))

    def test_nan_generator_is_chained(self):
        D = edge_transports(builtin_connection("flat", n=2), Mesh2D("disc", 4, 8))
        rep = chern_weil_index(D, loop=generate_loop("constant", N=8, n=2))
        D.G[0, 0, 0, 0] = np.nan
        assert math.isnan(rep.unitarity_defect)
        assert rep.orthogonality_defect <= 1e-12

    def test_index_leaves_generators_unbuilt(self, rng):
        loop, _ = random_frame_loop(rng, 3, 128)
        D = edge_transports(build_collar_connection(loop), Mesh2D("disc", 8, 128))
        rep = chern_weil_index(D, loop=loop)
        assert rep.rounded is not None and rep.face_angles.size
        assert "G" not in D.__dict__ and "_transport_defects" not in rep.__dict__

    def test_index_path_reads_no_frame_form(self, rng, monkeypatch):
        from maslovcw import loops

        guards, aligns, forms = [], [], []

        def counting(fn, calls):
            def call(x):
                calls.append(len(x))
                return fn(x)

            return call

        monkeypatch.setattr(loops, "alignment_guard", counting(loops.alignment_guard, guards))
        monkeypatch.setattr(loops, "aligned_frames", counting(loops.aligned_frames, aligns))
        form = counting(connections.loop_boundary_form, forms)
        monkeypatch.setattr(connections, "loop_boundary_form", form)
        monkeypatch.setattr(orbifold, "loop_boundary_form", form)
        monkeypatch.setattr(connections, "open_path_form",
                            counting(connections.open_path_form, forms))
        loop, _ = random_frame_loop(rng, 3, 64)
        disc = Mesh2D("disc", 8, 64)
        cases = [
            (build_collar_connection(loop), disc),
            (build_arc_collar_connection(loop.samples[:33], t_span=0.5 * np.pi),
             Mesh2D("quarter_disc", 8, 16)),
            (invariant_connection(OrbifoldDiscSpec(3, ConePoint(3, (0, 1, 2)), loop)), disc),
        ]
        # the builds ran the alignment guards, once per loop, and aligned nothing
        assert guards == [64] and aligns == []
        for spec, mesh in cases:
            calls, built = [], len(forms)
            D = edge_transports(recording_coeffs(spec, calls), mesh)
            assert chern_weil_index(D).rounded is not None
            assert [name for name, _ in calls] == ["trace"] and len(forms) == built
            # G builds the forms from the frames, aligned on the loop's first read only
            D.G
            edge_transports(spec, mesh).G
            assert [name for name, _ in calls] == ["trace", "coeffs"] and len(forms) > built
        # the first G read of each loop aligned it, once
        assert guards == [64] and aligns == [64]
        assert forms == [64, 33, 64]

    def test_conjugated_and_reversed_keep_values(self, rng):
        loop, _ = random_frame_loop(rng, 2, 64)
        spec = build_collar_connection(loop)
        S = np.array([[1j, 0.5], [-0.5, -1j]])
        for sp in (spec, radial_gauge_transform(spec, S)):
            D = edge_transports(sp, Mesh2D("disc", 8, 64), 2)
            # a trace-path connection builds G on its first read, any other at once
            assert ("G" in D.__dict__) == (sp.trace is None)
            early = replace(D, edge_logdet=D.edge_logdet.conj())
            assert D.G is D.G
            for other in (replace(D, edge_logdet=D.edge_logdet.conj()),
                          replace(D, mesh=D.mesh.reversed()), early):
                assert "G" not in other.__dict__
                assert other.G.tobytes() == D.G.tobytes()
                chain = _kernels.transport_chain
                assert chain(other.G).tobytes() == chain(D.G).tobytes()


def trace_logdet(D):
    """edge_logdet of a trace spec by its formula: -sum over substeps of tau dt."""
    skip = D.mesh.num_radial
    r_mid, t_mid, _, dt = (a[skip:] for a in D.mesh.edge_quadrature(D.substeps))
    tau = D.spec.trace(r_mid.ravel(), t_mid.ravel()).reshape(r_mid.shape)
    logdet = np.zeros(D.mesh.num_edges, dtype=complex)
    logdet[skip:] = (-(tau * dt)).sum(axis=1)
    return logdet, tau


def full_array_reference(D):
    """Skew defect, edge_logdet and G by the formulas over every evaluated row.

    The full values are evaluated here from ``coeffs``, not read from ``D``,
    and returned too: [A_theta], or [A_r, A_theta] when the spec returns A_r.
    A spec with a trace evaluator is evaluated on the angular edges only.
    """
    skip = 0 if D.spec.trace is None else D.mesh.num_radial
    r_mid, t_mid, dr, dt = (a[skip:] for a in D.mesh.edge_quadrature(D.substeps))
    shape = r_mid.shape + (D.n, D.n)
    A_r, A_theta = D.spec.coeffs(r_mid.ravel(), t_mid.ravel())
    A_theta = np.asarray(A_theta, dtype=complex).reshape(shape)
    if A_r is not None:
        A_r = np.asarray(A_r, dtype=complex).reshape(shape)
    values = [A_theta] if A_r is None else [A_r, A_theta]
    skew = float(np.max([np.max(np.abs(A + A.conj().transpose(0, 1, 3, 2))) for A in values]))
    diag = np.diagonal(A_theta, axis1=-2, axis2=-1) * dt[:, :, None]
    if A_r is not None:
        diag += np.diagonal(A_r, axis1=-2, axis2=-1) * dr[:, :, None]
    np.negative(diag, out=diag)
    logdet = np.zeros(D.mesh.num_edges, dtype=complex)
    logdet[skip:] = diag.sum(axis=1).sum(axis=-1)
    G = np.zeros((D.mesh.num_edges,) + A_theta.shape[1:], dtype=complex)
    g = G[skip:]
    np.multiply(A_theta, dt[:, :, None, None], out=g)
    if A_r is not None:
        g += A_r * dr[:, :, None, None]
    np.negative(g, out=g)
    return skew, logdet, G, values


def live_range_specs(rng, n):
    """Collar, arc and orbifold specs with their meshes, plus a gauge transform."""
    loop, _ = random_frame_loop(rng, n, 64)
    collar = build_collar_connection(loop)
    yield collar, Mesh2D("disc", 12, 64)
    yield (build_arc_collar_connection(loop.samples[:33], t_span=0.5 * np.pi),
           Mesh2D("quarter_disc", 12, 16))
    weights = tuple(int(w) for w in rng.integers(0, 3, n))
    yield invariant_connection(OrbifoldDiscSpec(n, ConePoint(3, weights), loop)), Mesh2D("disc", 12, 64)
    S = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    yield radial_gauge_transform(collar, S - S.conj().T), Mesh2D("disc", 12, 64)


def assert_tight(live, stacks):
    """Every row outside ``live`` is all zero in every stack, and both end rows are not."""
    rows = np.max([np.abs(A).reshape(len(A), -1).max(axis=1) for A in stacks], axis=0)
    lo, hi = live.start, live.stop
    assert not rows[:lo].any() and not rows[hi:].any()
    assert rows[lo] and rows[hi - 1]


class TestLiveRows:
    @pytest.mark.parametrize("substeps", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_full_array_formulas(self, rng, n, substeps):
        for spec, mesh in live_range_specs(rng, n):
            D = edge_transports(spec, mesh, substeps)
            skew, logdet, G, _ = full_array_reference(D)
            assert skew <= TOL.skew
            assert D.G.tobytes() == G.tobytes()
            if spec.trace is None:
                assert D.edge_logdet.tobytes() == logdet.tobytes()
            else:
                # it sums -tau dt over the rows of its nonzero traces, which
                # meets the diagonal sums up to rounding
                trace_ref, tau = trace_logdet(D)
                assert D.edge_logdet.tobytes() == trace_ref.tobytes()
                assert np.abs(D.edge_logdet - logdet).max() <= 1e-12
                assert_tight(curvature._live_rows(tau), [tau])

    def test_collar_range_skips_the_interior(self, rng):
        loop, _ = random_frame_loop(rng, 2, 64)
        mesh = Mesh2D("disc", 12, 64)
        D = edge_transports(build_collar_connection(loop), mesh)
        # rows are angular edges ring by ring; the width-0.3 collar lives on r > 0.7
        first_ring = int(np.argmax(mesh.r_nodes > 0.7))
        live = curvature._live_rows(trace_logdet(D)[1])
        assert live == slice(first_ring * mesh.n_t, (mesh.n_r + 1) * mesh.n_t)
        assert not D.edge_logdet[mesh.num_radial:][:live.start].any()

    @pytest.mark.parametrize("n", [1, 3])
    def test_all_rows_zero(self, n):
        # the trace path and the full path both give exact +0 rows
        mesh = Mesh2D("disc", 8, 32)
        flat = builtin_connection("flat", n=n)
        for spec in (flat, replace(flat, trace=None)):
            D = edge_transports(spec, mesh, 2)
            skew, logdet, G, _ = full_array_reference(D)
            assert skew == 0.0
            assert D.edge_logdet.tobytes() == logdet.tobytes()
            assert logdet.tobytes() == np.zeros(mesh.num_edges, complex).tobytes()
            assert D.G.tobytes() == G.tobytes()
            assert transport_defects(D) == (0.0, None)
            assert chern_weil_index(D).rounded == 0
        D = edge_transports(flat, mesh, 2)
        assert curvature._live_rows(trace_logdet(D)[1]) == slice(0, 0)

    def test_all_rows_live(self):
        # -i (1 + r) is nonzero on the centre ring too, where example_2_7 vanishes
        spec = angular_spec(1, lambda r, t: (-1j * (1.0 + r))[..., None, None],
                            lambda r, t: -1j * (1.0 + r), "shifted_example")
        mesh = Mesh2D("disc", 8, 32)
        D = edge_transports(spec, mesh, 2)
        assert curvature._live_rows(trace_logdet(D)[1]) == slice(0, mesh.num_angular)
        _, logdet, G, _ = full_array_reference(D)
        # rank 1: the trace is the value itself, so the sums agree bitwise
        assert D.edge_logdet.tobytes() == logdet.tobytes() and D.G.tobytes() == G.tobytes()
        disc = Mesh2D("disc", 8, 32)
        D = edge_transports(builtin_connection("example_2_7"), disc)
        assert curvature._live_rows(trace_logdet(D)[1]) == slice(disc.n_t, disc.num_angular)

    def test_rim_read_after_drift_chains_nothing(self, rng, monkeypatch):
        # the drift read first chains the live and rim edges in one call, so
        # the frame defect then chains none, also where the rim is not live
        chained = recording_chain(monkeypatch)
        for spec, mesh, probe in report_cases(rng):
            assert_report_chains_once(spec, mesh, probe, "unitarity_defect", chained)

    @pytest.mark.parametrize("row", ["first", "middle", "last"])
    def test_non_skew_end_row_is_checked(self, row):
        # a single nonzero row, Hermitian and so not skew: the range must hold it
        mesh = Mesh2D("disc", 6, 16)
        k = {"first": 0, "middle": mesh.num_angular // 2, "last": mesh.num_angular - 1}[row]
        r_mid, t_mid, _, _ = (a[mesh.num_radial:] for a in mesh.edge_quadrature(1))
        r0, t0 = r_mid[k, 0], t_mid[k, 0]

        def a_theta(r, t):
            hit = (r == r0) & (t == t0)
            return np.where(hit, 1.0 + 0j, 0j)[..., None, None]

        # the trace path checks the trace, the full path every evaluated row
        spec = angular_spec(1, a_theta, lambda r, t: a_theta(r, t)[..., 0, 0], f"hermitian_{row}")
        for sp in (spec, replace(spec, trace=None)):
            with pytest.raises(NonUnitaryConnection):
                edge_transports(sp, mesh)

    def test_nan_theta_part_caught_beside_a_radial_part(self):
        # a zero A_r first and a NaN A_theta second: max() would drop the NaN
        def coeffs(r, t):
            Ar = np.zeros(r.shape + (1, 1), dtype=complex)
            At = np.where(r > 0.9, np.nan, -1j * r)[..., None, None].astype(complex)
            return Ar, At

        with pytest.raises(NonUnitaryConnection):
            edge_transports(ConnectionSpec(1, coeffs, tag="nan_theta"), Mesh2D("disc", 16, 16))


class TestDiagonalPath:
    @pytest.mark.parametrize("substeps", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_full_path(self, rng, n, substeps):
        # collar, arc collar and orbifold specs against the
        # same forms without their trace, evaluated in full on every edge;
        # the gauge transform has no trace evaluator
        specs = [(sp, m) for sp, m in live_range_specs(rng, n) if sp.trace is not None]
        assert len(specs) == 3
        for spec, mesh in specs:
            D = edge_transports(spec, mesh, substeps)
            F = edge_transports(replace(spec, trace=None), mesh, substeps)
            assert "G" not in D.__dict__ and "G" in F.__dict__
            # the trace meets the diagonal sums of the full values up to rounding
            assert np.abs(D.edge_logdet - F.edge_logdet).max() <= 1e-12
            rep, ref = chern_weil_index(D), chern_weil_index(F)
            assert np.abs(rep.face_angles - ref.face_angles).max() <= 1e-12
            assert abs(rep.raw - ref.raw) <= 1e-9 and rep.rounded == ref.rounded
            # the generators agree up to the sign of the radial rows' zeros,
            # and the diagnostics read from them are one computation
            assert np.array_equal(D.G, F.G)
            assert rep.unitarity_defect == ref.unitarity_defect
            assert rep.orthogonality_defect == ref.orthogonality_defect
            assert (rep.orthogonality_defect is None) == (not mesh.wrap)

    def test_nan_in_boundary_form_rejected(self, rng, monkeypatch):
        loop, _ = random_frame_loop(rng, 2, 64)
        path = loop.samples[:33].copy()
        path[5, 0, 1] = np.nan
        with pytest.raises(NonUnitaryConnection):
            build_arc_collar_connection(path, t_span=0.5 * np.pi)
        # a NaN off the diagonal of the frame-derived form, which the index
        # path never reads: the builds and the index pass, the first G read raises
        form = connections.loop_boundary_form

        def nan_form(lp):
            A, w = form(lp)
            A = A.copy()
            A[7, 0, 1] = np.nan
            return A, w

        monkeypatch.setattr(connections, "loop_boundary_form", nan_form)
        monkeypatch.setattr(orbifold, "loop_boundary_form", nan_form)
        disc = Mesh2D("disc", 8, 64)
        builds = (
            (lambda: build_collar_connection(loop), disc),
            (lambda: invariant_connection(OrbifoldDiscSpec(2, ConePoint(3, (1, 2)), loop)), disc),
        )
        for build, mesh in builds:
            D = edge_transports(build(), mesh)
            assert chern_weil_index(D).rounded is not None
            with pytest.raises(NonUnitaryConnection):
                D.G

    def test_nan_diagonal_rejected(self):
        def a_trace(r, t):
            return np.where(r > 0.9, np.nan, -1j * r)

        spec = angular_spec(1, lambda r, t: a_trace(r, t)[..., None, None], a_trace, "nan_trace")
        with pytest.raises(NonUnitaryConnection):
            edge_transports(spec, Mesh2D("disc", 16, 16))

    def test_full_values_checked_when_G_is_read(self):
        # the trace is imaginary, the off-diagonals Hermitian: the index path
        # passes, and the full check runs on the first read of G
        def a_theta(r, t):
            A = np.zeros(r.shape + (2, 2), dtype=complex)
            A[..., 0, 0] = 1j * r
            A[..., 0, 1] = A[..., 1, 0] = r
            return A

        spec = angular_spec(2, a_theta, lambda r, t: np.trace(a_theta(r, t), axis1=-2, axis2=-1),
                            "hermitian_offdiag")
        D = edge_transports(spec, Mesh2D("disc", 4, 8))
        assert chern_weil_index(D).rounded is not None
        with pytest.raises(NonUnitaryConnection):
            D.G
        with pytest.raises(NonUnitaryConnection):
            transport_defects(D)


def face_holonomy(D, f):
    """Ordered product of the four edge transports around face ``f``."""
    ids, signs = D.mesh.face_edges()
    H = np.eye(D.n, dtype=complex)
    for T, sg in zip(D.transports_of(ids[f]), signs[f]):
        H = (T if sg > 0 else T.conj().T) @ H
    return H


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
        alpha = curvature._face_angles(D)[0]
        assert abs(np.angle(np.linalg.det(hol)) - alpha[f]) <= 1e-12

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
        def a_trace(r, t):
            return np.where(r > 0.9, np.nan, -1j * r)

        spec = angular_spec(1, lambda r, t: a_trace(r, t)[..., None, None], a_trace, "nan_rim")
        for sp in (spec, replace(spec, trace=None)):
            with pytest.raises(NonUnitaryConnection):
                chern_weil_index(edge_transports(sp, Mesh2D("disc", 16, 16)), Fraction(1))

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
        a = curvature._face_angles(D)[0]
        a_conj = curvature._face_angles(replace(D, edge_logdet=D.edge_logdet.conj()))[0]
        assert np.max(np.abs(a + a_conj)) <= 1e-10

    def test_reversed_mesh_negates_exactly(self, rng):
        loop, _ = random_frame_loop(rng, 2, 256)
        D = edge_transports(build_collar_connection(loop), Mesh2D("disc", 16, 256))
        a = curvature._face_angles(D)[0]
        a_rev = curvature._face_angles(replace(D, mesh=D.mesh.reversed()))[0]
        assert np.max(np.abs(a - (-a_rev))) <= 1e-10

    def test_double_copy_totals_twice_the_index(self, rng):
        # conjugated data on the reversed copy carries the same raw value, so
        # the two halves of the double add up to 2 mu
        loop, idx = random_frame_loop(rng, 2, 256)
        D = edge_transports(build_collar_connection(loop), Mesh2D("disc", 16, 256))
        raw = chern_weil_index(D, Fraction(1)).raw
        mirrored = replace(D, edge_logdet=D.edge_logdet.conj(), mesh=D.mesh.reversed())
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

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), N=st.sampled_from([64, 128]),
           amplitude=st.floats(-1.5, 1.5))
    def test_random_interior_gauge_leaves_index(self, seed, n, N, amplitude):
        loop = hypothesis_loop(seed, n, N)
        re, im = np.random.default_rng(seed).normal(size=(2, n, n))
        S = re + 1j * im
        spec = build_collar_connection(loop)
        # the gauge transform has no trace evaluator: it runs the full path
        gauged = radial_gauge_transform(spec, S - S.conj().T, amplitude=amplitude)
        assert gauged.trace is None
        mesh = Mesh2D("disc", 16, N)
        rep0, rep1 = (chern_weil_index(edge_transports(sp, mesh, substeps=2)) for sp in (spec, gauged))
        assert abs(rep0.raw - rep1.raw) <= 2e-2
        assert rep0.rounded == rep1.rounded == maslov_loop(loop)


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
        spec = builtin_connection("example_4_3_nonunitary")
        D = edge_transports(spec, Mesh2D("disc", 128, 128), allow_non_unitary=True)
        val = complex_curvature_value(D)
        assert abs(val.real) <= 1e-2
        assert abs(val.imag - 2.0) <= 1e-2

    def test_unitary_example_through_complex_pipeline(self):
        D = edge_transports(builtin_connection("example_2_7"), Mesh2D("disc", 128, 128))
        val = complex_curvature_value(D)
        assert abs(val.real - 2.0) <= 1e-2
        assert abs(val.imag) <= 1e-2

    def test_flat_is_zero(self):
        D = edge_transports(builtin_connection("flat"), Mesh2D("disc", 32, 32))
        val = complex_curvature_value(D)
        assert val == 0.0


class TestRimResolution:
    """A collar whose plateau the rim chords miss raises Unrefined, never a wrong index."""

    @pytest.mark.parametrize("N", [8, 12, 16, 24, 32, 64])
    def test_power_k_rounds_to_k_or_raises(self, N):
        # every k the winding guard admits, on the mesh of ``cw --input``
        ks = [k for k in range(-N, N + 1) if 2 * np.pi * abs(k) / N < TOL.winding_guard]
        for width in (0.01, 0.02, 0.05, 0.1, 0.2):
            for k in ks:
                loop = generate_loop("power_k", N, k=k)
                try:
                    rep = collar_report(loop, n_r=32, width=width)
                except MaslovCWError:
                    continue
                assert rep.rounded == k, (N, width, k, rep.raw)

    @pytest.mark.parametrize("substeps", [1, 2, 3])
    def test_disc_collar_threshold_is_exact(self, substeps):
        # the plateau of a width-w collar starts at r = 1 - (1 - 0.9) w; the
        # rim points lie at |z| for points z on the chords
        for n_t in (16, 32, 64, 128):
            mesh = Mesh2D("disc", 8, n_t)
            r_min = mesh.edge_quadrature(substeps)[0][mesh.boundary_angular_ids()].min()
            for width in (0.05, 0.1, 0.2, 0.3, 0.5):
                spec = build_collar_connection(generate_loop("power_k", n_t, k=1), width=width)
                if r_min < 1.0 - 0.1 * width:
                    with pytest.raises(Unrefined, match="on the rim r = 1 "):
                        edge_transports(spec, mesh, substeps)
                else:
                    edge_transports(spec, mesh, substeps)

    def test_every_rim_is_checked(self):
        seen = []

        def rim_cutoff(r):
            seen.append(np.round(r, 6))
            return np.ones_like(r)

        spec = angular_spec(1, lambda r, t: np.zeros(r.shape + (1, 1), complex),
                            lambda r, t: np.zeros(r.shape, complex), "probe", rim_cutoff=rim_cutoff)
        for mesh in (Mesh2D("disc", 4, 8), Mesh2D("quarter_disc", 4, 8)):
            seen.clear()
            edge_transports(spec, mesh)
            # one rim: its chord points, then the rim radius itself
            assert len(seen) == 1 and float(seen[0][-1]) == 1.0
            assert seen[0].size == 8 + 1 and np.all(seen[0][:-1] < 1.0)

    def test_arc_collar(self):
        t = np.linspace(0.0, 1.0, 33)
        path = np.exp(0.5j * np.pi * t)[:, None, None]
        spec = build_arc_collar_connection(path, t_span=0.5 * np.pi, width=0.1)
        with pytest.raises(Unrefined):
            edge_transports(spec, Mesh2D("quarter_disc", 8, 4))
        edge_transports(spec, Mesh2D("quarter_disc", 8, 32))

    def test_orbifold_collar(self):
        from maslovcw.orbifold import mu_cw_orbifold

        # 8 samples: the 48 x 8 mesh misses the collar's plateau, so the index
        # runs on the loop refined once, on a 48 x 16 mesh
        for N, n_t in ((8, 16), (16, 16)):
            spec = OrbifoldDiscSpec(1, ConePoint(3, (1,)), generate_loop("power_k", N, k=1))
            if N < n_t:
                with pytest.raises(Unrefined):
                    edge_transports(invariant_connection(spec), Mesh2D("disc", 48, N))
            value, rep = mu_cw_orbifold(spec)
            assert value == Fraction(1) + Fraction(2, 3)
            assert rep.connection.mesh.n_t == len(rep.probe) == n_t

    def test_gauge_transform_keeps_the_check(self):
        spec = build_collar_connection(generate_loop("power_k", 16, k=1), width=0.05)
        with pytest.raises(Unrefined):
            edge_transports(radial_gauge_transform(spec, np.array([[1j]])), Mesh2D("disc", 8, 16))


class TestIndexRefining:
    def test_resolved_loop_runs_once(self):
        loop, seen = generate_loop("power_k", 16, k=1), []
        assert index_refining(lambda L: seen.append(L) or 7, loop) == 7
        assert seen == [loop]

    def test_refines_until_resolved(self):
        # power_k k=3, 16 samples, as in ``cw --input``: width 0.05 resolves
        # at 32 samples, width 0.01 at 128
        loop = generate_loop("power_k", 16, k=3)
        for width, N in ((0.05, 32), (0.01, 128)):
            with pytest.raises(Unrefined):
                collar_report(loop, n_r=32, width=width)
            rep = index_refining(lambda L: collar_report(L, n_r=32, width=width), loop)
            assert rep.rounded == 3 and len(rep.probe) == rep.connection.mesh.n_t == N

    def test_stops_at_the_sample_cap(self):
        seen = []

        def unresolved(L):
            seen.append(len(L))
            raise Unrefined("never resolved")

        with pytest.raises(Unrefined, match="never resolved"):
            index_refining(unresolved, generate_loop("power_k", 8, k=1))
        assert seen == [8 * 2**j for j in range(10)]  # 8 .. 4096 samples

    def test_other_errors_are_not_retried(self):
        seen = []

        def undersampled(L):
            seen.append(L)
            raise Undersampled("not a mesh problem")

        with pytest.raises(Undersampled):
            index_refining(undersampled, generate_loop("power_k", 16, k=1))
        assert len(seen) == 1


class TestQuantum:
    @pytest.mark.parametrize("quantum", [
        Fraction(0), Fraction(-1, 2), Fraction(1, 10**400), Fraction(10**400)])
    def test_quantum_without_a_positive_float_raises(self, quantum):
        D = edge_transports(builtin_connection("flat"), Mesh2D("disc", 8, 16))
        with pytest.raises(InvalidParameter, match="quantum"):
            chern_weil_index(D, quantum)

    def test_tiny_and_huge_positive_quanta_round(self):
        D = edge_transports(builtin_connection("example_2_7"), Mesh2D("disc", 32, 32))
        for q in (Fraction(1, 10**300), Fraction(10**300)):
            assert chern_weil_index(D, q).quantum == q


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


def hypothesis_loop(seed, n, N):
    return random_frame_loop(np.random.default_rng(seed), n, N)[0]


class TestTraceProperties:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), N=st.sampled_from([64, 128]))
    def test_reversal_negates_the_index(self, seed, n, N):
        loop = hypothesis_loop(seed, n, N)
        rev = loop.reversed()
        assert maslov_loop(rev) == -maslov_loop(loop)
        reps = [chern_weil_index(edge_transports(build_collar_connection(L), Mesh2D("disc", 8, N)))
                for L in (loop, rev)]
        assert reps[1].rounded == -reps[0].rounded == -maslov_loop(loop)
        assert abs(reps[0].raw + reps[1].raw) <= 1e-9
        # the reversed trace runs backwards with the opposite sign
        tau, tau_rev = (connections.loop_boundary_trace(L) for L in (loop, rev))
        assert np.abs(tau_rev + np.roll(tau[::-1], 1)).max() <= 1e-9

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), N=st.sampled_from([64, 128]))
    def test_full_values_carry_the_trace(self, seed, n, N):
        loop = hypothesis_loop(seed, n, N)
        weights = tuple(int(w) for w in np.random.default_rng(seed).integers(0, 4, n))
        specs = (build_collar_connection(loop),
                 invariant_connection(OrbifoldDiscSpec(n, ConePoint(4, weights), loop)))
        # every boundary sample on the rim, then points across the disc
        t = np.concatenate([2 * np.pi * np.arange(N) / N, np.linspace(-1.0, 7.0, 41)])
        r = np.concatenate([np.ones(N), np.linspace(0.0, 1.0, 41)])
        for spec in specs:
            for rr in (r, 1.4 - r):
                _, At = spec.coeffs(rr, t)
                assert np.abs(np.trace(At, axis1=-2, axis2=-1) - spec.trace(rr, t)).max() <= 1e-12
                assert matcore.skew_defect(At) == 0.0


def same_bits(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def full_grid_angles(D):
    """Principal face angles of every face by the full-grid gather."""
    alpha = gather_face_sum(D.mesh, D.edge_logdet.imag)
    return (alpha + np.pi) % (2 * np.pi) - np.pi


def assert_report_matches_full_grid(rep):
    full = full_grid_angles(rep.connection)
    assert curvature._face_angles(rep.connection)[0].tobytes() == full.tobytes()
    assert rep.face_angles.tobytes() == full.tobytes()
    assert same_bits(rep.raw, math.fsum(full.tolist()) / math.pi)
    assert same_bits(rep.max_face_angle, float(np.max(np.abs(full))))


def band_cases(rng):
    """(name, spec, mesh, gap): ``gap`` says the nonzero rows come in two runs."""
    loop, _ = random_frame_loop(rng, 2, 64)
    collar = build_collar_connection(loop)
    disc = Mesh2D("disc", 16, 64)
    S = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    yield "disc_collar", collar, disc, False
    yield ("orbifold", invariant_connection(OrbifoldDiscSpec(2, ConePoint(3, (1, 2)), loop)),
           disc, True)
    yield ("arc_collar", build_arc_collar_connection(loop.samples[:33], t_span=0.5 * np.pi),
           Mesh2D("quarter_disc", 12, 16), False)
    yield "reversed", collar, disc.reversed(), False
    yield "gauge", radial_gauge_transform(collar, S - S.conj().T), disc, False


class TestFaceBand:
    def test_band_matches_full_grid(self, rng):
        for name, spec, mesh, gap in band_cases(rng):
            D = edge_transports(spec, mesh)
            assert_report_matches_full_grid(chern_weil_index(D))
            # the band is exactly the rows holding a nonzero face edge
            ids, _ = mesh.face_edges()
            live = (D.edge_logdet.imag[ids] != 0).any(axis=1).reshape(mesh.n_r, mesh.n_t).any(axis=1)
            _, band = curvature._face_angles(D)
            assert band.shape == (np.count_nonzero(live), mesh.n_t), name
            runs = np.count_nonzero(np.diff(np.concatenate([[0], live.astype(int), [0]])) == 1)
            assert runs == (2 if gap else 1), name
            if name != "gauge":
                assert not live.all(), name

    @pytest.mark.parametrize("n", [1, 3])
    def test_flat_is_exact_positive_zero(self, n):
        D = edge_transports(builtin_connection("flat", n=n), Mesh2D("disc", 8, 16))
        rep = chern_weil_index(D)
        assert same_bits(rep.raw, 0.0) and same_bits(rep.max_face_angle, 0.0)
        assert curvature._face_angles(D)[1].shape == (0, 16)
        assert_report_matches_full_grid(rep)

    @pytest.mark.parametrize("bad", [complex(0.0, np.nan), complex(0.0, np.inf)])
    @pytest.mark.parametrize("edge", ["radial", "ring"])
    def test_non_finite_edge_in_a_zero_row_trips_the_guard(self, rng, edge, bad):
        loop, _ = random_frame_loop(rng, 2, 64)
        mesh = Mesh2D("disc", 16, 64)
        D = edge_transports(build_collar_connection(loop), mesh)
        eid = mesh.radial_id(1, 5) if edge == "radial" else mesh.angular_id(2, 5)
        assert not np.abs(curvature._face_angles(D)[0]).reshape(16, 64)[:3].any()
        logdet = D.edge_logdet.copy()
        logdet[eid] = bad
        with np.errstate(invalid="ignore"), pytest.raises(Unrefined):
            chern_weil_index(replace(D, edge_logdet=logdet))

    def test_principal_matches_the_remainder_formula(self, rng):
        edges = np.array([0.0, -0.0, np.pi, -np.pi, 2 * np.pi, -2 * np.pi, 3 * np.pi, -3 * np.pi,
                          1e300, -1e300, 5e-324, np.nan, np.inf, -np.inf])
        near = np.nextafter(edges[2:8, None], [[-np.inf, np.inf]]).ravel()
        t = np.concatenate([edges, near, rng.uniform(-10, 10, 1000), rng.uniform(-1, 1, 1000)])
        with np.errstate(invalid="ignore"):
            want = (t + np.pi) % (2 * np.pi) - np.pi
            assert curvature._principal(t).tobytes() == want.tobytes()

    def test_every_verify_report_matches_full_grid(self, monkeypatch, capsys):
        from maslovcw import cli

        reports = []
        init = curvature.CurvatureReport.__init__

        def recording(self, *args, **kwargs):
            init(self, *args, **kwargs)
            reports.append(self)

        monkeypatch.setattr(curvature.CurvatureReport, "__init__", recording)
        # one CPU: the suites run in this process, where the recorder sees them
        monkeypatch.setattr(cli, "_available_cpus", lambda: 1)
        assert cli.main(["verify", "--suite", "all", "--seed", "3"]) == 0
        capsys.readouterr()
        assert len(reports) >= 50
        for rep in reports:
            assert_report_matches_full_grid(rep)


def assert_fsum_bits(x):
    x = np.asarray(x, dtype=float)
    assert same_bits(curvature._exact_sum(x), math.fsum(x.tolist()))


class TestExactSum:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-math.pi, math.pi), max_size=64))
    def test_lists_match_fsum(self, xs):
        assert_fsum_bits(xs)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           size=st.one_of(st.integers(0, 600), st.sampled_from([4096, 1024 * 1024])),
           low=st.floats(-300.0, math.log10(math.pi)),
           kind=st.sampled_from(["spread", "cancelling", "half_zero", "signed_zeros"]))
    def test_arrays_match_fsum(self, seed, size, low, kind):
        # magnitudes log-uniform between 10**low and pi, random signs
        rng = np.random.default_rng(seed)
        x = 10.0 ** rng.uniform(low, math.log10(math.pi), size)
        x[rng.random(size) < 0.5] *= -1.0
        if kind == "cancelling":
            half = x[: size // 2]
            x = np.concatenate([half, -half, x[2 * (size // 2):] * 1e-17])
            rng.shuffle(x)
        elif kind == "half_zero":
            x[rng.random(size) < 0.5] = 0.0
        elif kind == "signed_zeros":
            x = np.where(rng.random(size) < 0.5, -0.0, 0.0)
        assert_fsum_bits(x)

    @pytest.mark.parametrize("x", [[], [-0.0], [-0.0, -0.0], [0.0, -0.0], [1.0, -1.0],
                                   [5e-324, -5e-324, 5e-324], [1e-300, 1.0, -1.0],
                                   [3.0, 2.0 ** -1074, -3.0]])
    def test_edge_cases_match_fsum(self, x):
        assert_fsum_bits(x)

    @pytest.mark.parametrize("x", [[np.inf, 1.0], [np.nan, 1.0], [-np.inf, 2.0], [1e300, -1e300, 1.0]])
    def test_non_finite_and_huge_follow_fsum(self, x):
        assert_fsum_bits(x)

    @pytest.mark.parametrize("x", [[np.inf, -np.inf], [1.7e308, 1.7e308]])
    def test_fsum_errors_propagate(self, x):
        with pytest.raises((ValueError, OverflowError)) as want:
            math.fsum(x)
        with pytest.raises(want.type):
            curvature._exact_sum(np.array(x))

    def test_chunked_levels_match_fsum(self, rng, monkeypatch):
        monkeypatch.setattr(curvature, "_SUM_CHUNK", 64)
        for size in (63, 64, 65, 1000):
            assert_fsum_bits(rng.uniform(-np.pi, np.pi, size) * 10.0 ** rng.uniform(-20, 0, size))

    def test_complex_curvature_value_matches_fsum(self):
        for D in (edge_transports(builtin_connection("example_4_3_nonunitary"), Mesh2D("disc", 64, 64),
                                  allow_non_unitary=True),
                  edge_transports(builtin_connection("example_2_7"), Mesh2D("disc", 64, 64))):
            z = curvature.complex_face_logsum(D)
            val = complex_curvature_value(D)
            assert same_bits(val.real, math.fsum(z.imag.tolist()) / math.pi)
            assert same_bits(val.imag, -math.fsum(z.real.tolist()) / math.pi)

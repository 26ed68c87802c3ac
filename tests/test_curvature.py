import json
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
    build_arc_collar_connection,
    build_collar_connection,
    builtin_connection,
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
    BundlePairSpec, FrameLoop, generate_loop, maslov_bundle_pair, maslov_loop,
    random_frame_loop,
)
from maslovcw.mesh import DOMAINS, Mesh2D
from maslovcw.orbifold import ConePoint, OrbifoldDiscSpec, invariant_connection
from maslovcw.tolerances import TOL

from full_reference import (
    FullForm, four_term_faces, full_form, full_generators, full_logdet, full_quadrature,
    gather_face_sum, radial_gauge_transform, reference_connection, reference_face_sum,
    reference_ring_logdet, reversed_loop, zero_radial_twin,
)


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

    @pytest.mark.parametrize("build", [
        lambda: Mesh2D("disc", 24.0, 512),
        lambda: Mesh2D("disc", 24, 512.0),
        lambda: Mesh2D("disc", True, 512),
        lambda: Mesh2D("disc", 24, np.float64(8)),
        lambda: Mesh2D("disc", 24, 512).edge_quadrature(1.9),
        lambda: Mesh2D("disc", 24, 512).edge_quadrature(1.0),
        lambda: Mesh2D("disc", 24, 512).edge_quadrature(True),
        lambda: Mesh2D("disc", 24, 512).edge_quadrature("2"),
    ], ids=["float_n_r", "float_n_t", "bool_n_r", "numpy_float_n_t", "fractional_substeps",
            "float_substeps", "bool_substeps", "str_substeps"])
    def test_non_integer_sizes_raise_library_error(self, build):
        with pytest.raises(InvalidParameter, match="must be an integer"):
            build()

    def test_numpy_integer_sizes_are_ints(self):
        m = Mesh2D("disc", np.int64(6), np.int32(12))
        assert type(m.n_r) is int and type(m.n_t) is int
        assert m.edge_quadrature(np.int64(2)) is Mesh2D("disc", 6, 12).edge_quadrature(2)

    @pytest.mark.parametrize("block", [1, 7, 50])
    @pytest.mark.parametrize("substeps", [1, 2, 3])
    @pytest.mark.parametrize("domain", DOMAINS)
    def test_quadrature_blocks_give_the_same_bits(self, domain, substeps, block, monkeypatch):
        # 50 matrices hold 4 rings of 12 chords at one substep: the 17
        # angular rings then end in a short block
        build = mesh_module._edge_quadrature.__wrapped__
        for shape in [(5, 7), (16, 12)]:
            monkeypatch.setattr(matcore, "BLOCK", 2**40)
            whole = build(domain, *shape, substeps)
            monkeypatch.setattr(matcore, "BLOCK", block)
            for a, b in zip(build(domain, *shape, substeps), whole):
                assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("substeps", [1, 2])
    @pytest.mark.parametrize("domain", DOMAINS)
    def test_quadrature_cached_per_shape(self, domain, substeps):
        m = Mesh2D(domain, 6, 12)
        cached = m.edge_quadrature(substeps)
        fresh = mesh_module._edge_quadrature.__wrapped__(m.domain, m.n_r, m.n_t, substeps)
        for a, b in zip(cached, fresh):
            # the cache holds the angular chords only
            assert a.shape == (m.num_angular, substeps)
            assert a.tobytes() == b.tobytes()
            with pytest.raises(ValueError):
                a[0, 0] = 1.0
        again = Mesh2D(domain, 6, 12).reversed().edge_quadrature(substeps)
        assert all(a is b for a, b in zip(again, cached))

    @pytest.mark.parametrize("shape", [(5, 7), (6, 12), (24, 635)])
    @pytest.mark.parametrize("substeps", [1, 2])
    @pytest.mark.parametrize("domain", DOMAINS)
    def test_quadrature_matches_per_edge_formula(self, domain, substeps, shape):
        # the chord ends exp(i theta) taken on each edge's own two angles
        m, s = Mesh2D(domain, *shape), substeps
        rv, tv = m.r_nodes, m.t_nodes
        frac_mid = (np.arange(s) + 0.5) / s
        i, j = (a.ravel() for a in np.meshgrid(np.arange(m.n_r), np.arange(m.n_tv),
                                               indexing="ij"))
        r0, r1 = rv[i][:, None], rv[i + 1][:, None]
        radial = (r0 + (r1 - r0) * frac_mid, np.broadcast_to(tv[j][:, None], (len(i), s)),
                  np.broadcast_to((r1 - r0) / s, (len(i), s)), np.zeros((len(i), s)))
        i, j = (a.ravel() for a in np.meshgrid(np.arange(m.n_r + 1), np.arange(m.n_t),
                                               indexing="ij"))
        r, th0, th1 = rv[i], tv[j], tv[j + 1]
        z0 = r[:, None] * np.exp(1j * th0)[:, None]
        z1 = r[:, None] * np.exp(1j * th1)[:, None]
        zz = z0 + (z1 - z0) * (np.arange(s + 1) / s)
        zm = 0.5 * (zz[:, :-1] + zz[:, 1:])
        with np.errstate(divide="ignore", invalid="ignore"):
            dt = np.angle(zz[:, 1:] / zz[:, :-1])
        t_mid = np.mod(np.angle(zm), 2 * np.pi) if m.wrap else np.angle(zm)
        angular = [np.abs(zm), t_mid, np.abs(zz[:, 1:]) - np.abs(zz[:, :-1]), dt]
        center = r <= 0.0
        angular[0][center] = 0.0
        angular[1][center] = (th0[:, None] + (th1 - th0)[:, None] * frac_mid)[center]
        angular[2][center] = 0.0
        angular[3][center] = ((th1 - th0) / s)[:, None][center]
        got = mesh_module._edge_quadrature.__wrapped__(m.domain, m.n_r, m.n_t, s)
        for a, ang in zip(got, angular[:2] + angular[3:]):  # every array but the chords' dr
            assert a.tobytes() == ang.tobytes()
        # the tests-side reference: the radial rows, then the chords with their dr
        for a, rad, ang in zip(full_quadrature(m, s), radial, angular):
            assert a.tobytes() == np.concatenate([rad, ang]).tobytes()

    def test_quadrature_cache_is_bounded(self):
        size = mesh_module.QUADRATURE_CACHE_SIZE
        for n_r in range(2, size + 6):
            Mesh2D("disc", n_r, 4).edge_quadrature(1)
        info = mesh_module._edge_quadrature.cache_info()
        assert info.maxsize == size and info.currsize <= size


class TestEdgeTransports:
    def test_flat_gives_identities(self):
        D = edge_transports(builtin_connection("flat", n=2), Mesh2D("disc", 8, 16))
        assert np.allclose(_kernels.transport_chain(full_generators(D)), np.eye(2), atol=1e-14)
        assert D.ring_logdet.shape == (D.mesh.num_angular,)
        assert np.allclose(D.ring_logdet, 0.0)

    def test_disc_example_angular_edge_closed_form(self):
        N = 64
        mesh = Mesh2D("disc", N, N)
        D = edge_transports(builtin_connection("example_2_7"), mesh)
        # angular edge at full radius: transport close to e^{i r dtheta}
        e = mesh.angular_id(N, 3)
        dth = 2 * np.pi / N
        T = _kernels.transport_chain(full_generators(D))
        assert abs(T[e, 0, 0] - np.exp(1j * 1.0 * dth)) <= dth**3 + 1e-12

    def test_substep_richardson_order_two(self):
        # doubling substeps must cut the per-edge error by >= 4x
        mesh = Mesh2D("disc", 16, 16)
        spec = builtin_connection("example_2_7")
        e = mesh.angular_id(12, 5)
        vals = {}
        for s in (1, 2, 4, 64):
            D = edge_transports(spec, mesh, substeps=s)
            vals[s] = _kernels.transport_chain(full_generators(D))[e, 0, 0]
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

    @settings(max_examples=200, deadline=None)
    @given(n_r=st.integers(2, 4), n_t=st.integers(4, 6), substeps=st.integers(1, 3),
           block=st.sampled_from([1, 2, 3, 7, 2**14]), data=st.data())
    def test_edge_product_matches_the_formula_bitwise(self, n_r, n_t, substeps, block, data):
        # a rank-1 trace of drawn values (signed zeros, NaN, infinities, any
        # float) and whole zero rows, so that live rows start, end and gap
        mesh = Mesh2D("disc", n_r, n_t)
        E, size = mesh.num_angular, mesh.num_angular * substeps
        parts = [np.array(data.draw(st.lists(RING_VALUES, min_size=size, max_size=size)))
                 for _ in range(2)]
        zero = np.repeat(data.draw(st.lists(st.booleans(), min_size=E, max_size=E)), substeps)
        tau = np.empty((E, substeps), dtype=complex)
        tau.real, tau.imag = (np.where(zero, np.copysign(0.0, a), a).reshape(E, substeps)
                              for a in parts)
        flat = tau.ravel()
        served = [0]

        def trace(r, t):
            # the drawn values in edge order, block after block
            out = flat[served[0] : served[0] + len(r)]
            served[0] += len(r)
            return out

        spec = ConnectionSpec(1, None, trace, "drawn", unitary=False)
        with np.errstate(invalid="ignore", over="ignore"), \
                mock.patch.object(matcore, "BLOCK", block):
            D = edge_transports(spec, mesh, substeps, allow_non_unitary=True)
            want = reference_ring_logdet(tau, mesh.edge_quadrature(substeps)[2])
        assert served[0] == flat.size
        assert D.ring_logdet.tobytes() == want.tobytes()


def reference_diagnostics(D, loop, G=None):
    """Rim transports, drift and frame defect chained from the rim rows of ``G``.

    ``G`` defaults to ``full_generators(D)``.

    The transports are those of the outer ring's edges, in increasing
    angle; the drift is ``unitary_defect`` over them, which must also match
    the complex Gram formula to rounding.  The frame defect, walked vertex
    by vertex, is None when ``loop`` is.
    """
    G = full_generators(D) if G is None else G
    T = _kernels.transport_chain(G[D.mesh.boundary_angular_ids()])
    drift = matcore.unitary_defect(T)
    gram = np.linalg.norm(np.swapaxes(T, -1, -2).conj() @ T - np.eye(D.n), axis=(-2, -1))
    assert abs(drift - gram.max()) <= 4 * D.n * np.finfo(float).eps
    if loop is None:
        return T, drift, None
    N, n = len(loop), loop.n
    stride = N // D.mesh.n_t
    P = np.eye(n, dtype=complex)
    worst = 0.0
    for j, Tj in enumerate(T):
        P = Tj @ P
        M = (P @ loop.samples[0]).conj().T @ loop.samples[((j + 1) * stride) % N]
        sv = np.linalg.svd(np.real(M), compute_uv=False)
        worst = max(worst, math.sqrt(((1.0 - sv) ** 2).sum() + (M.imag ** 2).sum()))
    return T, drift, worst


def report_cases(rng):
    """(spec, mesh, probe) for a collar, flat with a probe, and a built-in without one."""
    loop, _ = random_frame_loop(rng, 3, 256)
    return (
        # a collar: the rim edges are live, and so are interior ones
        (build_collar_connection(loop), Mesh2D("disc", 16, 256), loop),
        # flat with a probe: every generator is zero, the rim's too
        (builtin_connection("flat", n=3), Mesh2D("disc", 8, 128),
         generate_loop("constant", N=128, n=3)),
        # a built-in with no probe loop: the drift alone
        (builtin_connection("example_2_7"), Mesh2D("disc", 16, 16), None),
    )


def recording_chain(monkeypatch):
    """Patch transport_chain to record a copy of the generators of each call; return the record."""
    chained = []
    chain = _kernels.transport_chain

    def recording(gens):
        chained.append(gens.copy())
        return chain(gens)

    monkeypatch.setattr(_kernels, "transport_chain", recording)
    return chained


def assert_chained_the_rim(chained, mesh, G):
    """One transport_chain call, of exactly the n_t rim rows of the generators ``G``, bitwise."""
    rim = mesh.boundary_angular_ids()
    assert np.array_equal(rim, np.arange(mesh.num_edges)[-mesh.n_t:])
    assert len(chained) == 1 and chained[0].tobytes() == G[rim].tobytes()


def assert_report_chains_once(spec, mesh, probe, first, chained):
    """The index chains nothing; reading ``first`` chains the rim once, the other read none."""
    chained.clear()
    D = edge_transports(spec, mesh)
    rep = chern_weil_index(D, loop=probe)
    assert chained == []
    getattr(rep, first)
    values = (rep.unitarity_defect, rep.orthogonality_defect)
    assert_chained_the_rim(chained, mesh, full_generators(D))
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
        # the n_t rim edges in one call, and the drift then chains none
        chained = recording_chain(monkeypatch)
        for spec, mesh, probe in report_cases(rng):
            assert_report_chains_once(spec, mesh, probe, "orthogonality_defect", chained)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 3), reads=st.lists(
        st.sampled_from(["drift", "with_loop", "frame", "G"]), min_size=1, max_size=6))
    def test_store_reads_match_chain_and_chain_once(self, n, reads):
        # nothing is stored: each diagnostics read chains the rim once, in one
        # call, to the same bits whether the full generators were evaluated
        # before it or not
        spec = store_spec(n)
        loop = spec.boundary_loop
        built = edge_transports(spec, STORE_MESH)
        _, drift, worst = reference_diagnostics(built, loop)
        D = edge_transports(spec, STORE_MESH)
        chain = _kernels.transport_chain
        chained = []

        def recording(gens):
            chained.append(gens.copy())
            return chain(gens)

        with mock.patch.object(_kernels, "transport_chain", recording):
            for read in reads:
                chained.clear()
                if read == "G":
                    full_generators(D)
                    assert chained == []
                    continue
                if read == "frame":
                    assert orthogonality_defect(D, loop) == worst
                else:
                    probe = loop if read == "with_loop" else None
                    assert transport_defects(D, probe) == (drift, None if probe is None else worst)
                assert_chained_the_rim(chained, STORE_MESH, full_generators(built))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_full_chain_bitwise(self, rng, n):
        loop, _ = random_frame_loop(rng, n, 256)
        spec = build_collar_connection(loop)
        mesh = Mesh2D("disc", 16, 256)
        lazy = edge_transports(spec, mesh, substeps=2)
        rep = chern_weil_index(lazy, Fraction(1), loop=loop)
        T, drift, worst = reference_diagnostics(lazy, loop)
        assert rep.orthogonality_defect == worst == orthogonality_defect(lazy, loop)
        # the rim chained alone is the full chain's rim rows, bitwise
        rim = mesh.boundary_angular_ids()
        assert _kernels.transport_chain(full_generators(lazy))[rim].tobytes() == T.tobytes()
        assert rep.unitarity_defect == drift
        # generators evaluated before the index give the same report
        eager = edge_transports(spec, mesh, substeps=2)
        full_generators(eager)
        rep_eager = chern_weil_index(eager, Fraction(1), loop=loop)
        assert rep_eager.raw == rep.raw
        assert rep_eager.orthogonality_defect == worst

    def test_nonunitary_rank_two_rejected_eagerly(self):
        spec = ConnectionSpec(2, lambda r, t: r[..., None, None] * np.ones((2, 2), complex),
                              lambda r, t: 2.0 * r + 0j, "real_rank2", unitary=False)
        with pytest.raises(NonUnitaryConnection):
            edge_transports(spec, Mesh2D("disc", 8, 16), allow_non_unitary=True)


def nan_rim_generator(monkeypatch, column):
    """Patch ``_generators`` to fill one rim edge's generator with NaN after its skew check."""
    generators = curvature._generators

    def patched(spec, mesh, substeps, lo, hi):
        g = generators(spec, mesh, substeps, lo, hi)
        e = mesh.boundary_angular_ids()[column] - mesh.num_radial  # angular edges from 0
        if lo <= e < hi:
            g[e - lo] = np.nan
        return g

    monkeypatch.setattr(curvature, "_generators", patched)


class TestBlockedDefects:
    """``transport_defects`` evaluates and chains the rim once, whatever the block size."""

    @pytest.mark.parametrize("substeps", [1, 2])
    @pytest.mark.parametrize("block", [1, 7, 100])
    def test_blocks_match_one_batch_and_chain_each_edge_once(self, rng, block, substeps,
                                                             monkeypatch):
        chained = recording_chain(monkeypatch)
        for spec, mesh, probe in report_cases(rng):
            monkeypatch.setattr(matcore, "BLOCK", 2**40)
            D = edge_transports(spec, mesh, substeps)
            whole = transport_defects(D, probe)
            assert_chained_the_rim(chained, mesh, full_generators(D))
            monkeypatch.setattr(matcore, "BLOCK", block)
            points = []
            D = edge_transports(recording_coeffs(spec, points), mesh, substeps)
            chained.clear()
            points.clear()
            assert transport_defects(D, probe) == whole
            # one coeffs call, of the rim's n_t * s points: no interior value
            assert [k for name, k in points if name == "coeffs"] == [mesh.n_t * substeps]
            assert_chained_the_rim(chained, mesh, full_generators(D))
            chained.clear()

    @pytest.mark.parametrize("with_probe", [False, True])
    def test_nan_in_a_later_block_gives_nan_drift(self, rng, with_probe, monkeypatch):
        # a NaN generator on the last rim edge, after finite ones, where
        # builtin max() would drop the NaN.  The frame defect is NaN too,
        # where the SVD would not converge.  The chain gives a NaN edge NaN
        # at every rank
        monkeypatch.setattr(matcore, "BLOCK", 7)
        nan_rim_generator(monkeypatch, -1)
        mesh = Mesh2D("disc", 8, 64)
        for n in (1, 2, 3, 4):
            loop, _ = random_frame_loop(rng, n, 64)
            D = edge_transports(build_collar_connection(loop), mesh)
            probe = loop if with_probe else None
            drift, frame = transport_defects(D, probe)
            assert math.isnan(drift)
            assert frame is None if probe is None else math.isnan(frame)

    @pytest.mark.parametrize("bad", ["nan", "hermitian"])
    @pytest.mark.parametrize("block", [1, 7, 100, 2**40])
    def test_bad_value_off_the_rim_raises(self, block, bad, monkeypatch):
        # the trace is imaginary everywhere, so the index passes; the full
        # values fail the skew check on one ring only.  On the rim ring the
        # diagnostics evaluate them and raise.  On an interior ring nothing
        # evaluates them: the index, which reads only the trace, and both
        # diagnostics return
        mesh = Mesh2D("disc", 8, 16)
        monkeypatch.setattr(matcore, "BLOCK", block)
        for ring in (mesh.n_r, 3):
            r_bad = mesh.edge_quadrature(1)[0][ring * mesh.n_t, 0]  # a chord point of the ring

            def a_theta(r, t):
                A = np.zeros(r.shape + (2, 2), dtype=complex)
                A[..., 0, 0] = 1j * r
                off = np.where(r == r_bad, np.nan if bad == "nan" else 1.0, 0.0)
                A[..., 0, 1] = A[..., 1, 0] = off  # Hermitian, or NaN
                return A

            spec = ConnectionSpec(2, a_theta, lambda r, t: 1j * r, f"ring{ring}_{bad}")
            D = edge_transports(spec, mesh)
            assert chern_weil_index(D).rounded is not None
            if ring == mesh.n_r:
                with pytest.raises(NonUnitaryConnection):
                    transport_defects(D)
            else:
                drift, frame = transport_defects(D)
                assert drift <= 1e-12 and frame is None


def integrate(form, mesh, substeps=1):
    """``edge_transports`` of a spec; for a FullForm, the angular slice of its reference integration."""
    if isinstance(form, FullForm):
        return reference_connection(form, mesh, substeps)[0]
    return edge_transports(form, mesh, substeps)


def block_cases(rng):
    """(name, spec, mesh, probe) over both domains: specs, and a gauge transform's FullForm."""
    for domain in DOMAINS:
        mesh = Mesh2D(domain, 6, 16)
        yield f"example_2_7/{domain}", builtin_connection("example_2_7"), mesh, None
        yield f"flat/{domain}", builtin_connection("flat", n=2), mesh, None
    for n in (1, 2, 3, 4):
        loop, _ = random_frame_loop(rng, n, 64)
        yield f"collar/{n}", build_collar_connection(loop), Mesh2D("disc", 8, 64), loop
    loop, _ = random_frame_loop(rng, 2, 64)
    yield ("arc_collar", build_arc_collar_connection(loop.samples[:33], t_span=0.5 * np.pi),
           Mesh2D("quarter_disc", 12, 16), None)
    S = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    yield ("gauge", radial_gauge_transform(build_collar_connection(loop), S - S.conj().T),
           Mesh2D("disc", 8, 64), loop)


# a quantum whose multiples hold every index of the test cases: halves on a
# quarter disc, thirds at a cone of order 3, and the integers
CASE_QUANTUM = Fraction(1, 6)


def block_report(spec, mesh, probe, substeps):
    """(report JSON, face angle bytes) of one integration, both transport diagnostics read."""
    rep = chern_weil_index(integrate(spec, mesh, substeps), CASE_QUANTUM, loop=probe)
    return json.dumps(rep.to_json_dict(), sort_keys=True), rep.face_angles.tobytes()


def zero_trace_cases():
    """(spec, mesh, probe) whose trace is rounding or exactly 0 while the generators are not.

    A rank-2 collar of Q diag(e^{i pi t}, e^{-i pi t}), whose det B is
    constant, and a traceless rank-2 form with a zero trace evaluator.
    """
    Q = matcore.haar_unitary(2, np.random.default_rng(0))
    t = np.arange(64) / 64
    loop = FrameLoop(2, Q[None] * np.exp(1j * np.pi * np.outer(t, (1, -1)))[:, None, :])
    yield build_collar_connection(loop), Mesh2D("disc", 8, 64), loop

    def a_theta(r, t):
        c, s = np.cos(t), np.sin(t)
        m = np.stack([np.stack([c, s], -1), np.stack([s, -c], -1)], -2)
        return 1j * (3.0 * r**2)[..., None, None] * m

    spec = ConnectionSpec(2, a_theta, lambda r, t: np.zeros(np.shape(r), complex), "traceless")
    yield spec, Mesh2D("disc", 8, 32), None


class TestBlockBoundaries:
    """Every blocked stage of the trace path gives the bits of one block."""

    @pytest.mark.parametrize("substeps", [1, 2, 3])
    @pytest.mark.parametrize("block", [1, 7, 100])
    def test_reports_match_one_block(self, rng, block, substeps, monkeypatch):
        for name, spec, mesh, probe in block_cases(rng):
            monkeypatch.setattr(matcore, "BLOCK", 2**40)
            whole = block_report(spec, mesh, probe, substeps)
            monkeypatch.setattr(matcore, "BLOCK", block)
            assert block_report(spec, mesh, probe, substeps) == whole, name

    @pytest.mark.parametrize("block", [1, 7, 100])
    def test_nan_trace_in_a_later_block_raises(self, block, monkeypatch):
        # finite in the first blocks: builtin max() would drop the later NaN
        def a_trace(r, t):
            return np.where(r > 0.9, complex(0.0, np.nan), -1j * r)

        spec = ConnectionSpec(1, lambda r, t: a_trace(r, t)[..., None, None], a_trace, "nan_rim")
        monkeypatch.setattr(matcore, "BLOCK", block)
        with pytest.raises(NonUnitaryConnection):
            edge_transports(spec, Mesh2D("disc", 16, 16))

    @pytest.mark.parametrize("bad", [2.0, -2.0, np.nan])
    @pytest.mark.parametrize("block", [1, 7, 100])
    def test_face_angle_past_the_guard_in_a_later_block_raises(self, block, bad, monkeypatch):
        # small nonzero angles in every face row, one past the guard in the
        # last: the rim ring's edge 5 bounds face (15, 5) only
        mesh = Mesh2D("disc", 16, 16)
        D = edge_transports(builtin_connection("example_2_7"), mesh)
        logdet = D.ring_logdet.copy()
        logdet[16 * mesh.n_t + 5] += complex(0.0, bad)
        monkeypatch.setattr(matcore, "BLOCK", block)
        assert max(1, block // mesh.n_t) < 15
        with np.errstate(invalid="ignore"), pytest.raises(Unrefined):
            chern_weil_index(replace(D, ring_logdet=logdet))

    @pytest.mark.parametrize("block", [1, 7, 100, 2**40])
    def test_flat_raw_is_positive_zero(self, block, monkeypatch):
        monkeypatch.setattr(matcore, "BLOCK", block)
        for mesh in (Mesh2D("disc", 8, 16), Mesh2D("quarter_disc", 8, 16)):
            rep = chern_weil_index(edge_transports(builtin_connection("flat", n=2), mesh))
            assert same_bits(rep.raw, 0.0) and same_bits(rep.max_face_angle, 0.0)
            assert same_bits(rep.unitarity_defect, 0.0)

    @pytest.mark.parametrize("block", [1, 7, 100, 2**40])
    def test_generators_outside_the_trace_band_are_chained(self, block, monkeypatch):
        # the drift reads the rim's generators, not its trace: here the
        # trace is rounding or exactly 0 and the generators are not
        monkeypatch.setattr(matcore, "BLOCK", block)
        for spec, mesh, loop in zero_trace_cases():
            D = edge_transports(spec, mesh)
            rep = chern_weil_index(D, loop=loop)
            assert same_bits(rep.raw, 0.0)
            assert np.abs(D.ring_logdet).max() < 1e-12
            _, drift, worst = reference_diagnostics(D, loop)
            assert rep.unitarity_defect > 0.0
            assert (rep.unitarity_defect, rep.orthogonality_defect) == (drift, worst)


def loop_faces_csv(rep, path):
    """The sidecar as a per-face loop over numpy scalars writes it."""
    n_t = rep.connection.mesh.n_t
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("face_i,face_j,alpha_f\n")
        for idx, a in enumerate(rep.face_angles):
            fh.write(f"{idx // n_t},{idx % n_t},{float(a)!r}\n")


class TestFacesCsv:
    @pytest.mark.parametrize("block", [7, 2**14])
    def test_matches_the_per_face_loop(self, rng, block, tmp_path, monkeypatch):
        # a collar: +0 interior rows and nonzero band rows, and -0 put in
        loop, _ = random_frame_loop(rng, 2, 64)
        rep = collar_report(loop, n_r=12)
        angles = rep.face_angles.copy()
        assert (angles == 0).any() and (angles != 0).any()
        angles[[3, 70, 12 * 64 - 1]] = -0.0
        rep = replace(rep, face_angles=angles)
        monkeypatch.setattr(matcore, "BLOCK", block)
        rep.faces_csv(tmp_path / "new.csv")
        loop_faces_csv(rep, tmp_path / "old.csv")
        new, old = (tmp_path / "new.csv").read_bytes(), (tmp_path / "old.csv").read_bytes()
        assert b",-0.0\n" in new and b",0.0\n" in new
        assert new == old


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

    return replace(spec, coeffs=recording("coeffs", spec.coeffs),
                   trace=recording("trace", spec.trace))


class TestAbsentRadialPart:
    @pytest.mark.parametrize("substeps", [1, 2])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_none_matches_explicit_zero(self, rng, n, substeps):
        # the angular-only trace path, and the reference integration of the
        # same form with A_r None, against a twin returning explicit zeros
        loop, _ = random_frame_loop(rng, n, 64)
        spec = build_collar_connection(loop)
        twin = zero_radial_twin(spec)
        S = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        S = S - S.conj().T
        chain = _kernels.transport_chain
        for mesh in TWIN_MESHES:
            # the trace path meets the twin's trace sums up to rounding only
            Da = edge_transports(spec, mesh, substeps)
            Db, Gb, _ = reference_connection(twin, mesh, substeps)
            assert np.abs(Da.ring_logdet - Db.ring_logdet).max() <= 1e-12
            fa, fb = curvature._face_angles(Da)[0], curvature._face_angles(Db)[0]
            assert np.abs(fa - fb).max() <= 1e-12
            assert np.array_equal(chain(full_generators(Da)), chain(Gb))
            assert transport_defects(Da) == reference_diagnostics(Db, None, Gb)[1:]
            for a, b in [(spec, twin), (radial_gauge_transform(spec, S),
                                        radial_gauge_transform(twin, S))]:
                # every edge's log det, and the faces summed over all four edges
                (Da, Ga, la), (Db, Gb, lb) = (reference_connection(x, mesh, substeps)
                                              for x in (a, b))
                assert np.array_equal(la, lb)
                assert np.array_equal(reference_face_sum(mesh, la)[0],
                                      reference_face_sum(mesh, lb)[0])
                assert np.array_equal(chain(Ga), chain(Gb))
                assert reference_diagnostics(Da, None, Ga)[1] == reference_diagnostics(Db, None, Gb)[1]
            D = edge_transports(spec, mesh, substeps)
            R = mesh.num_radial
            G = full_generators(D)
            assert D.ring_logdet.shape == (mesh.num_angular,) and not np.any(G[:R])
            T = chain(G)
            assert np.array_equal(T[:R], np.broadcast_to(np.eye(n), (R, n, n)))

    @pytest.mark.parametrize("substeps", [1, 2])
    def test_angular_spec_evaluated_on_angular_edges_only(self, rng, substeps):
        loop, _ = random_frame_loop(rng, 2, 64)
        mesh = Mesh2D("disc", 8, 64)
        points = mesh.num_angular * substeps
        angular = []
        spec = recording_coeffs(build_collar_connection(loop), angular)
        D = edge_transports(spec, mesh, substeps)
        # the index path evaluates the trace only, the diagnostics the full
        # values on the rim, and the full generators every angular edge
        assert angular == [("trace", points)]
        transport_defects(D)
        full_generators(D)
        rim = mesh.n_t * substeps
        assert angular == [("trace", points), ("coeffs", rim), ("coeffs", points)]


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
        # random ring values, the radial edges +0: the four-edge gather
        D = edge_transports(builtin_connection("flat"), mesh)
        size = mesh.num_angular
        D = replace(D, ring_logdet=rng.normal(size=size) + 1j * rng.uniform(-3, 3, size))
        logdet = full_logdet(D)
        alpha = gather_face_sum(mesh, logdet.imag)
        wrapped = (alpha + np.pi) % (2 * np.pi) - np.pi
        assert curvature._face_angles(D)[0].tobytes() == wrapped.tobytes()
        z = gather_face_sum(mesh, logdet)
        ref = z.real + 1j * ((z.imag + np.pi) % (2 * np.pi) - np.pi)
        assert curvature.complex_face_logsum(D).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("substeps", [1, 2, 3, 8, 9, 16])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_edge_logdet_is_trace_of_generators(self, rng, n, substeps):
        # a trace spec sums -tau dt, which meets the trace of its generators
        # up to rounding; the reference integration of a gauge transform
        # sums the trace of its generators
        loop, _ = random_frame_loop(rng, n, 64)
        spec = build_collar_connection(loop)
        S = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        mesh = Mesh2D("disc", 6, 64)
        D = edge_transports(spec, mesh, substeps)
        ref = np.trace(full_generators(D).sum(axis=1), axis1=-2, axis2=-1)
        assert D.ring_logdet.tobytes() == trace_logdet(D)[0].tobytes()
        assert np.abs(full_logdet(D) - ref).max() <= 1e-12
        D, G, logdet = reference_connection(radial_gauge_transform(spec, S - S.conj().T), mesh,
                                            substeps)
        assert logdet.tobytes() == np.trace(G.sum(axis=1), axis1=-2, axis2=-1).tobytes()
        assert D.ring_logdet.tobytes() == logdet[mesh.num_radial:].tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_drift_read_first_matches_full_chain(self, rng, n, monkeypatch):
        chain = _kernels.transport_chain
        chained = recording_chain(monkeypatch)
        for spec, mesh in drift_meshes_and_specs(rng, n):
            D = edge_transports(spec, mesh)
            chained.clear()
            drift, frame = transport_defects(D)
            assert frame is None
            # the n_t rim edges were chained in one call, live or not
            G = full_generators(D)
            assert_chained_the_rim(chained, mesh, G)
            rim = mesh.boundary_angular_ids()
            assert drift == matcore.unitary_defect(chain(G)[rim])
            if not G[rim].any():
                assert drift == 0.0

    def test_nan_generator_is_chained(self, monkeypatch):
        # a NaN rim generator shows in both diagnostics; the index never reads it
        nan_rim_generator(monkeypatch, 2)
        D = edge_transports(builtin_connection("flat", n=2), Mesh2D("disc", 4, 8))
        rep = chern_weil_index(D, loop=generate_loop("constant", N=8, n=2))
        assert math.isnan(rep.unitarity_defect)
        assert math.isnan(rep.orthogonality_defect)

    def test_index_leaves_generators_unbuilt(self, rng):
        loop, _ = random_frame_loop(rng, 3, 128)
        calls = []
        spec = recording_coeffs(build_collar_connection(loop), calls)
        D = edge_transports(spec, Mesh2D("disc", 8, 128))
        rep = chern_weil_index(D, loop=loop)
        assert rep.rounded is not None and rep.face_angles.size
        assert [name for name, _ in calls] == ["trace"]
        assert "_transport_defects" not in rep.__dict__

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
            # the full values build the forms from the frames, aligned on the
            # loop's first read only
            full_generators(D)
            full_generators(edge_transports(spec, mesh))
            assert [name for name, _ in calls] == ["trace", "coeffs"] and len(forms) > built
        # the first full evaluation of each loop aligned it, once
        assert guards == [64] and aligns == [64]
        assert forms == [64, 33, 64]

    def test_conjugated_and_reversed_keep_values(self, rng):
        loop, _ = random_frame_loop(rng, 2, 64)
        spec = build_collar_connection(loop)
        S = np.array([[1j, 0.5], [-0.5, -1j]])
        # the gauge transform's d(theta) part alone: a spec with conjugated values
        chain = _kernels.transport_chain
        for sp in (spec, radial_gauge_transform(spec, S).spec):
            D = edge_transports(sp, Mesh2D("disc", 8, 64), 2)
            G = full_generators(D)
            for other in (replace(D, ring_logdet=D.ring_logdet.conj()),
                          replace(D, mesh=D.mesh.reversed())):
                assert full_generators(other).tobytes() == G.tobytes()
                assert chain(full_generators(other)).tobytes() == chain(G).tobytes()


def trace_logdet(D):
    """ring_logdet of a trace spec by its formula: -sum over substeps of tau dt."""
    r_mid, t_mid, dt = D.mesh.edge_quadrature(D.substeps)
    tau = D.spec.trace(r_mid.ravel(), t_mid.ravel()).reshape(r_mid.shape)
    return (-(tau * dt)).sum(axis=1), tau


def full_array_reference(D, form=None):
    """Skew defect, every edge's log det and G by the formulas over every evaluated row.

    The full values are evaluated here, not read from ``D``, and returned
    too: [A_theta], or [A_r, A_theta] for a form with a dr part.  ``D.spec``
    is evaluated on the angular edges only; ``form``, when given, is the
    FullForm or spec that ``reference_connection`` integrated into ``D``,
    evaluated with its A_r on every edge.
    """
    skip = D.mesh.num_radial if form is None else 0
    radial = None if form is None else full_form(form).radial
    r_mid, t_mid, dr, dt = (a[skip:] for a in full_quadrature(D.mesh, D.substeps))
    shape = r_mid.shape + (D.n, D.n)
    r, t = r_mid.ravel(), t_mid.ravel()
    A_theta = np.asarray(D.spec.coeffs(r, t), dtype=complex).reshape(shape)
    A_r = None if radial is None else np.asarray(radial(r, t), dtype=complex).reshape(shape)
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
    """Collar, arc and orbifold specs with their meshes, plus a gauge transform's FullForm."""
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
            if isinstance(spec, FullForm):
                # the reference integration sums the trace of its generators
                D, G_ref, logdet_ref = reference_connection(spec, mesh, substeps)
                skew, logdet, G, _ = full_array_reference(D, spec)
                assert skew <= TOL.skew
                assert G_ref.tobytes() == G.tobytes()
                assert logdet_ref.tobytes() == logdet.tobytes()
                assert D.ring_logdet.tobytes() == logdet[mesh.num_radial:].tobytes()
            else:
                D = edge_transports(spec, mesh, substeps)
                skew, logdet, G, _ = full_array_reference(D)
                assert skew <= TOL.skew
                assert full_generators(D).tobytes() == G.tobytes()
                # it sums -tau dt over the rows of its nonzero traces, which
                # meets the diagonal sums up to rounding
                trace_ref, tau = trace_logdet(D)
                assert D.ring_logdet.tobytes() == trace_ref.tobytes()
                assert np.abs(full_logdet(D) - logdet).max() <= 1e-12
                assert_tight(curvature._live_rows(tau), [tau])

    def test_collar_range_skips_the_interior(self, rng):
        loop, _ = random_frame_loop(rng, 2, 64)
        mesh = Mesh2D("disc", 12, 64)
        D = edge_transports(build_collar_connection(loop), mesh)
        # rows are angular edges ring by ring; the width-0.3 collar lives on r > 0.7
        first_ring = int(np.argmax(mesh.r_nodes > 0.7))
        live = curvature._live_rows(trace_logdet(D)[1])
        assert live == slice(first_ring * mesh.n_t, (mesh.n_r + 1) * mesh.n_t)
        assert not D.ring_logdet[:live.start].any()

    @pytest.mark.parametrize("n", [1, 3])
    def test_all_rows_zero(self, n):
        # the trace path and the reference integration both give exact +0 rows
        mesh = Mesh2D("disc", 8, 32)
        flat = builtin_connection("flat", n=n)
        D = edge_transports(flat, mesh, 2)
        F, G_F, logdet_F = reference_connection(flat, mesh, 2)
        assert logdet_F.tobytes() == np.zeros(mesh.num_edges, complex).tobytes()
        for D, G_D, form in ((D, full_generators(D), None), (F, G_F, flat)):
            skew, logdet, G, _ = full_array_reference(D, form)
            assert skew == 0.0
            assert full_logdet(D).tobytes() == logdet.tobytes()
            assert logdet.tobytes() == np.zeros(mesh.num_edges, complex).tobytes()
            assert G_D.tobytes() == G.tobytes()
            assert transport_defects(D) == (0.0, None)
            assert chern_weil_index(D).rounded == 0
        D = edge_transports(flat, mesh, 2)
        assert curvature._live_rows(trace_logdet(D)[1]) == slice(0, 0)

    def test_all_rows_live(self):
        # -i (1 + r) is nonzero on the centre ring too, where example_2_7 vanishes
        spec = ConnectionSpec(1, lambda r, t: (-1j * (1.0 + r))[..., None, None],
                            lambda r, t: -1j * (1.0 + r), "shifted_example")
        mesh = Mesh2D("disc", 8, 32)
        D = edge_transports(spec, mesh, 2)
        assert curvature._live_rows(trace_logdet(D)[1]) == slice(0, mesh.num_angular)
        _, logdet, G, _ = full_array_reference(D)
        # rank 1: the trace is the value itself, so the sums agree bitwise
        assert D.ring_logdet.tobytes() == logdet[mesh.num_radial:].tobytes()
        assert full_generators(D).tobytes() == G.tobytes()
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
        r_mid, t_mid, _ = mesh.edge_quadrature(1)
        r0, t0 = r_mid[k, 0], t_mid[k, 0]

        def a_theta(r, t):
            hit = (r == r0) & (t == t0)
            return np.where(hit, 1.0 + 0j, 0j)[..., None, None]

        # the trace path checks the trace, the reference every evaluated row
        spec = ConnectionSpec(1, a_theta, lambda r, t: a_theta(r, t)[..., 0, 0], f"hermitian_{row}")
        for integrate_spec in (edge_transports, reference_connection):
            with pytest.raises(NonUnitaryConnection):
                integrate_spec(spec, mesh)

    def test_nan_theta_part_caught_beside_a_radial_part(self):
        # a NaN A_theta beside a zero A_r: builtin max() could drop the NaN
        def a_theta(r, t):
            return np.where(r > 0.9, np.nan, -1j * r)[..., None, None].astype(complex)

        spec = ConnectionSpec(1, a_theta, lambda r, t: a_theta(r, t)[..., 0, 0], "nan_theta")
        with pytest.raises(NonUnitaryConnection):
            edge_transports(spec, Mesh2D("disc", 16, 16))
        with pytest.raises(NonUnitaryConnection):
            reference_connection(zero_radial_twin(spec), Mesh2D("disc", 16, 16))


class TestDiagonalPath:
    @pytest.mark.parametrize("substeps", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_full_path(self, rng, n, substeps):
        # collar, arc collar and orbifold specs against the reference
        # integration of the same forms, in full on every edge; the gauge
        # transform's FullForm has a dr part
        specs = [(sp, m) for sp, m in live_range_specs(rng, n) if not isinstance(sp, FullForm)]
        assert len(specs) == 3
        for spec, mesh in specs:
            D = edge_transports(spec, mesh, substeps)
            F, G, _ = reference_connection(spec, mesh, substeps)
            # the trace meets the diagonal sums of the full values up to rounding
            assert np.abs(D.ring_logdet - F.ring_logdet).max() <= 1e-12
            rep, ref = chern_weil_index(D, CASE_QUANTUM), chern_weil_index(F, CASE_QUANTUM)
            assert np.abs(rep.face_angles - ref.face_angles).max() <= 1e-12
            assert abs(rep.raw - ref.raw) <= 1e-9 and rep.rounded == ref.rounded
            # the generators agree up to the sign of the radial rows' zeros,
            # and the diagnostics chained from the reference's rim agree bitwise
            assert np.array_equal(full_generators(D), G)
            _, drift, worst = reference_diagnostics(F, rep.probe, G)
            assert rep.unitarity_defect == drift
            assert rep.orthogonality_defect == worst
            assert (rep.orthogonality_defect is None) == (not mesh.wrap)

    def test_nan_in_boundary_form_rejected(self, rng, monkeypatch):
        loop, _ = random_frame_loop(rng, 2, 64)
        path = loop.samples[:33].copy()
        path[5, 0, 1] = np.nan
        with pytest.raises(NonUnitaryConnection):
            build_arc_collar_connection(path, t_span=0.5 * np.pi)
        # a NaN off the diagonal of the frame-derived form, which the index
        # path never reads: the builds and the index pass, the first full
        # evaluation raises
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
                full_generators(D)

    def test_nan_diagonal_rejected(self):
        def a_trace(r, t):
            return np.where(r > 0.9, np.nan, -1j * r)

        spec = ConnectionSpec(1, lambda r, t: a_trace(r, t)[..., None, None], a_trace, "nan_trace")
        with pytest.raises(NonUnitaryConnection):
            edge_transports(spec, Mesh2D("disc", 16, 16))

    def test_full_values_checked_when_G_is_read(self):
        # the trace is imaginary, the off-diagonals Hermitian: the index path
        # passes, and the full check runs where the full values are evaluated
        def a_theta(r, t):
            A = np.zeros(r.shape + (2, 2), dtype=complex)
            A[..., 0, 0] = 1j * r
            A[..., 0, 1] = A[..., 1, 0] = r
            return A

        spec = ConnectionSpec(2, a_theta, lambda r, t: np.trace(a_theta(r, t), axis1=-2, axis2=-1),
                            "hermitian_offdiag")
        D = edge_transports(spec, Mesh2D("disc", 4, 8))
        assert chern_weil_index(D).rounded is not None
        with pytest.raises(NonUnitaryConnection):
            full_generators(D)
        with pytest.raises(NonUnitaryConnection):
            transport_defects(D)


def face_holonomy(D, f):
    """Ordered product of the four edge transports around face ``f``."""
    ids, signs = D.mesh.face_edges()
    H = np.eye(D.n, dtype=complex)
    for T, sg in zip(_kernels.transport_chain(full_generators(D)[ids[f]]), signs[f]):
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
        spec = ConnectionSpec(1, lambda r, t: (-80j * r)[..., None, None], lambda r, t: -80j * r,
                            "steep")
        with pytest.raises(Unrefined):
            chern_weil_index(edge_transports(spec, Mesh2D("disc", 16, 16)), Fraction(1))

    def test_nan_form_raises_library_error(self):
        def a_trace(r, t):
            return np.where(r > 0.9, np.nan, -1j * r)

        spec = ConnectionSpec(1, lambda r, t: a_trace(r, t)[..., None, None], a_trace, "nan_rim")
        with pytest.raises(NonUnitaryConnection):
            chern_weil_index(edge_transports(spec, Mesh2D("disc", 16, 16)), Fraction(1))
        with pytest.raises(NonUnitaryConnection):
            chern_weil_index(reference_connection(spec, Mesh2D("disc", 16, 16))[0], Fraction(1))

    def test_nan_face_angle_trips_the_guard(self):
        D = edge_transports(builtin_connection("example_2_7"), Mesh2D("disc", 16, 16))
        logdet = D.ring_logdet.copy()
        logdet[-1] = complex(0.0, np.nan)
        with pytest.raises(Unrefined):
            chern_weil_index(replace(D, ring_logdet=logdet), Fraction(1))

    def test_determinism_bitwise(self, rng):
        loop, _ = random_frame_loop(rng, 2, 256)
        a = collar_report(loop)
        b = collar_report(loop)
        assert a.raw == b.raw
        assert np.array_equal(a.face_angles, b.face_angles)


def loop_frame_defect(T, loop):
    """The frame defect, one vertex at a time, with builtin ``max``; and the direct residual.

    Returns (defect, residual): the defect takes sqrt(sum (1 - sigma)^2 +
    ||Im M||^2) at each vertex, the residual ||M - U V^T||_F from the SVD
    U diag(sigma) V^T of Re M.
    """
    N, n, n_t = len(loop), loop.n, len(T)
    P = np.empty_like(T)
    acc = np.eye(n, dtype=complex)
    for j, Tj in enumerate(T):
        acc = Tj @ acc
        P[j] = acc
    targets = loop.samples[(np.arange(1, n_t + 1) * (N // n_t)) % N]
    M = np.swapaxes((P @ loop.samples[0]).conj(), -1, -2) @ targets
    worst = residual = 0.0
    for Mj in M:
        sv = np.linalg.svd(np.real(Mj), compute_uv=False)
        worst = max(worst, math.sqrt(((1.0 - sv) ** 2).sum() + (Mj.imag ** 2).sum()))
        U, _, Vt = np.linalg.svd(np.real(Mj))
        residual = max(residual, float(np.linalg.norm(Mj - U @ Vt)))
    return worst, residual


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

    @pytest.mark.parametrize("n", range(1, 9))
    def test_batched_norms_match_the_per_vertex_loop(self, rng, n):
        # near-unitary rim transports, so the vertex defects are small, where
        # ||M_j||^2 + n - 2 sum(sv) would cancel; the sum of squares does not
        for N, n_t in ((64, 64), (96, 32), (40, 8)):
            loop, _ = random_frame_loop(rng, n, N)
            for scale in (0.0, 1e-6, 0.3):
                H = rng.normal(size=(n_t, n, n)) + 1j * rng.normal(size=(n_t, n, n))
                S = scale * (H - np.swapaxes(H, -1, -2).conj())
                T = _kernels.transport_chain(S[:, None])
                worst, residual = loop_frame_defect(T, loop)
                assert curvature._frame_defect(T, loop) == worst
                assert abs(worst - residual) <= 1e-14

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_nan_rim_transport_gives_nan(self, rng, n):
        # the SVD of a NaN matrix does not converge, and builtin max() would
        # drop a NaN vertex defect after the first
        loop, _ = random_frame_loop(rng, n, 64)
        mesh = Mesh2D("disc", 8, 64)
        D = edge_transports(build_collar_connection(loop), mesh)
        T = _kernels.transport_chain(full_generators(D)[mesh.boundary_angular_ids()])
        assert math.isfinite(curvature._frame_defect(T, loop))
        for j in (0, 37):
            bad = T.copy()
            bad[j, 0, 0] = np.nan
            assert math.isnan(curvature._frame_defect(bad, loop))


class TestConjugationAndOrientation:
    def test_conjugation_negates_exactly(self, rng):
        loop, _ = random_frame_loop(rng, 2, 256)
        D = edge_transports(build_collar_connection(loop), Mesh2D("disc", 16, 256))
        a = curvature._face_angles(D)[0]
        a_conj = curvature._face_angles(replace(D, ring_logdet=D.ring_logdet.conj()))[0]
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
        mirrored = replace(D, ring_logdet=D.ring_logdet.conj(), mesh=D.mesh.reversed())
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
        # the gauge transform has a dr part: its faces sum all four edges
        raw1 = reference_face_sum(mesh, reference_connection(gauged, mesh, substeps=2)[2])[1]
        assert abs(rep0.raw - raw1) <= 2e-2
        assert rep0.rounded == round(raw1) == idx

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), N=st.sampled_from([64, 128]),
           amplitude=st.floats(-1.5, 1.5))
    def test_random_interior_gauge_leaves_index(self, seed, n, N, amplitude):
        loop = hypothesis_loop(seed, n, N)
        re, im = np.random.default_rng(seed).normal(size=(2, n, n))
        S = re + 1j * im
        spec = build_collar_connection(loop)
        # the gauge transform has a dr part: the reference integrates it in
        # full and sums every face over its four edges
        gauged = radial_gauge_transform(spec, S - S.conj().T, amplitude=amplitude)
        assert gauged.radial is not None
        mesh = Mesh2D("disc", 16, N)
        rep0 = chern_weil_index(edge_transports(spec, mesh, substeps=2))
        alpha, raw1 = reference_face_sum(mesh, reference_connection(gauged, mesh, 2)[2])
        assert np.max(np.abs(alpha)) < TOL.face_angle_guard
        assert abs(rep0.raw - raw1) <= 2e-2
        assert rep0.rounded == round(raw1) == maslov_loop(loop)


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
            r_min = mesh.edge_quadrature(substeps)[0][-n_t:].min()
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

        spec = ConnectionSpec(1, lambda r, t: np.zeros(r.shape + (1, 1), complex),
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
        mesh = Mesh2D("disc", 32, 32)
        D = edge_transports(builtin_connection("example_2_7"), mesh)
        flat = edge_transports(builtin_connection("flat"), mesh)
        tiny, huge = Fraction(1, 10**300), Fraction(10**300)
        assert chern_weil_index(D, huge).quantum == huge
        assert chern_weil_index(flat, tiny).quantum == tiny
        # raw is no closer to a multiple of a tiny quantum than its rounding error
        with pytest.raises(Unrefined, match="rounding bound"):
            chern_weil_index(D, tiny)


    def test_rounding_past_the_bound_raises(self):
        # 16^2 is too coarse for a quantum of 1/64: raw 1.9616 lies 0.46
        # quanta from 63/32, the nearest multiple, and would report it
        D = edge_transports(builtin_connection("example_2_7"), Mesh2D("disc", 16, 16))
        with pytest.raises(Unrefined, match="rounding bound"):
            chern_weil_index(D, Fraction(1, 64))
        rep = chern_weil_index(D, Fraction(1, 2))
        assert rep.rounded == 2 and rep.residual <= TOL.rounding_residual / 2


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
        rev = reversed_loop(loop)
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
                At = spec.coeffs(rr, t)
                assert np.abs(np.trace(At, axis1=-2, axis2=-1) - spec.trace(rr, t)).max() <= 1e-12
                assert matcore.skew_defect(At) == 0.0


def same_bits(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def full_grid_angles(D):
    """Principal face angles of every face by the full-grid gather, radial edges +0."""
    alpha = gather_face_sum(D.mesh, full_logdet(D).imag)
    return (alpha + np.pi) % (2 * np.pi) - np.pi


def assert_report_matches_full_grid(rep):
    full = full_grid_angles(rep.connection)
    assert curvature._face_angles(rep.connection)[0].tobytes() == full.tobytes()
    assert rep.face_angles.tobytes() == full.tobytes()
    assert same_bits(rep.raw, math.fsum(full.tolist()) / math.pi)
    assert same_bits(rep.max_face_angle, float(np.max(np.abs(full))))


# ring values: signed zeros, NaN, infinities, angles that wrap, and any float
RING_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, math.pi, -math.pi, 3 * math.pi]),
    st.floats(-4 * math.pi, 4 * math.pi),
    st.floats(),
)


def four_term_face_angles(mesh, x):
    """(alpha, live span, worst |angle|) of the four-term face sums ((p + q) - r) - u of ``x`` (E,).

    The live span runs from the first face row with a nonzero edge to the
    last; a NaN or inf counts as nonzero.
    """
    p, q, r, u = four_term_faces(mesh, x)
    alpha = curvature._principal(((p + q) - r) - u)[0].ravel()
    ids, _ = mesh.face_edges()
    rows = np.flatnonzero((x[ids] != 0).any(axis=1).reshape(mesh.n_r, mesh.n_t).any(axis=1))
    span = slice(rows[0] * mesh.n_t, (rows[-1] + 1) * mesh.n_t) if rows.size else slice(0, 0)
    return alpha, span, float(np.max(np.abs(alpha)))


def band_cases(rng):
    """(name, spec or FullForm, mesh, gap): ``gap`` says the nonzero rows come in two runs."""
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


# one entry per block of ``test_principal_blocks_in_and_out_of_range``: the
# value of t, named by where t + pi falls; both differences with pi are
# exact (Sterbenz), so t + pi gives back 2 pi less one ulp
PRINCIPAL_EDGES = {
    None: None,
    "zero": -np.pi,
    "below_zero": np.nextafter(-np.pi, -np.inf),
    "two_pi_less_ulp": np.nextafter(2 * np.pi, 0.0) - np.pi,
    "two_pi": np.pi,
    "nan": np.nan,
    "inf": np.inf,
    "-inf": -np.inf,
}


def assert_principal_matches(t):
    """``_principal(t)`` against the remainder formula, bitwise, with its largest |angle|.

    The remainder must run exactly when some t + pi lies outside [0, 2 pi)
    or is NaN.
    """
    with np.errstate(invalid="ignore"):
        a = t + np.pi
        want = a % (2 * np.pi) - np.pi
        in_range = bool(((a >= 0.0) & (a < 2 * np.pi)).all())
        with mock.patch.object(curvature.np, "remainder", wraps=np.remainder) as spy:
            got, worst = curvature._principal(t)
    assert got.tobytes() == want.tobytes()
    want_worst = float(np.max(np.abs(want)))
    assert same_bits(worst, want_worst) or (math.isnan(worst) and math.isnan(want_worst))
    assert spy.called == (not in_range)


class TestFaceBand:
    def test_band_matches_full_grid(self, rng):
        for name, spec, mesh, gap in band_cases(rng):
            D = integrate(spec, mesh)
            assert_report_matches_full_grid(chern_weil_index(D, CASE_QUANTUM))
            # the band is exactly the rows holding a nonzero face edge
            ids, _ = mesh.face_edges()
            live = (full_logdet(D).imag[ids] != 0).any(axis=1).reshape(mesh.n_r, mesh.n_t).any(axis=1)
            # the live span runs from the first such row to the last, gap included
            _, span, _ = curvature._face_angles(D)
            rows = np.flatnonzero(live)
            assert span == slice(rows[0] * mesh.n_t, (rows[-1] + 1) * mesh.n_t), name
            runs = np.count_nonzero(np.diff(np.concatenate([[0], live.astype(int), [0]])) == 1)
            assert runs == (2 if gap else 1), name
            if name != "gauge":
                assert not live.all(), name

    @pytest.mark.parametrize("n", [1, 3])
    def test_flat_is_exact_positive_zero(self, n):
        D = edge_transports(builtin_connection("flat", n=n), Mesh2D("disc", 8, 16))
        rep = chern_weil_index(D)
        assert same_bits(rep.raw, 0.0) and same_bits(rep.max_face_angle, 0.0)
        assert curvature._face_angles(D)[1:] == (slice(0, 0), 0.0)
        assert_report_matches_full_grid(rep)

    @pytest.mark.parametrize("bad", [complex(0.0, np.nan), complex(0.0, np.inf)])
    @pytest.mark.parametrize("edge", ["ring", "center"])
    def test_non_finite_edge_in_a_zero_row_trips_the_guard(self, rng, edge, bad):
        loop, _ = random_frame_loop(rng, 2, 64)
        mesh = Mesh2D("disc", 16, 64)
        D = edge_transports(build_collar_connection(loop), mesh)
        assert not np.abs(curvature._face_angles(D)[0]).reshape(16, 64)[:3].any()
        logdet = D.ring_logdet.copy()
        # ring 2 bounds face rows 1 and 2; the centre ring, row 0 alone
        logdet[(2 if edge == "ring" else 0) * mesh.n_t + 5] = bad
        with np.errstate(invalid="ignore"), pytest.raises(Unrefined):
            chern_weil_index(replace(D, ring_logdet=logdet))

    @settings(max_examples=300, deadline=None)
    @given(domain=st.sampled_from(DOMAINS), reverse=st.booleans(), n_r=st.integers(2, 5),
           n_t=st.integers(4, 7), block=st.sampled_from([1, 7, 12, 2**14]), data=st.data())
    def test_ring_faces_match_the_four_term_sum(self, domain, reverse, n_r, n_t, block, data):
        # the ring-only faces against the sum over all four edges with the
        # radial ones +0, bitwise: angles, live span, worst angle and the
        # complex face sums, whose real part keeps its signed zeros
        mesh = Mesh2D(domain, n_r, n_t)
        mesh = mesh.reversed() if reverse else mesh
        size = mesh.num_angular
        parts = [np.array(data.draw(st.lists(RING_VALUES, min_size=size, max_size=size)))
                 for _ in range(2)]
        # whole rings of signed zeros, so that live spans start, end and gap
        zero = np.repeat(data.draw(st.lists(st.booleans(), min_size=n_r + 1, max_size=n_r + 1)),
                         n_t)
        x = np.empty(size, dtype=complex)
        x.real, x.imag = (np.where(zero, np.copysign(0.0, a), a) for a in parts)
        D = curvature.DiscreteConnection(mesh, builtin_connection("flat"), 1, x)
        full = full_logdet(D)
        with np.errstate(invalid="ignore", over="ignore"), \
                mock.patch.object(matcore, "BLOCK", block):
            alpha, span, worst = curvature._face_angles(D)
            z = curvature.complex_face_logsum(D)
            ref_alpha, ref_span, ref_worst = four_term_face_angles(mesh, full.imag)
            p, q, r, u = four_term_faces(mesh, full)
            ref_z = ((p + q) - (r + u)).ravel()
            ref_z = ref_z.real + 1j * curvature._principal(ref_z.imag)[0]
        assert alpha.tobytes() == ref_alpha.tobytes()
        assert span == ref_span
        assert same_bits(worst, ref_worst) or (math.isnan(worst) and math.isnan(ref_worst))
        assert z.tobytes() == ref_z.tobytes()

    def test_principal_matches_the_remainder_formula(self, rng):
        edges = np.array([0.0, -0.0, np.pi, -np.pi, 2 * np.pi, -2 * np.pi, 3 * np.pi, -3 * np.pi,
                          1e300, -1e300, 5e-324, np.nan, np.inf, -np.inf])
        near = np.nextafter(edges[2:8, None], [[-np.inf, np.inf]]).ravel()
        t = np.concatenate([edges, near, rng.uniform(-10, 10, 1000), rng.uniform(-1, 1, 1000)])
        assert_principal_matches(t)

    @pytest.mark.parametrize("shape", [(1,), (6,), (3, 5), (40, 16)])
    @pytest.mark.parametrize("edge", list(PRINCIPAL_EDGES))
    def test_principal_blocks_in_and_out_of_range(self, rng, shape, edge):
        # a block wholly in range, or with one entry on or just past an end
        # of [0, 2 pi) for t + pi, or not finite; t + pi = -0 cannot arise,
        # since a sum with pi is never -0
        t = rng.uniform(-3.0, 3.0, shape)
        if edge is not None:
            t.flat[rng.integers(t.size)] = PRINCIPAL_EDGES[edge]
        assert_principal_matches(t)

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

import numpy as np
import pytest
from fractions import Fraction
from types import SimpleNamespace

from maslovcw import polygon
from maslovcw.errors import NotTransverse, RankMismatch, Undersampled, ViolatedIdentity
from maslovcw.grassmann import LagrangianFrame, positive_path, same_lagrangian
from maslovcw.loops import FrameLoop, maslov_loop
from maslovcw.polygon import (
    TransversalBundleData,
    bigon_standard,
    build_L_loop,
    fredholm_index,
    glue_quadrants,
    maslov_viterbo,
    mu_cw_polygon,
    mu_top,
    polygon_from_json,
    quarter_model_report,
    random_transversal_data,
)


def twist_edge(edge, turns=1):
    """Scale the first frame column by e^{2 pi i turns t}; endpoints unchanged.

    Adds exactly 2*turns to the winding of det^2 along the edge.
    """
    edge = np.array(edge, dtype=complex)
    edge[:, :, 0] *= np.exp(2j * np.pi * turns * np.linspace(0.0, 1.0, len(edge)))[:, None]
    return edge


def sample_edges(rng, n, kp1, samples=64):
    """``random_transversal_data``'s edges drawn with ``samples`` points per edge.

    Rebuilds every fixed frame on each draw; at 64 samples the edges are
    bitwise the generator's.
    """
    t = np.linspace(0.0, 1.0, samples)
    edges = []
    for i in range(kp1):
        for _attempt in range(60):
            Q = polygon.matcore.haar_unitary(n, rng)
            K = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            K = 0.5 * (K - K.conj().T)
            K *= 2.0 / max(np.linalg.norm(K), 1e-9)
            lam, V = np.linalg.eigh(-1j * K)
            ph = np.exp(1j * np.outer(t, lam))
            path = Q @ np.einsum("ij,tj,kj->tik", V, ph, V.conj())
            ok = i == 0 or polygon.intersection_dim(
                LagrangianFrame.from_matrix(edges[-1][-1]),
                LagrangianFrame.from_matrix(path[0])) == 0
            if ok and i == kp1 - 1:
                F = LagrangianFrame.from_matrix(path[-1])
                ok = polygon.intersection_dim(
                    F, LagrangianFrame.from_matrix(edges[0][0])) == 0
            if ok:
                edges.append(path)
                break
    return edges


class TestConstruction:
    def test_single_edge_rejected(self):
        e = np.tile(np.eye(2, dtype=complex), (16, 1, 1))
        with pytest.raises(NotTransverse):
            TransversalBundleData(2, [e])

    def test_non_transverse_corner_rejected(self):
        e = np.tile(np.eye(2, dtype=complex), (16, 1, 1))
        with pytest.raises(NotTransverse):
            TransversalBundleData(2, [e, e.copy()])

    def test_rank_mismatch(self):
        e = np.tile(np.eye(2, dtype=complex), (16, 1, 1))
        with pytest.raises(RankMismatch):
            TransversalBundleData(3, [e, 1j * e])

    def test_edges_are_read_only_copies(self, rng):
        pristine = random_transversal_data(rng, 2, 3)
        source = [e.copy() for e in pristine.edges]
        data = TransversalBundleData(2, source)
        frames = [(F.u.copy(), G.u.copy()) for F, G in map(data.vertex_pair, range(3))]
        for e in source:
            e[...] = np.eye(2)  # every corner of the mutated source is degenerate
        with pytest.raises(NotTransverse):
            TransversalBundleData(2, source)
        with pytest.raises(ValueError):
            data.edges[0][0, 0, 0] = 0.0
        assert all(np.array_equal(a, b) for a, b in zip(data.edges, pristine.edges))
        for (F, G), (u, v) in zip(map(data.vertex_pair, range(3)), frames):
            assert np.array_equal(F.u, u) and np.array_equal(G.u, v)
        assert np.array_equal(data.closed_loop.samples, pristine.closed_loop.samples)
        assert mu_cw_polygon(data) == mu_cw_polygon(pristine)


class TestLLoop:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_standard_bigon_winds_by_rank(self, n):
        data = bigon_standard(n)
        loop = build_L_loop(data)
        assert maslov_loop(loop) == n

    def test_seams_close(self, rng):
        data = random_transversal_data(rng, 2, 3)
        for i in range(data.k_plus_1):
            F, G = data.vertex_pair(i)
            path = positive_path(F, G)
            assert same_lagrangian(LagrangianFrame(path.n, path.sample(np.array([1.0]))[0]), G)
        # whole loop passes construction guards, so it closes as sampled data
        loop = build_L_loop(data)
        assert loop.n == 2

    def test_closed_loop_built_once_per_polygon(self, monkeypatch):
        calls = []

        def counting(data):
            calls.append(data)
            return build_L_loop(data)

        monkeypatch.setattr(polygon, "build_L_loop", counting)
        data = bigon_standard(2)
        mu_cw_polygon(data, verify=True)
        fredholm_index(data)
        maslov_viterbo(data)
        assert mu_top(data) == 2
        assert calls == [data]
        assert np.array_equal(data.closed_loop.samples, build_L_loop(bigon_standard(2)).samples)

    def test_rank_16_worst_corner_closes_in_one_construction(self, monkeypatch):
        # corner angles pi - 1e-6 at rank 16: det B turns by just under pi/2
        # per corner step, the tightest case the corner sampling allows
        e0 = np.tile(np.eye(16, dtype=complex), (64, 1, 1))
        data = TransversalBundleData(16, [e0, np.exp(1j * (np.pi - 1e-6)) * e0])
        built = []

        def counting(n, samples):
            built.append(len(samples))
            return FrameLoop(n, samples)

        monkeypatch.setattr(polygon, "FrameLoop", counting)
        loop = build_L_loop(data)
        assert built == [2 * 64 + 2 * 63]
        worst = np.abs(loop.phase_increments()).max()
        assert np.pi / 2 - 1e-5 < worst < np.pi / 2
        assert maslov_loop(loop) == 16

    def test_undersampled_edge_raises_after_one_construction(self, monkeypatch, rng):
        data = random_transversal_data(rng, 2, 3)
        # det B turns by 40 pi / 63 > pi/2 per step along the twisted edge
        data = TransversalBundleData(2, [twist_edge(data.edges[0], turns=10)] + data.edges[1:])
        built = []

        def counting(n, samples):
            built.append(len(samples))
            return FrameLoop(n, samples)

        monkeypatch.setattr(polygon, "FrameLoop", counting)
        with pytest.raises(Undersampled):
            build_L_loop(data)
        assert len(built) == 1

    def test_edge_sampling_density_independence(self):
        # the same random edge paths, sampled at 64 and at 128 points
        coarse, fine = (TransversalBundleData(2, sample_edges(np.random.default_rng(99), 2, 3, m))
                        for m in (64, 128))
        drawn = random_transversal_data(np.random.default_rng(99), 2, 3).edges
        assert all(np.array_equal(a, b) for a, b in zip(coarse.edges, drawn))
        assert mu_top(coarse) == mu_top(fine)


class TestMuTop:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_bigon_value(self, n):
        assert mu_top(bigon_standard(n)) == n

    def test_twist_adds_two(self, rng):
        data = random_transversal_data(rng, 2, 3)
        base = mu_top(data)
        twisted = TransversalBundleData(
            2, [twist_edge(data.edges[0])] + [e.copy() for e in data.edges[1:]]
        )
        assert mu_top(twisted) == base + 2


class TestQuarterModel:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_half_rank(self, n):
        rep = quarter_model_report(LagrangianFrame.standard(n))
        assert rep.rounded == Fraction(n, 2)
        assert abs(rep.raw - n / 2) <= 1e-2

    def test_four_rotated_copies_glue_to_full_disc(self, rng):
        for n in (1, 2):
            frame = LagrangianFrame.from_matrix(
                np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
            )
            glued = glue_quadrants(frame)
            assert maslov_loop(glued) == 2 * n
            quarter = quarter_model_report(frame)
            assert abs(4 * quarter.raw - 2 * n) <= 2e-2


class TestMuCw:
    def test_bigon_is_zero(self):
        value, _ = mu_cw_polygon(bigon_standard(2))
        assert value == 0

    def test_relation_arithmetic(self, rng):
        data = random_transversal_data(rng, 2, 3)
        top = mu_top(data)
        value, _ = mu_cw_polygon(data)
        assert value == Fraction(top) - Fraction(3 * 2, 2)

    def test_curvature_route_agrees(self, rng):
        for _ in range(3):
            n = int(rng.integers(1, 4))
            kp1 = int(rng.integers(2, 5))
            data = random_transversal_data(rng, n, kp1)
            value, details = mu_cw_polygon(data, verify=True)
            assert details["residual"] <= 2e-2

    def test_nan_integral_fails_the_raw_agreement(self, monkeypatch):
        nan = SimpleNamespace(raw=float("nan"))
        monkeypatch.setattr(polygon, "quarter_model_report", lambda frame: nan)
        with pytest.raises(ViolatedIdentity):
            mu_cw_polygon(bigon_standard(1), verify=True)


class TestCornerWorkOnce:
    @pytest.mark.parametrize("kp1", [2, 4])
    def test_frames_and_quarter_model_built_once(self, kp1, monkeypatch, rng):
        edges = random_transversal_data(rng, 2, kp1).edges
        frames, models = [], []
        from_matrix = LagrangianFrame.from_matrix.__func__

        def counting_frame(cls, u):
            frames.append(u)
            return from_matrix(cls, u)

        def counting_model(model):
            models.append(model)
            return quarter_model_report(model)

        monkeypatch.setattr(LagrangianFrame, "from_matrix", classmethod(counting_frame))
        monkeypatch.setattr(polygon, "quarter_model_report", counting_model)
        data = TransversalBundleData(2, edges)
        mu_cw_polygon(data, verify=True)
        fredholm_index(data)
        if kp1 == 2:
            maslov_viterbo(data)
        assert len(frames) == 2 * kp1
        assert len(models) == 1

    @pytest.mark.parametrize("rejects", [0, 3])
    @pytest.mark.parametrize("n, kp1", [(1, 3), (2, 4), (3, 5)])
    def test_generator_builds_fixed_frames_once_per_edge(self, n, kp1, rejects, monkeypatch):
        # the first ``rejects`` transversality checks fail, so edge 1 is redrawn
        # that often; the data stays bitwise that of a generator rebuilding
        # the previous edge's end frame on every draw, with one frame fewer per redraw
        from_matrix = LagrangianFrame.from_matrix.__func__
        intersection_dim = polygon.intersection_dim
        frames, checks = [], []

        def counting_frame(cls, u):
            frames.append(u)
            return from_matrix(cls, u)

        def failing_first(F, G):
            checks.append(1)
            return 1 if len(checks) <= rejects else intersection_dim(F, G)

        monkeypatch.setattr(LagrangianFrame, "from_matrix", classmethod(counting_frame))
        monkeypatch.setattr(polygon, "intersection_dim", failing_first)
        ref = sample_edges(np.random.default_rng(kp1), n, kp1)
        ref_frames, frames[:], checks[:] = len(frames), [], []
        got = random_transversal_data(np.random.default_rng(kp1), n, kp1).edges
        assert [e.tobytes() for e in got] == [e.tobytes() for e in ref]
        # the generator's frames, then the constructor's 2 (k+1)
        assert len(frames) - 2 * kp1 == ref_frames - rejects

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("kp1", [2, 3, 4, 5, 6])
    def test_one_model_matches_per_vertex_sum(self, n, kp1):
        data = random_transversal_data(np.random.default_rng(10 * n + kp1), n, kp1)
        value, details = mu_cw_polygon(data, verify=True)
        models = [quarter_model_report(data.vertex_pair(i)[0])
                  for i in range(kp1)]
        reference = details["disc_raw"] - sum(m.raw for m in models)
        assert abs(details["raw"] - reference) <= 1e-14
        assert all(m.rounded == Fraction(n, 2) for m in models)
        top = mu_top(data)
        assert (value, details["mu_top"], details["k_plus_1"]) == (
            Fraction(top) - Fraction(kp1 * n, 2), top, kp1)
        assert Fraction(round(reference * 2), 2) == value
        assert details["residual"] == abs(details["raw"] - float(value))


class TestFredholm:
    def test_formula(self, rng):
        data = random_transversal_data(rng, 2, 3)
        top = mu_top(data)
        assert fredholm_index(data) == top + 2 * 1 - 3 * 2

    def test_bigon_reduces_to_viterbo(self):
        data = bigon_standard(3)
        assert fredholm_index(data) == mu_top(data) - 3
        assert maslov_viterbo(data) == 0


class TestMaslovViterbo:
    def test_standard_bigons(self):
        for n in (1, 2, 3):
            assert maslov_viterbo(bigon_standard(n)) == 0

    def test_twisted_bigon(self):
        data = bigon_standard(2)
        twisted = TransversalBundleData(2, [twist_edge(data.edges[0]), data.edges[1]])
        assert maslov_viterbo(twisted) == 2

    def test_needs_two_edges(self, rng):
        data = random_transversal_data(rng, 2, 3)
        with pytest.raises(RankMismatch):
            maslov_viterbo(data)


class TestJson:
    def test_both_edge_forms_round_trip_exactly(self, rng):
        data = random_transversal_data(rng, 2, 3)
        rows = [[[[z.real, z.imag] for z in row] for row in e.reshape(len(e), 4)] for e in data.edges]
        plain = polygon_from_json({"n": 2, "edges": rows})
        wrapped = polygon_from_json({"n": 2, "chi": -1, "edges": [{"samples": e} for e in rows]})
        for again in (plain, wrapped):
            assert all(np.array_equal(a, b) for a, b in zip(again.edges, data.edges))
        assert (plain.chi, wrapped.chi) == (1, -1)
        assert mu_top(plain) == mu_top(data)

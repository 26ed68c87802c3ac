import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maslovcw.errors import LoopNotClosed, Undersampled, ZeroSample
from maslovcw.loops import (
    BundlePairSpec,
    FrameLoop,
    aligned_frames,
    generate_loop,
    loop_from_json,
    loop_to_json,
    maslov_bundle_pair,
    maslov_loop,
    orientation_reverse,
    random_frame_loop,
    samples_from_json,
    winding,
    winding_detail,
    winding_increments,
)


class TestWinding:
    def test_unit_circle(self):
        z = np.exp(2j * np.pi * np.arange(64) / 64)
        assert winding(z) == 1

    def test_constant(self):
        assert winding(np.full(32, 1.0 + 0.5j)) == 0

    def test_power_five_and_guard_boundary(self):
        z = np.exp(2j * np.pi * 5 * np.arange(64) / 64)
        assert winding(z) == 5
        z8 = np.exp(2j * np.pi * 5 * np.arange(8) / 8)
        with pytest.raises(Undersampled):
            winding(z8)

    def test_zero_sample(self):
        with pytest.raises(ZeroSample):
            winding(np.array([1.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]))

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_nan_trips_the_guard(self):
        z = np.exp(2j * np.pi * np.arange(64) / 64)
        z[5] = complex(np.nan, 0.0)
        for f in (winding_increments, winding):
            with pytest.raises(Undersampled):
                f(z)

    def test_residual_small_for_closed_loops(self, rng):
        z = np.exp(2j * np.pi * 3 * np.arange(256) / 256) * rng.uniform(0.5, 2.0, 256)
        rounded, raw, residual = winding_detail(z)
        assert rounded == 3
        assert residual < 1e-9

    @settings(max_examples=30, deadline=None)
    @given(
        k1=st.integers(min_value=-5, max_value=5),
        k2=st.integers(min_value=-5, max_value=5),
    )
    def test_concatenation_additivity(self, k1, k2):
        # pointwise product of scalar loops adds windings
        t = np.arange(256) / 256
        z1 = np.exp(2j * np.pi * k1 * t)
        z2 = np.exp(2j * np.pi * k2 * t) * (1.3 + 0.2 * np.cos(2 * np.pi * t))
        assert winding(z1 * z2) == k1 + k2


class TestMaslovLoop:
    def test_half_turn_line(self):
        # u(t) = e^{i pi t}: det B = e^{2 pi i t}
        loop = generate_loop("power_k", 256, k=1)
        assert maslov_loop(loop) == 1

    def test_circle_tangent_is_two(self):
        assert maslov_loop(generate_loop("circle_tangent", 256)) == 2

    def test_constant_is_zero(self):
        assert maslov_loop(generate_loop("constant", 64, n=3)) == 0

    def test_right_orthogonal_multiplication_invariance(self, rng):
        loop, _ = random_frame_loop(rng, 3, 256)
        Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        twisted = FrameLoop(3, loop.samples @ Q)
        assert maslov_loop(twisted) == maslov_loop(loop)
        # contractible SO(n) loop twist
        t = np.arange(256) / 256
        ang = 0.4 * np.sin(2 * np.pi * t)
        R = np.tile(np.eye(3), (256, 1, 1))
        R[:, 0, 0] = np.cos(ang)
        R[:, 1, 1] = np.cos(ang)
        R[:, 0, 1] = -np.sin(ang)
        R[:, 1, 0] = np.sin(ang)
        assert maslov_loop(FrameLoop(3, loop.samples @ R)) == maslov_loop(loop)

    def test_refinement_stability(self, rng):
        loop, idx = random_frame_loop(rng, 2, 128)
        assert maslov_loop(loop) == idx
        assert maslov_loop(loop.refined(2)) == idx
        for N in (256, 512):
            l2, i2 = random_frame_loop(np.random.default_rng(5), 2, N)
            assert maslov_loop(l2) == i2


class TestBundlePair:
    def test_disc_example(self):
        pair = BundlePairSpec(1, (generate_loop("circle_tangent", 128),))
        assert maslov_bundle_pair(pair) == 2

    def test_annulus_cancellation(self):
        outer = generate_loop("power_k", 128, k=3)
        inner = generate_loop("power_k", 128, k=-3)
        pair = BundlePairSpec(1, (outer, inner), euler_characteristic=0)
        assert maslov_bundle_pair(pair) == 0

    def test_constant_zero(self):
        pair = BundlePairSpec(2, (generate_loop("constant", 64, n=2),))
        assert maslov_bundle_pair(pair) == 0


class TestOrientationReverse:
    def test_negates_disc_example(self):
        loop = generate_loop("circle_tangent", 128)
        assert maslov_loop(orientation_reverse(loop)) == -2

    def test_constant(self):
        loop = generate_loop("constant", 64, n=2)
        assert maslov_loop(orientation_reverse(loop)) == 0

    def test_involution(self, rng):
        loop, idx = random_frame_loop(rng, 2, 256)
        twice = orientation_reverse(orientation_reverse(loop))
        assert maslov_loop(twice) == idx

    def test_negation_random(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 5))
            loop, idx = random_frame_loop(rng, n, 256)
            assert maslov_loop(orientation_reverse(loop)) == -idx


class TestConstruction:
    def test_minimum_samples(self):
        with pytest.raises(Undersampled):
            FrameLoop(1, np.ones((4, 1, 1), dtype=complex))

    def test_guard_at_construction(self):
        t = np.arange(8) / 8
        with pytest.raises(Undersampled):
            FrameLoop(1, np.exp(1j * np.pi * 5 * t)[:, None, None])

    def test_det_b_computed_once_and_read_only(self, rng, monkeypatch):
        u = random_frame_loop(rng, 3, 64)[0].samples
        calls = []
        det = np.linalg.det

        def counting(a):
            calls.append(a.shape)
            return det(a)

        monkeypatch.setattr(np.linalg, "det", counting)
        loop = FrameLoop(3, u)
        assert calls == [(64, 3, 3)]
        d = loop.det_b()
        assert maslov_loop(loop) == maslov_loop(loop)
        assert loop.det_b() is d and len(calls) == 1
        assert d.tobytes() == (det(loop.samples) ** 2).tobytes()
        with pytest.raises(ValueError):
            d[0] = 1.0

    def test_from_path_closure(self):
        t = np.linspace(0.0, 1.0, 65)
        good = np.exp(1j * np.pi * t)[:, None, None]  # ends at -1 ~ +1 mod O(1)
        loop = FrameLoop.from_path(good)
        assert len(loop) == 64
        bad = np.exp(1j * 0.7 * np.pi * t)[:, None, None]
        with pytest.raises(LoopNotClosed):
            FrameLoop.from_path(bad)


def per_sample_alignment(u):
    """Aligned frames with every rotation applied inside the chain loop."""
    M = np.real(np.swapaxes(u[1:], -1, -2).conj() @ u[:-1])
    A, _, Bt = np.linalg.svd(M)
    steps = A @ Bt
    w = np.empty_like(u)
    w[0] = u[0]
    O = np.eye(u.shape[1])
    for k in range(1, len(u)):
        O = steps[k - 1] @ O
        w[k] = u[k] @ O
    return w


class TestAlignedFrames:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
    def test_batched_rotation_matches_per_sample_bitwise(self, rng, n):
        loop, _ = random_frame_loop(rng, n, 256)
        w, o_wrap = aligned_frames(loop.samples)
        assert w.tobytes() == per_sample_alignment(loop.samples).tobytes()
        assert np.allclose(o_wrap.T @ o_wrap, np.eye(n), atol=1e-12)

    def test_rank_one_matches_svd_chain_bitwise(self, rng):
        # random +-1 gauge flips make the step signs negative as well as positive
        for k in (0, 1, -3):
            u = generate_loop("power_k", N=128, k=k).samples
            u = u * rng.choice([-1.0, 1.0], size=(128, 1, 1))
            w, o_wrap = aligned_frames(u)
            assert w.tobytes() == per_sample_alignment(u).tobytes()
            assert abs(o_wrap[0, 0]) == 1.0

    @pytest.mark.parametrize("n", [1, 3])
    def test_nan_sample_is_undersampled(self, rng, n):
        u = random_frame_loop(rng, n, 64)[0].samples.copy()
        u[10, 0, 0] = np.nan
        with pytest.raises(Undersampled):
            aligned_frames(u)

    def test_loop_aligns_once(self, rng, monkeypatch):
        from maslovcw import loops
        from maslovcw.connections import build_collar_connection

        loop, _ = random_frame_loop(rng, 3, 128)
        calls = []
        align = loops.aligned_frames

        def counting(samples):
            calls.append(len(samples))
            return align(samples)

        monkeypatch.setattr(loops, "aligned_frames", counting)
        build_collar_connection(loop, width=0.2)
        build_collar_connection(loop, width=0.5, cutoff="quintic")
        w, o_wrap = loop.aligned
        assert calls == [128]
        ref_w, ref_o = align(loop.samples)
        assert w.tobytes() == ref_w.tobytes() and o_wrap.tobytes() == ref_o.tobytes()
        for a in (w, o_wrap):
            with pytest.raises(ValueError):
                a[0, 0] = 0.0
        loop.refined(4)  # reads the cache, then aligns the doubled loop once
        assert calls == [128, 256]

    def test_undersampled_alignment_raises_on_every_read(self):
        # diag(e^{i phi}, e^{-i phi}) with quarter turns: det B stays 1, but the
        # real part of every step is 0, so the alignment singular value is 0
        phi = 0.5 * np.pi * np.arange(8)
        loop = FrameLoop(2, np.stack([np.diag([np.exp(1j * p), np.exp(-1j * p)]) for p in phi]))
        for _ in range(2):
            with pytest.raises(Undersampled):
                loop.aligned


class TestJson:
    def test_round_trip(self, rng):
        loop, _ = random_frame_loop(rng, 2, 64)
        again = loop_from_json(json.loads(json.dumps(loop_to_json(loop))))
        assert np.allclose(again.samples, loop.samples)
        assert maslov_loop(again) == maslov_loop(loop)

    def test_samples_match_python_complex_bitwise(self, rng):
        vals = rng.normal(size=(9, 4, 2)) * 10.0 ** rng.integers(-300, 300, size=(9, 4, 2))
        rows = vals.tolist()
        rows[0][0] = [1, -2]
        rows[1][3] = [-0.0, 0]
        s = samples_from_json(rows, 2)
        ref = np.array([[complex(re, im) for re, im in row] for row in rows]).reshape(-1, 2, 2)
        assert s.shape == (9, 2, 2)
        assert np.array_equal(s.view(np.uint64), ref.view(np.uint64))

    def test_generator_form(self):
        loop = loop_from_json({"generator": "power_k", "params": {"k": -2, "N": 128}})
        assert maslov_loop(loop) == -2

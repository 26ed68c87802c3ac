import contextlib
import gc
import io
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maslovcw import loops, matcore
from maslovcw.errors import InvalidParameter, MaslovCWError, Undersampled, ZeroSample
from maslovcw.grassmann import LagrangianFrame, same_lagrangian
from maslovcw.loops import (
    MAX_SAMPLES,
    BundlePairSpec,
    FrameLoop,
    aligned_frames,
    alignment_guard,
    generate_loop,
    load_loop,
    loop_from_json,
    loop_to_json,
    maslov_bundle_pair,
    maslov_loop,
    random_frame_loop,
    samples_from_json,
    save_loop,
    winding,
    winding_increments,
)
from maslovcw.orbifold import load_orbifold
from maslovcw.polygon import load_polygon, random_transversal_data
from maslovcw.tolerances import TOL


class LoopNotClosed(Exception):
    """End-to-start frames of a sampled path do not span the same Lagrangian."""


def loop_from_path(samples):
    """A loop from an open path that includes both endpoints.

    The final sample must span the same Lagrangian as the first (it may
    differ by a right real-orthogonal factor); it is then dropped.
    """
    samples = np.asarray(samples, dtype=complex)
    n = samples.shape[1]
    if not same_lagrangian(LagrangianFrame(n, samples[0]), LagrangianFrame(n, samples[-1])):
        raise LoopNotClosed("endpoint Lagrangian differs from the start")
    return FrameLoop(n, samples[:-1])


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

    def test_nan_trips_the_guard(self):
        z = np.exp(2j * np.pi * np.arange(64) / 64)
        z[5] = complex(np.nan, 0.0)
        for f in (winding_increments, winding):
            with pytest.raises(Undersampled):
                f(z)

    @pytest.mark.parametrize("bad", [complex(np.nan, 0.0), complex(0.0, np.nan),
                                     complex(np.nan, np.inf)])
    def test_nan_raises_without_a_warning(self, bad):
        z = np.exp(2j * np.pi * np.arange(64) / 64)
        z[5] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for f in (winding_increments, winding):
                with pytest.raises(Undersampled):
                    f(z)

    def test_infinite_sample_rejected(self):
        z = np.exp(2j * np.pi * np.arange(64) / 64)
        z[5] = complex(np.inf, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for f in (winding_increments, winding):
                with pytest.raises(Undersampled):
                    f(z)

    def test_residual_small_for_closed_loops(self, rng):
        z = np.exp(2j * np.pi * 3 * np.arange(256) / 256) * rng.uniform(0.5, 2.0, 256)
        raw = winding_increments(z).sum() / (2.0 * np.pi)
        assert winding(z) == 3
        assert abs(raw - 3) < 1e-9

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
        fine = loop.refined()
        assert len(fine) == 256 and maslov_loop(fine) == idx
        assert np.array_equal(fine.samples[0::2], loop.aligned[0])
        for N in (256, 512):
            l2, i2 = random_frame_loop(np.random.default_rng(5), 2, N)
            assert maslov_loop(l2) == i2


class TestAliasing:
    @pytest.mark.xfail(strict=True, reason=(
        "the winding guard reads the principal increment of arg det B, and a step whose "
        "Kahler angles turn det B by 2 sum(theta_j) in (3pi/2, 5pi/2) passes it aliased"))
    @pytest.mark.parametrize("n, N, ks",
                             [(4, 16, (4, 3, 3, 3)), (8, 64, (7,) * 8), (2, 20, (9, 9))])
    def test_designed_index_or_undersampled(self, n, N, ks):
        # Q diag(e^{i pi k_j t}) has index sum(k_j)
        Q = matcore.haar_unitary(n, np.random.default_rng(0))
        t = np.arange(N) / N
        u = Q[None] * np.exp(1j * np.pi * np.outer(t, ks))[:, None, :]
        try:
            index = maslov_loop(FrameLoop(n, u))
        except Undersampled:
            return
        assert index == sum(ks)


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
        assert maslov_loop(loop.reversed()) == -2

    def test_constant(self):
        loop = generate_loop("constant", 64, n=2)
        assert maslov_loop(loop.reversed()) == 0

    def test_involution(self, rng):
        loop, idx = random_frame_loop(rng, 2, 256)
        twice = loop.reversed().reversed()
        assert maslov_loop(twice) == idx

    def test_negation_random(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 5))
            loop, idx = random_frame_loop(rng, n, 256)
            assert maslov_loop(loop.reversed()) == -idx


class TestConstruction:
    def test_minimum_samples(self):
        with pytest.raises(Undersampled):
            FrameLoop(1, np.ones((4, 1, 1), dtype=complex))

    def test_generator_sample_cap(self):
        assert len(generate_loop("power_k", MAX_SAMPLES, k=1)) == MAX_SAMPLES
        with pytest.raises(InvalidParameter, match="cap"):
            generate_loop("power_k", MAX_SAMPLES + 1, k=1)

    def test_guard_at_construction(self):
        t = np.arange(8) / 8
        with pytest.raises(Undersampled):
            FrameLoop(1, np.exp(1j * np.pi * 5 * t)[:, None, None])

    def test_polished_only_above_the_named_threshold(self, rng):
        assert (TOL.loop_polish, TOL.frame_polish_per_rank) == (1e-12, 1e-13)
        u = random_frame_loop(rng, 3, 64)[0].samples
        E = rng.normal(size=u.shape) + 1j * rng.normal(size=u.shape)
        unit = 1e-9 / matcore.unitary_defect(u + 1e-9 * E)  # the defect is linear this close
        for factor, polished in ((0.5, False), (2.0, True)):
            s = u + (factor * TOL.loop_polish * unit) * E
            assert (matcore.unitary_defect(s) > TOL.loop_polish) == polished
            loop = FrameLoop(3, s)
            assert np.array_equal(loop.samples, s) != polished
            assert matcore.unitary_defect(loop.samples) <= TOL.loop_polish

    def test_nan_defect_is_rejected(self, rng, monkeypatch):
        u = random_frame_loop(rng, 2, 64)[0].samples
        monkeypatch.setattr(matcore, "unitary_defect", lambda s: float("nan"))
        with pytest.raises(Undersampled, match="frame unitary defect nan"):
            FrameLoop(2, u)

    def test_det_b_computed_once_and_read_only(self, rng, monkeypatch):
        u = random_frame_loop(rng, 3, 64)[0].samples
        calls = []
        det = matcore.det

        def counting(a):
            calls.append(a.shape)
            return det(a)

        monkeypatch.setattr(matcore, "det", counting)
        loop = FrameLoop(3, u)
        assert calls == [(64, 3, 3)]
        d = loop.det_b()
        assert maslov_loop(loop) == maslov_loop(loop)
        assert loop.det_b() is d and len(calls) == 1
        assert d.tobytes() == (det(loop.samples) ** 2).tobytes()
        with pytest.raises(ValueError):
            d[0] = 1.0

    def test_increments_kept_from_the_guard(self, rng, monkeypatch):
        from maslovcw import loops

        u = random_frame_loop(rng, 3, 64)[0].samples
        calls = []
        increments = loops.winding_increments

        def counting(zs):
            calls.append(len(zs))
            return increments(zs)

        monkeypatch.setattr(loops, "winding_increments", counting)
        loop = FrameLoop(3, u)
        assert calls == [64]
        dphi = loop.phase_increments()
        assert maslov_loop(loop) == maslov_loop(loop) == winding(loop.det_b())
        assert calls == [64, 64] and loop.phase_increments() is dphi
        assert dphi.tobytes() == increments(loop.det_b()).tobytes()
        with pytest.raises(ValueError):
            dphi[0] = 1.0

    def test_from_path_closure(self):
        t = np.linspace(0.0, 1.0, 65)
        good = np.exp(1j * np.pi * t)[:, None, None]  # ends at -1 ~ +1 mod O(1)
        loop = loop_from_path(good)
        assert len(loop) == 64
        bad = np.exp(1j * 0.7 * np.pi * t)[:, None, None]
        with pytest.raises(LoopNotClosed):
            loop_from_path(bad)


def alignment_steps(u):
    """Polar factors of the step matrices, formed as aligned_frames forms them at rank 2 and up."""
    x, y = u.real, u.imag
    M = np.swapaxes(x[1:], -1, -2) @ x[:-1] + np.swapaxes(y[1:], -1, -2) @ y[:-1]
    A, _, Bt = np.linalg.svd(M)
    return A @ Bt


def per_sample_alignment(u, sequential=False):
    """Aligned frames with every rotation applied per sample.

    The rotations O[k] = steps[k-1] ... steps[0] come from a log-depth
    prefix scan, or with ``sequential`` from the chain one step at a time.
    """
    steps = alignment_steps(u)
    N, n, _ = u.shape
    O = np.empty((N, n, n))
    O[0] = np.eye(n)
    if sequential:
        for k in range(1, N):
            O[k] = steps[k - 1] @ O[k - 1]
    else:
        O[1:] = steps
        d = 1
        while d < N:
            O[d:] = O[d:] @ O[:-d]
            d *= 2
    w = np.empty_like(u)
    for k in range(N):
        w[k] = u[k] @ O[k]
    return w


def quarter_turn_samples():
    """diag(e^{i phi}, e^{-i phi}) with quarter turns: det B stays 1, but the
    real part of every step is 0, so the alignment singular value is 0."""
    phi = 0.5 * np.pi * np.arange(8)
    return np.stack([np.diag([np.exp(1j * p), np.exp(-1j * p)]) for p in phi])


class TestAlignedFrames:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
    def test_batched_rotation_matches_per_sample_bitwise(self, rng, n):
        loop, _ = random_frame_loop(rng, n, 256)
        w, o_wrap = aligned_frames(loop.samples)
        assert w.tobytes() == per_sample_alignment(loop.samples).tobytes()
        assert np.abs(w - per_sample_alignment(loop.samples, sequential=True)).max() <= 1e-13
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
        loop.refined().refined()  # reads the cache, then aligns the doubled loop once
        assert calls == [128, 256]

    def test_undersampled_alignment_raises_on_every_read(self):
        loop = FrameLoop(2, quarter_turn_samples())
        for _ in range(2):
            with pytest.raises(Undersampled):
                loop.aligned

    def test_guard_margins_match_alignment(self, wrap_rejected_loop):
        # the step minimum of the full SVD and the singular values of
        # Re(w_0* w_next) from the aligned frames, on loops that pass both guards
        rng = np.random.default_rng(7)
        for n in range(1, 7):
            for N in (8, 16, 64, 512):
                # few enough twists that det B passes the winding guard
                loop, _ = random_frame_loop(rng, n, N, k_max=1 if N <= 16 else 3,
                                            index_cap=min(8, N // 8))
                u = loop.samples
                w, _ = aligned_frames(u)
                M = np.real(np.swapaxes(u[1:], -1, -2).conj() @ u[:-1])
                w_next = 5 * w[-1] - 10 * w[-2] + 10 * w[-3] - 5 * w[-4] + w[-5]
                ref = (np.linalg.svd(M, compute_uv=False).min(),
                       np.linalg.svd(np.real(w[0].conj().T @ w_next), compute_uv=False).min())
                assert np.abs(np.subtract(loop.alignment_margins, ref)).max() <= 1e-12
        nan = random_frame_loop(rng, 2, 64)[0].samples.copy()
        nan[10, 0, 0] = np.nan
        twisted = np.tile(np.eye(2, dtype=complex), (64, 1, 1))
        twisted[10] = np.diag([1j, -1j])
        for u in (wrap_rejected_loop.samples, quarter_turn_samples(), twisted, nan):
            with pytest.raises(Undersampled) as ref:
                aligned_frames(u)
            with pytest.raises(Undersampled) as err:
                alignment_guard(u)
            assert str(err.value) == str(ref.value)
        for _ in range(2):  # not cached
            with pytest.raises(Undersampled, match="wrap alignment singular value"):
                wrap_rejected_loop.alignment_margins


def svd_alignment_guard(u):
    """``alignment_guard`` with SVDs for the last four polar steps and the wrap (any rank)."""
    M = np.real(np.swapaxes(u[1:], -1, -2).conj() @ u[:-1])
    N, n, _ = u.shape
    s = np.linalg.svd(M, compute_uv=False).min() if n > 1 else np.abs(M).min()
    if not s >= TOL.frame_step_sv:
        raise Undersampled(f"frame alignment singular value {s:.3f} < {TOL.frame_step_sv}")
    tail = u
    if N >= 5:
        A, _, Bt = np.linalg.svd(M[-4:])
        last = A @ Bt
        R = np.empty((5, n, n))
        R[4] = np.eye(n)
        for j in (3, 2, 1, 0):
            R[j] = last[j].T @ R[j + 1]
        tail = u[-5:] @ R
    x = 5 * tail[-1] - 10 * tail[-2] + 10 * tail[-3] - 5 * tail[-4] + tail[-5]
    wrap = np.linalg.svd(np.real(u[0].conj().T @ x), compute_uv=False)
    if not wrap.min() >= TOL.frame_step_sv:
        raise Undersampled(f"wrap alignment singular value {wrap.min():.3f}")
    return float(s), float(wrap.min())


def sign_alignment_guard(u):
    """``alignment_guard`` at rank 1 from signs: (min |M|, |Re(u_0* x)|).

    x extrapolates past u[k] R[k], R a cumulative product of the last four step signs.
    """
    M = np.real(u[1:].conj() @ u[:-1])
    s = np.abs(M).min()
    if not s >= TOL.frame_step_sv:
        raise Undersampled(f"frame alignment singular value {s:.3f} < {TOL.frame_step_sv}")
    R = np.ones((5, 1, 1))
    R[3::-1] = np.cumprod(np.sign(M[:-5:-1]), axis=0)
    tail = u[-5:] @ R
    x = 5 * tail[-1] - 10 * tail[-2] + 10 * tail[-3] - 5 * tail[-4] + tail[-5]
    wrap = np.abs(np.real(u[0].conj().T @ x))[0, 0]
    if not wrap >= TOL.frame_step_sv:
        raise Undersampled(f"wrap alignment singular value {wrap:.3f}")
    return float(s), float(wrap)


def svd_step_minimum(M):
    return np.linalg.svd(M, compute_uv=False).min()


class TestRankTwoStepMinimum:
    """The rank-2 closed form of the smallest step singular value, against the SVD."""

    @staticmethod
    def with_singular_values(rng, s_min, s_max, reflect):
        # A diag(s_max, s_min) B for random rotations A, B; a reflection gives det M < 0
        def rotation():
            a = rng.uniform(0, 2 * np.pi)
            return np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])

        D = np.diag([s_max, -s_min if reflect else s_min])
        return rotation() @ D @ rotation()

    @pytest.mark.parametrize("reflect", [False, True])
    def test_matches_the_svd(self, rng, reflect):
        cases = [(rng.uniform(0, 1), rng.uniform(1, 2)) for _ in range(200)]
        cases += [(eps, 1.0) for eps in (1e-6, 1e-10, 1e-14, 1e-17, 0.0)]  # near-singular
        cases += [(0.5 + d, 1.0) for d in (-1e-12, -1e-13, 0.0, 1e-13, 1e-12)]
        for s_min, s_max in cases:
            M = self.with_singular_values(rng, s_min, s_max, reflect)
            if s_min >= 1e-6:  # below, rounding decides the sign of det M
                assert (np.linalg.det(M) < 0) == reflect
            got = loops._min_step_sv(M[None])
            assert abs(got - svd_step_minimum(M)) <= 1e-12
            assert abs(got - s_min) <= 1e-12
        M = rng.normal(size=(4096, 2, 2))
        assert abs(loops._min_step_sv(M) - svd_step_minimum(M)) <= 1e-12

    def test_non_finite_step_is_nan(self, rng):
        for bad in (np.nan, np.inf):
            M = rng.normal(size=(8, 2, 2))
            M[3, 1, 0] = bad
            assert np.isnan(loops._min_step_sv(M))

    @pytest.mark.parametrize("reflect", [False, True])
    @pytest.mark.parametrize("delta", [-1e-12, -1e-13, 1e-13, 1e-12])
    def test_guard_decision_and_message_at_the_threshold(self, rng, reflect, delta):
        # u[k] = Q S^k with S = diag(e^{i a}, 1) P: every step matrix is
        # P^T diag(cos a, 1), whose smallest singular value is 0.5 + delta
        a = np.arccos(TOL.frame_step_sv + delta)
        P = np.diag([1.0, -1.0]) if reflect else np.eye(2)
        S = np.diag([np.exp(1j * a), 1.0]) @ P
        u = np.empty((16, 2, 2), dtype=complex)
        u[0] = matcore.haar_unitary(2, rng)
        for k in range(1, 16):
            u[k] = u[k - 1] @ S
        M = np.real(np.swapaxes(u[1:], -1, -2).conj() @ u[:-1])
        assert abs(svd_step_minimum(M) - (TOL.frame_step_sv + delta)) <= 1e-14
        try:
            ref = svd_alignment_guard(u)
        except Undersampled as exc:
            with pytest.raises(Undersampled) as err:
                alignment_guard(u)
            assert str(err.value) == str(exc)
            assert delta < 0 or "wrap" in str(exc)
            return
        assert delta > 0
        assert np.abs(np.subtract(alignment_guard(u), ref)).max() <= 1e-12


class TestRankOneGuard:
    @pytest.mark.parametrize("N", [8, 16, 64, 512])
    def test_signs_match_the_svd_path_bitwise(self, N):
        rng = np.random.default_rng(N)
        t = np.arange(N) / N
        outcomes = set()
        for _ in range(200):
            k = int(rng.integers(-N // 3, N // 3 + 1))
            a, m = rng.uniform(0.0, 2.0), int(rng.integers(1, 4))
            phi = np.pi * k * t + a * np.sin(2 * np.pi * m * t + rng.uniform(0, 2 * np.pi))
            phi += rng.choice([0.0, 0.2]) * rng.normal(size=N)  # noise trips the wrap
            flips = rng.choice([-1.0, 1.0], N)
            u = (flips * np.exp(1j * phi))[:, None, None]
            try:
                ref = svd_alignment_guard(u)
            except Undersampled as exc:
                for guard in (alignment_guard, sign_alignment_guard):
                    with pytest.raises(Undersampled) as err:
                        guard(u)
                    assert str(err.value) == str(exc)
                outcomes.add(str(exc).split()[0])
                continue
            got = alignment_guard(u)
            assert np.array(got).tobytes() == np.array(ref).tobytes()
            assert np.array(got).tobytes() == np.array(sign_alignment_guard(u)).tobytes()
            outcomes.add("pass")
        assert outcomes == {"pass", "frame", "wrap"}


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


# ---------------------------------------------------------------------------
# sample files are read and written with the cyclic garbage collector paused
# ---------------------------------------------------------------------------

def _rows(u):
    return [[[float(z.real), float(z.imag)] for z in row] for row in u.reshape(len(u), -1)]


@pytest.fixture(scope="module")
def sample_files(tmp_path_factory):
    """(file path by loader name, the loop, a path to save to): a rank-8,
    1024-sample loop file, and a polygon (16 edges of 64 samples) and an
    orbifold file of as many [re, im] pairs, 65,536 each."""
    rng = np.random.default_rng(27)
    root = tmp_path_factory.mktemp("sample_files")
    loop, _ = random_frame_loop(rng, 8, 1024)
    edges = random_transversal_data(rng, 8, 16).edges
    objs = {
        "load_loop": loop_to_json(loop),
        "load_polygon": {"n": 8, "edges": [_rows(e) for e in edges]},
        "load_orbifold": {"n": 8, "cone": {"m": 2, "weights": [1] * 8},
                          "boundary": loop_to_json(loop)},
    }
    paths = {name: root / f"{name}.json" for name in objs}
    for name, obj in objs.items():
        paths[name].write_text(json.dumps(obj))
    return paths, loop, root / "saved.json"


_READERS = {"load_loop": load_loop, "load_polygon": load_polygon, "load_orbifold": load_orbifold}
_FILE_OPS = sorted(_READERS) + ["save_loop"]


def _file_op(name, sample_files):
    paths, loop, out = sample_files
    if name == "save_loop":
        return lambda: save_loop(loop, str(out))
    return lambda: _READERS[name](str(paths[name]))


@contextlib.contextmanager
def _collector(enabled):
    """The cyclic collector on or off for the block; yields the generations it starts on."""
    was = gc.isenabled()
    starts = []

    def hook(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    (gc.enable if enabled else gc.disable)()
    gc.collect()  # gen-0 count 0: no collection is due before the block's own allocations
    gc.callbacks.append(hook)
    try:
        yield starts
    finally:
        gc.callbacks.remove(hook)
        (gc.enable if was else gc.disable)()


# files each reader must reject with a MaslovCWError: from the parser, from the
# build and from the parser's recursion limit
_BAD_TEXT = {
    "truncated": '{"n": 8, "samples": [[[1.0, 0.0]',
    "bad_field": '{"n": 8.5}',
    "deep": "[" * 50_000 + "]" * 50_000,
}


class TestFileGcPause:
    @pytest.mark.parametrize("op", _FILE_OPS)
    def test_no_collection_runs(self, op, sample_files):
        call = _file_op(op, sample_files)
        with _collector(True) as starts:
            call()
        assert starts == []

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("op", _FILE_OPS)
    def test_tree_is_freed_before_the_collector_resumes(self, op, enabled, sample_files):
        # CPython takes a freed tracked object off the gen-0 count: a tree of
        # about 66k lists still alive after the call would leave the count that
        # much higher, or, with the collector on, set off a collection over it.
        # About a hundred stay counted: objects freed onto CPython's free lists
        # are not taken off.
        call = _file_op(op, sample_files)
        with _collector(enabled) as starts:
            before = gc.get_count()[0]
            call()
            after = gc.get_count()[0]
        assert starts == []
        assert abs(after - before) <= 1000

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("op, case", [(op, case) for op in sorted(_READERS)
                                          for case in ["ok"] + sorted(_BAD_TEXT)]
                             + [("save_loop", "ok"), ("save_loop", "not_a_loop")])
    def test_caller_collector_state_is_restored(self, op, case, enabled, sample_files, tmp_path):
        if case == "ok":
            call = _file_op(op, sample_files)
        elif op == "save_loop":
            call = lambda: save_loop(None, str(tmp_path / "out.json"))  # noqa: E731
        else:
            path = tmp_path / "bad.json"
            path.write_text(_BAD_TEXT[case])
            call = lambda: _READERS[op](str(path))  # noqa: E731
        with _collector(enabled):
            try:
                call()
            except (MaslovCWError, AttributeError):
                assert case != "ok"
            else:
                assert case == "ok"
            assert gc.isenabled() is enabled

    def test_saved_file_is_what_the_streaming_encoder_writes(self, rng, tmp_path):
        loop, _ = random_frame_loop(rng, 3, 64)
        save_loop(loop, str(tmp_path / "loop.json"))
        ref = io.StringIO()
        json.dump(loop_to_json(loop), ref)
        assert (tmp_path / "loop.json").read_text(encoding="utf-8") == ref.getvalue()

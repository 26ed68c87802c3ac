import numpy as np
import pytest
from fractions import Fraction
from types import SimpleNamespace
from hypothesis import given, settings
from hypothesis import strategies as st

from maslovcw import orbifold
from maslovcw.errors import InvalidParameter, MaslovCWError, RankMismatch, ViolatedIdentity
from maslovcw.loops import (
    MAX_SAMPLES, BundlePairSpec, FrameLoop, generate_loop, loop_to_json, maslov_bundle_pair, random_frame_loop,
)
from maslovcw.orbifold import (
    BranchCover,
    ConePoint,
    OrbifoldDiscSpec,
    chen_ruan_correction,
    cover_multiplicativity,
    desing_index,
    mu_cw_orbifold,
    mu_pi,
    orbifold_from_json,
    pullback_bundle_pair,
    verify_desingularization,
)


def orbifold_to_json(spec):
    """The orbifold file format of ``spec``, the inverse of ``orbifold_from_json``."""
    return {
        "n": spec.n,
        "cone": {"m": spec.cone.order, "weights": list(spec.cone.weights)},
        "boundary": loop_to_json(spec.boundary),
    }


def scalar_spec(m, weight, loop):
    return OrbifoldDiscSpec(1, ConePoint(m, (weight,)), loop)


class TestConeData:
    def test_weight_bounds(self):
        with pytest.raises(RankMismatch):
            ConePoint(2, (2,))
        with pytest.raises(RankMismatch):
            ConePoint(1, (0,))

    @pytest.mark.parametrize("order,weights", [(3, (1.7,)), (3.5, (1,)), ("3", (1,)), (3, (None,))])
    def test_non_integer_order_or_weight_rejected(self, order, weights):
        # a fractional weight was truncated, a fractional order failed later with TypeError
        with pytest.raises(MaslovCWError):
            ConePoint(order, weights)

    def test_integral_floats_become_ints(self):
        cone = ConePoint(3.0, (1.0, np.int64(2)))
        assert (cone.order, cone.weights) == (3, (1, 2))
        assert all(type(v) is int for v in (cone.order,) + cone.weights)
        assert cone.weight_sum == 1

    def test_cover_degree_multiple(self):
        with pytest.raises(RankMismatch):
            BranchCover(3, 2)

    def test_rank_weight_count(self):
        with pytest.raises(RankMismatch):
            OrbifoldDiscSpec(2, ConePoint(2, (1,)), generate_loop("constant", 64, n=2))


class TestPullback:
    def test_trivial_weights_multiply_index(self):
        loop = generate_loop("circle_tangent", 128)
        spec = OrbifoldDiscSpec(1, ConePoint(3, (0,)), loop)
        pulled = pullback_bundle_pair(spec, BranchCover(3, 3))
        assert maslov_bundle_pair(pulled) == 3 * 2

    def test_constant_boundary_half_weight(self):
        spec = scalar_spec(2, 1, generate_loop("constant", 128, n=1))
        pulled = pullback_bundle_pair(spec, BranchCover(2, 2))
        assert maslov_bundle_pair(pulled) == 2

    def test_winding_one_base(self):
        spec = scalar_spec(2, 1, generate_loop("power_k", 128, k=1))
        pulled = pullback_bundle_pair(spec, BranchCover(2, 2))
        assert maslov_bundle_pair(pulled) == 2 * 1 + 2

    def test_sample_cap(self):
        half = MAX_SAMPLES // 2
        pulled = pullback_bundle_pair(scalar_spec(2, 1, generate_loop("constant", half)),
                                      BranchCover(2, 2))
        assert len(pulled.loops[0]) == MAX_SAMPLES
        spec = scalar_spec(2, 1, generate_loop("constant", half + 1))
        with pytest.raises(InvalidParameter, match="cap"):
            pullback_bundle_pair(spec, BranchCover(2, 2))


class TestMuPi:
    def test_constant_boundary(self):
        spec = scalar_spec(2, 1, generate_loop("constant", 128, n=1))
        assert mu_pi(spec) == 1

    def test_zero_weights_reduce_to_winding(self, rng):
        loop, idx = random_frame_loop(rng, 2, 256)
        spec = OrbifoldDiscSpec(2, ConePoint(4, (0, 0)), loop)
        assert mu_pi(spec) == Fraction(idx)

    def test_cover_independence(self, rng):
        for m in (2, 3, 4, 5):
            n = int(rng.integers(1, 4))
            weights = tuple(int(x) for x in rng.integers(0, m, n))
            loop, _ = random_frame_loop(rng, n, 256, k_max=2, index_cap=4)
            spec = OrbifoldDiscSpec(n, ConePoint(m, weights), loop)
            assert mu_pi(spec, BranchCover(m, m)) == mu_pi(spec, BranchCover(2 * m, m))

    def test_denominator_divides_order(self, rng):
        for _ in range(10):
            m = int(rng.integers(2, 6))
            n = int(rng.integers(1, 4))
            weights = tuple(int(x) for x in rng.integers(0, m, n))
            loop, _ = random_frame_loop(rng, n, 256, k_max=1, index_cap=3)
            val = mu_pi(OrbifoldDiscSpec(n, ConePoint(m, weights), loop))
            assert m % val.denominator == 0


class TestMuCw:
    def test_signature_case(self):
        # the sign anchor: order 2, weight 1, constant boundary
        spec = scalar_spec(2, 1, generate_loop("constant", 256, n=1))
        rounded, rep = mu_cw_orbifold(spec)
        assert rounded == 1
        assert abs(rep.raw - 1.0) <= 2e-2

    def test_smooth_disc_example(self):
        spec = scalar_spec(2, 0, generate_loop("circle_tangent", 256))
        rounded, rep = mu_cw_orbifold(spec)
        assert rounded == 2

    def test_flat_case(self):
        spec = scalar_spec(3, 0, generate_loop("constant", 256, n=1))
        rounded, rep = mu_cw_orbifold(spec)
        assert rounded == 0
        assert abs(rep.raw) <= 1e-9


class TestDesingularization:
    def test_desing_index_values(self):
        assert desing_index(scalar_spec(2, 1, generate_loop("constant", 128))) == 0
        assert desing_index(scalar_spec(2, 1, generate_loop("circle_tangent", 128))) == 2
        for k in (-2, 0, 3):
            assert desing_index(scalar_spec(2, 1, generate_loop("power_k", 128, k=k))) == k

    def test_correction_values(self):
        assert chen_ruan_correction([ConePoint(2, (0,))]) == 0
        assert chen_ruan_correction([ConePoint(2, (1,))]) == Fraction(1, 2)
        assert chen_ruan_correction([ConePoint(3, (1, 2))]) == 1
        # multi-point sums stay exact
        assert chen_ruan_correction(
            [ConePoint(3, (1, 2)), ConePoint(2, (1,))]
        ) == Fraction(3, 2)

    def test_identity_signature_case(self):
        out = verify_desingularization(scalar_spec(2, 1, generate_loop("constant", 256)))
        assert out["mu_cw"] == 1 and out["mu_de"] == 0
        assert out["correction"] == Fraction(1, 2)

    def test_identity_zero_weights(self):
        out = verify_desingularization(scalar_spec(2, 0, generate_loop("circle_tangent", 256)))
        assert out["mu_cw"] == out["mu_de"] == 2

    def test_identity_rank_two(self):
        base = generate_loop("power_k", 256, k=1)
        s = np.zeros((256, 2, 2), dtype=complex)
        s[:, 0, 0] = base.samples[:, 0, 0]
        s[:, 1, 1] = 1.0
        loop = FrameLoop(2, s)
        out = verify_desingularization(OrbifoldDiscSpec(2, ConePoint(3, (1, 2)), loop))
        assert out["mu_cw"] == 3

    def test_identity_random(self, rng):
        for _ in range(6):
            m = int(rng.integers(2, 6))
            n = int(rng.integers(1, 4))
            weights = tuple(int(x) for x in rng.integers(0, m, n))
            loop, _ = random_frame_loop(rng, n, 256, k_max=2, index_cap=4)
            out = verify_desingularization(OrbifoldDiscSpec(n, ConePoint(m, weights), loop))
            assert out["identity_exact"]
            assert out["identity_raw_residual"] <= 2e-2

    def test_nan_integral_fails_the_raw_agreement(self, monkeypatch):
        spec = scalar_spec(2, 1, generate_loop("constant", 256))
        rounded, _ = mu_cw_orbifold(spec)
        nan = SimpleNamespace(raw=float("nan"))
        monkeypatch.setattr(orbifold, "mu_cw_orbifold", lambda spec: (rounded, nan))
        with pytest.raises(ViolatedIdentity, match="desingularization identity failed"):
            verify_desingularization(spec)


class TestCoverMultiplicativity:
    def test_disc_example_doubles(self):
        pair = BundlePairSpec(1, (generate_loop("circle_tangent", 256),))
        assert cover_multiplicativity(pair, 2)["mu_lifted"] == 4

    def test_constant(self):
        pair = BundlePairSpec(2, (generate_loop("constant", 64, n=2),))
        for m in (2, 3, 5):
            assert cover_multiplicativity(pair, m)["mu_lifted"] == 0

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), m=st.sampled_from([2, 3]),
           N=st.sampled_from([64, 128]))
    def test_random_loops_multiply(self, seed, n, m, N):
        loop, idx = random_frame_loop(np.random.default_rng(seed), n, N)
        res = cover_multiplicativity(BundlePairSpec(n, (loop,)), m)
        assert res["exact"] and res["mu"] == idx and res["mu_lifted"] == m * idx

    def test_power_loops_triple(self):
        for k in range(-2, 3):
            pair = BundlePairSpec(1, (generate_loop("power_k", 128, k=k),))
            assert cover_multiplicativity(pair, 3)["mu_lifted"] == 3 * k


class TestJson:
    def test_round_trip(self, rng):
        loop, _ = random_frame_loop(rng, 2, 64)
        spec = OrbifoldDiscSpec(2, ConePoint(3, (1, 2)), loop)
        again = orbifold_from_json(orbifold_to_json(spec))
        assert again.cone == spec.cone
        assert np.allclose(again.boundary.samples, spec.boundary.samples)

import numpy as np
import pytest

from maslovcw.connections import (
    build_annulus_collar_connection,
    build_arc_collar_connection,
    build_collar_connection,
    builtin_connection,
    collar_term,
    cutoff_profile,
    loop_boundary_form,
    open_path_form,
    radial_gauge_transform,
)
from maslovcw.errors import UnknownName, Undersampled
from maslovcw.grassmann import LagrangianFrame
from maslovcw.loops import FrameLoop, generate_loop, random_frame_loop
from maslovcw.orbifold import ConePoint, OrbifoldDiscSpec, invariant_connection
from maslovcw.polygon import quarter_arc_path


class TestBuiltins:
    def test_disc_example_values(self):
        spec = builtin_connection("example_2_7")
        r = np.array([0.0, 0.5, 1.0])
        Ar, At = spec.coeffs(r, np.zeros(3))
        assert Ar is None
        assert np.allclose(At[:, 0, 0], -1j * r)
        assert spec.unitary and not spec.radial

    def test_flat(self):
        spec = builtin_connection("flat", n=3)
        Ar, At = spec.coeffs(np.array([0.3]), np.array([1.0]))
        assert Ar is None and np.allclose(At, 0.0)
        assert not spec.radial

    def test_nonunitary_counterexample_tag(self):
        spec = builtin_connection("example_4_3_nonunitary")
        assert not spec.unitary and not spec.radial  # replace() keeps the declaration
        _, At = spec.coeffs(np.array([0.7]), np.array([0.0]))
        assert np.allclose(At[:, 0, 0], 0.7)  # real valued, not skew

    def test_unknown(self):
        with pytest.raises(UnknownName):
            builtin_connection("nope")


class TestCutoff:
    @pytest.mark.parametrize("kind", ["cubic", "quintic"])
    def test_profile_shape(self, kind):
        x = np.linspace(-0.2, 1.2, 200)
        rho = cutoff_profile(x, kind)
        assert rho[0] == 0.0
        assert np.all(np.diff(rho) >= -1e-15)
        # plateau: exactly 1 from the saturation point on, so the form has a
        # product structure near the boundary
        assert np.all(rho[x >= 0.95] == 1.0)

    def test_unknown_cutoff(self):
        with pytest.raises(UnknownName):
            cutoff_profile(np.array([0.5]), "heaviside")


class TestCollar:
    def test_constant_loop_gives_flat_form(self):
        loop = generate_loop("constant", 64, n=2)
        spec = build_collar_connection(loop)
        r = np.linspace(0.0, 1.0, 11)
        Ar, At = spec.coeffs(r, np.linspace(0, 2 * np.pi, 11))
        assert Ar is None
        assert np.allclose(At, 0.0, atol=1e-9)

    def test_boundary_form_is_skew(self, rng):
        from maslovcw.loops import random_frame_loop

        loop, _ = random_frame_loop(rng, 3, 256)
        A, w = loop_boundary_form(loop)
        assert np.max(np.abs(A + A.conj().transpose(0, 2, 1))) <= 1e-12

    def test_circle_tangent_form_matches_closed_form(self):
        # u = i e^{2 pi i t}: A = u du*/dt = -2 pi i, constant
        loop = generate_loop("circle_tangent", 256)
        A, _ = loop_boundary_form(loop)
        assert np.allclose(A[:, 0, 0], -2j * np.pi, atol=1e-6)

    def test_zero_outside_collar(self):
        loop = generate_loop("circle_tangent", 64)
        spec = build_collar_connection(loop, width=0.3)
        _, At = spec.coeffs(np.array([0.5]), np.array([0.3]))
        assert np.allclose(At, 0.0)

    @pytest.mark.parametrize("periodic", [True, False])
    def test_exact_zeros_off_the_support(self, periodic):
        loop, _ = random_frame_loop(np.random.default_rng(11), 2, 64)
        A, _ = loop_boundary_form(loop)
        depth, t = np.meshgrid(np.linspace(-0.5, 1.0, 31), np.linspace(-1.0, 7.0, 17))
        depth, t = depth.ravel(), t.ravel()
        out = collar_term(A, depth, t, 2 * np.pi, periodic=periodic)
        off = out[depth <= 0]
        assert off.shape == (np.count_nonzero(depth <= 0), 2, 2)
        # +0 everywhere: no lerped value was scaled by a zero cutoff
        assert not np.any(np.signbit(off.real)) and not np.any(np.signbit(off.imag))
        assert np.array_equal(off, np.zeros_like(off))
        assert np.all(np.any(out[depth > 0] != 0, axis=(-2, -1)))

    def test_undersampled_frames_rejected(self):
        # det B is constant (guard passes at construction) but one frame is
        # twisted so far that no real-orthogonal alignment exists
        s = np.tile(np.eye(2, dtype=complex), (64, 1, 1))
        s[10] = np.diag([1j, -1j])
        loop = FrameLoop(2, s)
        with pytest.raises(Undersampled):
            build_collar_connection(loop)

    def test_bad_width(self):
        loop = generate_loop("constant", 64)
        with pytest.raises(ValueError):
            build_collar_connection(loop, width=1.5)


class TestGaugeTransform:
    def test_transformed_form_still_skew(self):
        loop = generate_loop("circle_tangent", 128)
        spec = build_collar_connection(loop)
        S = np.array([[0.7j]])
        g = radial_gauge_transform(spec, S)
        r = np.linspace(0.05, 1.0, 7)
        t = np.linspace(0.0, 2 * np.pi, 7)
        Ar, At = g.coeffs(r, t)
        assert np.max(np.abs(Ar + Ar.conj().transpose(0, 2, 1))) <= 1e-12
        assert np.max(np.abs(At + At.conj().transpose(0, 2, 1))) <= 1e-12
        # boundary values unchanged: s(1) = 0
        Ar1, At1 = g.coeffs(np.array([1.0]), np.array([0.4]))
        Ar0, At0 = spec.coeffs(np.array([1.0]), np.array([0.4]))
        assert Ar0 is None and g.radial
        assert np.allclose(Ar1, 0.0, atol=1e-14)
        assert np.allclose(At1, At0, atol=1e-14)


# ---------------------------------------------------------------------------
# every builder's collar term, pinned bitwise to its written-out formula
# ---------------------------------------------------------------------------

def ref_periodic_lerp(A, x):
    N = A.shape[0]
    x = np.mod(x, N)
    i0 = np.floor(x).astype(int) % N
    fr = (x - np.floor(x))[..., None, None]
    return (1.0 - fr) * A[i0] + fr * A[(i0 + 1) % N]


def ref_open_lerp(A, x):
    N = A.shape[0]
    x = np.clip(x, 0.0, N - 1.0)
    i0 = np.minimum(np.floor(x).astype(int), N - 2)
    fr = (x - i0)[..., None, None]
    return (1.0 - fr) * A[i0] + fr * A[i0 + 1]


def _grid(t_max):
    r, t = np.meshgrid(np.linspace(0.0, 1.0, 29), np.linspace(-0.1, t_max + 0.1, 53))
    return r.ravel(), t.ravel()


def _assert_angular(spec, r, t, expected):
    Ar, At = spec.coeffs(r, t)
    assert Ar is None and not spec.radial
    assert np.array_equal(At, expected)
    # the diagonal evaluator gives the same diagonals, bit for bit
    assert spec.diagonal(r, t).tobytes() == np.diagonal(At, axis1=-2, axis2=-1).tobytes()


class TestPinnedCollarTerms:
    @pytest.mark.parametrize("kind", ["cubic", "quintic"])
    def test_ramps_are_the_literal_polynomials(self, kind):
        t = np.linspace(0.0, 1.0, 257)
        if kind == "cubic":
            expected = t * t * (3.0 - 2.0 * t)
        else:
            expected = t**3 * (10.0 - 15.0 * t + 6.0 * t * t)
        assert np.array_equal(cutoff_profile(t, kind, 1.0), expected)

    @pytest.mark.parametrize("width,kind,sat", [(0.3, "cubic", 0.9), (0.25, "quintic", 0.8)])
    def test_disc(self, width, kind, sat):
        loop, _ = random_frame_loop(np.random.default_rng(3), 2, N=64)
        A, _ = loop_boundary_form(loop)
        r, t = _grid(2 * np.pi)
        spec = build_collar_connection(loop, width=width, cutoff=kind, saturation=sat)
        rho = cutoff_profile((r - (1.0 - width)) / width, kind, sat)
        a = ref_periodic_lerp(A, (t / (2.0 * np.pi)) * len(loop))
        _assert_angular(spec, r, t, rho[..., None, None] * a / (2.0 * np.pi))

    def test_arc(self):
        path = quarter_arc_path(LagrangianFrame.standard(2), 65) @ np.diag([1.0, 1j])
        A = open_path_form(path)
        t_span = 0.5 * np.pi
        r, t = _grid(t_span)
        spec = build_arc_collar_connection(path, t_span=t_span, width=0.3)
        rho = cutoff_profile((r - (1.0 - 0.3)) / 0.3)
        a = ref_open_lerp(A, (t / t_span) * (len(path) - 1))
        _assert_angular(spec, r, t, rho[..., None, None] * a / t_span)

    def test_annulus(self):
        rng = np.random.default_rng(5)
        outer, _ = random_frame_loop(rng, 2, N=64)
        inner, _ = random_frame_loop(rng, 2, N=48)
        A_out, _ = loop_boundary_form(outer)
        A_in, _ = loop_boundary_form(inner)
        r_inner, width = 0.4, 0.2
        r, t = _grid(2 * np.pi)
        spec = build_annulus_collar_connection(outer, inner, r_inner=r_inner, width=width)
        rho_out = cutoff_profile((r - (1.0 - width)) / width)
        rho_in = cutoff_profile(((r_inner + width) - r) / width)
        a_out = ref_periodic_lerp(A_out, (t / (2 * np.pi)) * len(outer))
        a_in = ref_periodic_lerp(A_in, (-t / (2 * np.pi)) * len(inner))
        expected = (rho_out[..., None, None] * a_out / (2 * np.pi)
                    - rho_in[..., None, None] * a_in / (2 * np.pi))
        _assert_angular(spec, r, t, expected)

    def test_orbifold_invariant(self):
        loop, _ = random_frame_loop(np.random.default_rng(7), 2, N=64)
        spec = OrbifoldDiscSpec(2, ConePoint(3, (1, 2)), loop)
        A, _ = loop_boundary_form(loop)
        D = 1j * np.diag(np.array([1.0, 2.0]) / 3)
        r, t = _grid(2 * np.pi)
        rho = cutoff_profile((r - (1.0 - 0.3)) / 0.3)
        a = ref_periodic_lerp(A, (t / (2 * np.pi)) * len(loop))
        x = np.clip((r - 0.1) / 0.3, 0.0, 1.0)
        eta = 1.0 - x * x * (3.0 - 2.0 * x)
        expected = rho[..., None, None] * a / (2.0 * np.pi) + eta[..., None, None] * D
        _assert_angular(invariant_connection(spec), r, t, expected)

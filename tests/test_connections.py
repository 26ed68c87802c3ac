import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maslovcw import matcore
from maslovcw.connections import (
    build_arc_collar_connection,
    build_collar_connection,
    builtin_connection,
    collar_spec,
    collar_term,
    cutoff_profile,
    loop_boundary_form,
    loop_boundary_trace,
    open_path_form,
    open_path_trace,
)
from maslovcw.errors import (
    InvalidParameter, MaslovCWError, NonUnitaryConnection, RankMismatch, UnknownName, Undersampled,
)
from maslovcw.grassmann import LagrangianFrame
from maslovcw.loops import FrameLoop, aligned_frames, generate_loop, random_frame_loop
from maslovcw.orbifold import ConePoint, OrbifoldDiscSpec, invariant_connection
from maslovcw.polygon import quarter_arc_path
from maslovcw.tolerances import TOL

from full_reference import radial_gauge_transform


class TestBuiltins:
    def test_disc_example_values(self):
        spec = builtin_connection("example_2_7")
        r = np.array([0.0, 0.5, 1.0])
        At = spec.coeffs(r, np.zeros(3))
        assert np.allclose(At[:, 0, 0], -1j * r)
        assert np.array_equal(spec.trace(r, np.zeros(3)), At[:, 0, 0])
        assert spec.unitary

    def test_flat(self):
        spec = builtin_connection("flat", n=3)
        At = spec.coeffs(np.array([0.3]), np.array([1.0]))
        assert np.allclose(At, 0.0)
        assert np.array_equal(spec.trace(np.array([0.3]), np.array([1.0])), [0j])

    def test_nonunitary_counterexample_tag(self):
        spec = builtin_connection("example_4_3_nonunitary")
        assert not spec.unitary
        At = spec.coeffs(np.array([0.7]), np.array([0.0]))
        assert np.allclose(At[:, 0, 0], 0.7)  # real valued, not skew
        assert np.array_equal(spec.trace(np.array([0.7]), np.array([0.0])), At[:, 0, 0])

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
        At = spec.coeffs(r, np.linspace(0, 2 * np.pi, 11))
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
        At = spec.coeffs(np.array([0.5]), np.array([0.3]))
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

    def test_bad_parameters_are_library_errors(self):
        loop = generate_loop("constant", 64, n=2)
        for width in (0.0, 1.0):
            with pytest.raises(InvalidParameter) as err:
                build_collar_connection(loop, width=width)
            assert isinstance(err.value, MaslovCWError) and isinstance(err.value, ValueError)
            assert not isinstance(err.value, RankMismatch)

    def test_wrap_guard_rejects_at_build_time(self, wrap_rejected_loop):
        # rank 2, from a seeded generator: every step singular value (the
        # seam step too) clears the guard, but the monodromy extrapolated
        # past the last sample does not, so only the wrap guard rejects it
        loop = wrap_rejected_loop
        u = loop.samples
        M = np.real(np.swapaxes(np.roll(u, -1, axis=0), -1, -2).conj() @ u)
        assert np.linalg.svd(M, compute_uv=False).min() >= TOL.frame_step_sv
        with pytest.raises(Undersampled, match="wrap alignment singular value"):
            aligned_frames(u)
        for build in (lambda: build_collar_connection(loop),
                      lambda: invariant_connection(OrbifoldDiscSpec(2, ConePoint(2, (1, 0)), loop))):
            with pytest.raises(Undersampled, match="wrap alignment singular value"):
                build()

    def test_boundary_trace_matches_the_form(self, rng):
        # the trace read off det B is the trace of the frame-derived form up
        # to the stencil's discretization error, which falls as O(N^-4)
        for n in (1, 2, 3):
            errs = []
            for N in (128, 256):
                loop, _ = random_frame_loop(np.random.default_rng(n), n, N)
                A, _ = loop_boundary_form(loop)
                errs.append(np.abs(np.trace(A, axis1=1, axis2=2) - loop_boundary_trace(loop)).max())
            assert errs[1] <= 1e-5 and errs[1] <= max(errs[0] / 8, 1e-13)
        tau = loop_boundary_trace(generate_loop("circle_tangent", 256))
        assert np.abs(tau + 2j * np.pi).max() <= 1e-9 and not np.any(tau.real)
        path = quarter_arc_path(LagrangianFrame.standard(2)) @ np.diag([1.0, 1j])
        err = np.abs(np.trace(open_path_form(path), axis1=1, axis2=2) - open_path_trace(path))
        assert err.max() <= 1e-4

    def test_open_path_trace_guard(self):
        t = np.linspace(0.0, 1.0, 9)
        with pytest.raises(Undersampled):
            open_path_trace(np.exp(3j * np.pi * t)[:, None, None])


def builder_spec(kind, n, rng, width, cutoff, t_span):
    """A rank-n spec from one of the package's builders (``example_2_7`` is rank 1)."""
    if kind in ("example_2_7", "flat"):
        return builtin_connection(kind, n=n)
    loop, _ = random_frame_loop(rng, n, 64)
    if kind == "collar":
        return build_collar_connection(loop, width=width, cutoff=cutoff)
    if kind == "arc_collar":
        return build_arc_collar_connection(loop.samples[:33], t_span=t_span, width=width)
    m = int(rng.integers(2, 5))
    weights = tuple(int(w) for w in rng.integers(0, m, n))
    return invariant_connection(OrbifoldDiscSpec(n, ConePoint(m, weights), loop))


def near_skew_spec(n, defect):
    """A rank-n ``collar_spec`` of one constant form F = S + defect * ones, S skew-Hermitian.

    F's skew defect is 2 defect; its trace, tr S, is imaginary, and ``term``
    scales F by r.
    """
    H = np.random.default_rng(n).normal(size=(2, n, n))
    S = (H[0] + 1j * H[1]) - (H[0] + 1j * H[1]).conj().T
    F = S + defect * np.ones((n, n))
    return collar_spec(lambda A, r, t: r.reshape(r.shape + (1,) * A.ndim) * A,
                       (np.trace(S),), lambda: (F,), n, "near_skew")


class TestExactlySkew:
    """Every value a builder gives is exactly skew-Hermitian, at any point."""

    @settings(max_examples=80, deadline=None)
    @given(kind=st.sampled_from(["collar", "arc_collar", "orbifold", "example_2_7", "flat"]),
           n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
           width=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           cutoff=st.sampled_from(["cubic", "quintic"]),
           t_span=st.floats(0.05, 2 * np.pi),
           points=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(-20.0, 20.0)), max_size=30))
    def test_builder_values_have_zero_skew_defect(self, kind, n, seed, width, cutoff, t_span,
                                                  points):
        # t runs past the span, where a closed loop wraps and an open path
        # clamps; a grid of r and t adds points inside every collar
        n = 1 if kind == "example_2_7" else n
        rng = np.random.default_rng(seed)
        spec = builder_spec(kind, n, rng, width, cutoff, t_span)
        r, t = np.meshgrid(np.linspace(0.0, 1.0, 21), np.linspace(-1.0, 8.0, 7))
        drawn = np.array(points, dtype=float).reshape(-1, 2)
        r, t = np.append(r.ravel(), drawn[:, 0]), np.append(t.ravel(), drawn[:, 1])
        with np.errstate(over="ignore", divide="ignore"):  # depth of a tiny width
            values = np.asarray(spec.coeffs(r, t))
        assert values.shape == r.shape + (n, n)
        assert matcore.skew_defect(values) == 0.0

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_form_within_tolerance_is_made_exactly_skew(self, n):
        spec = near_skew_spec(n, 0.25 * TOL.skew)
        r = np.linspace(0.0, 1.0, 9)
        values = spec.coeffs(r, np.zeros_like(r))
        assert matcore.skew_defect(values) == 0.0
        assert np.abs(np.trace(values, axis1=-2, axis2=-1) - spec.trace(r, r)).max() <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_form_past_tolerance_raises_on_the_first_coeffs_call(self, n):
        # the build and the trace read only the trace, which is imaginary
        spec = near_skew_spec(n, 4.0 * TOL.skew)
        r = np.linspace(0.0, 1.0, 9)
        assert spec.trace(r, r).shape == r.shape
        with pytest.raises(NonUnitaryConnection, match="boundary form"):
            spec.coeffs(r, r)


class TestGaugeTransform:
    def test_transformed_form_still_skew(self):
        loop = generate_loop("circle_tangent", 128)
        spec = build_collar_connection(loop)
        S = np.array([[0.7j]])
        g = radial_gauge_transform(spec, S)
        r = np.linspace(0.05, 1.0, 7)
        t = np.linspace(0.0, 2 * np.pi, 7)
        Ar, At = g.radial(r, t), g.spec.coeffs(r, t)
        assert np.max(np.abs(Ar + Ar.conj().transpose(0, 2, 1))) <= 1e-12
        assert np.max(np.abs(At + At.conj().transpose(0, 2, 1))) <= 1e-12
        # boundary values unchanged: s(1) = 0
        one, t1 = np.array([1.0]), np.array([0.4])
        Ar1, At1 = g.radial(one, t1), g.spec.coeffs(one, t1)
        At0 = spec.coeffs(one, t1)
        # the transform adds a dr part; conjugation keeps the trace of A_theta
        assert g.spec.trace is spec.trace
        assert np.abs(np.trace(At, axis1=-2, axis2=-1) - spec.trace(r, t)).max() <= 1e-12
        assert np.allclose(Ar1, 0.0, atol=1e-14)
        assert np.allclose(At1, At0, atol=1e-14)


# ---------------------------------------------------------------------------
# every builder's collar term and trace, pinned to its written-out formula
# ---------------------------------------------------------------------------

def _weight(fr, A):
    return fr.reshape(fr.shape + (1,) * (A.ndim - 1))


def ref_periodic_lerp(A, x):
    N = A.shape[0]
    x = np.mod(x, N)
    i0 = np.floor(x).astype(int) % N
    fr = _weight(x - np.floor(x), A)
    return (1.0 - fr) * A[i0] + fr * A[(i0 + 1) % N]


def ref_open_lerp(A, x):
    N = A.shape[0]
    x = np.clip(x, 0.0, N - 1.0)
    i0 = np.minimum(np.floor(x).astype(int), N - 2)
    fr = _weight(x - i0, A)
    return (1.0 - fr) * A[i0] + fr * A[i0 + 1]


def ref_shifted(A, tau):
    """A - ((tr A - tau) / n) I: the form moved onto the trace tau."""
    n = A.shape[-1]
    A = A.copy()
    i = np.arange(n)
    A[..., i, i] -= ((np.trace(A, axis1=-2, axis2=-1) - tau) / n)[..., None]
    return A


def _grid(t_max):
    r, t = np.meshgrid(np.linspace(0.0, 1.0, 29), np.linspace(-0.1, t_max + 0.1, 53))
    return r.ravel(), t.ravel()


def _assert_angular(spec, r, t, expected, expected_trace):
    At = spec.coeffs(r, t)
    assert np.array_equal(At, expected)
    # the trace evaluator is the same formula on the traces; it meets the
    # trace of the full values up to rounding
    assert np.array_equal(spec.trace(r, t), expected_trace)
    assert np.abs(np.trace(At, axis1=-2, axis2=-1) - expected_trace).max() <= 1e-12


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
        tau = loop_boundary_trace(loop)
        A = ref_shifted(loop_boundary_form(loop)[0], tau)
        r, t = _grid(2 * np.pi)
        spec = build_collar_connection(loop, width=width, cutoff=kind, saturation=sat)
        rho = cutoff_profile((r - (1.0 - width)) / width, kind, sat)
        x = (t / (2.0 * np.pi)) * len(loop)
        _assert_angular(spec, r, t, rho[..., None, None] * ref_periodic_lerp(A, x) / (2.0 * np.pi),
                        rho * ref_periodic_lerp(tau, x) / (2.0 * np.pi))

    def test_arc(self):
        path = quarter_arc_path(LagrangianFrame.standard(2)) @ np.diag([1.0, 1j])
        tau = open_path_trace(path)
        A = ref_shifted(open_path_form(path), tau)
        t_span = 0.5 * np.pi
        r, t = _grid(t_span)
        spec = build_arc_collar_connection(path, t_span=t_span, width=0.3)
        rho = cutoff_profile((r - (1.0 - 0.3)) / 0.3)
        x = (t / t_span) * (len(path) - 1)
        _assert_angular(spec, r, t, rho[..., None, None] * ref_open_lerp(A, x) / t_span,
                        rho * ref_open_lerp(tau, x) / t_span)

    def test_orbifold_invariant(self):
        loop, _ = random_frame_loop(np.random.default_rng(7), 2, N=64)
        spec = OrbifoldDiscSpec(2, ConePoint(3, (1, 2)), loop)
        tau = loop_boundary_trace(loop)
        A = ref_shifted(loop_boundary_form(loop)[0], tau)
        D = 1j * np.diag(np.array([1.0, 2.0]) / 3)
        tau_cone = np.trace(D)  # i (1 + 2) / 3: the shift leaves D as it is
        assert np.array_equal(ref_shifted(D, tau_cone), D)
        r, t = _grid(2 * np.pi)
        rho = cutoff_profile((r - (1.0 - 0.3)) / 0.3)
        x = (t / (2 * np.pi)) * len(loop)
        y = np.clip((r - 0.1) / 0.3, 0.0, 1.0)
        eta = 1.0 - y * y * (3.0 - 2.0 * y)
        expected = rho[..., None, None] * ref_periodic_lerp(A, x) / (2.0 * np.pi) + eta[..., None, None] * D
        expected_trace = rho * ref_periodic_lerp(tau, x) / (2.0 * np.pi) + eta * tau_cone
        _assert_angular(invariant_connection(spec), r, t, expected, expected_trace)

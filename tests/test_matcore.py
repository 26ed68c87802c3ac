import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maslovcw import matcore
from maslovcw.errors import SingularInput
from maslovcw.grassmann import LagrangianFrame
from maslovcw.tolerances import TOL


def polar_factor_svd(M):
    """Independent polar-decomposition oracle via an SVD."""
    U, s, Vh = np.linalg.svd(M)
    return U @ Vh


def random_symmetric_unitary(n, rng):
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    th = rng.uniform(-np.pi / 2, np.pi / 2, n)
    return (Q * np.exp(2j * th)) @ Q.T


class TestSkewDefect:
    def test_diagonal_formula_matches_full(self, rng):
        for shape in [(64, 3, 1, 1), (50, 2, 1, 1)]:
            A = rng.normal(size=shape) * 1e-12 + 1j * rng.normal(size=shape)
            full = float(np.max(np.abs(A + np.swapaxes(A, -1, -2).conj())))
            assert matcore.skew_defect(A) == full
            assert matcore.diagonal_skew_defect(A[..., 0]) == full
        A = rng.normal(size=(20, 4, 4)) + 1j * rng.normal(size=(20, 4, 4))
        A = A - np.swapaxes(A, -1, -2).conj()
        d = np.diagonal(A, axis1=-2, axis2=-1)
        assert matcore.diagonal_skew_defect(d) == np.max(np.abs(d + d.conj())) == 0.0
        assert matcore.skew_defect(A[:0]) == matcore.diagonal_skew_defect(d[:0]) == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("part", ["real", "imag"])
    def test_non_finite_trips_a_guard(self, bad, part):
        d = np.full(8, -1j)
        d[3] = complex(bad, 1.0) if part == "real" else complex(0.0, bad)
        for defect in (matcore.diagonal_skew_defect(d), matcore.skew_defect(d[:, None, None])):
            assert not defect <= 1e-10
        A = np.zeros((8, 2, 2), dtype=complex)
        A[3, 0, 1] = d[3]
        assert not matcore.skew_defect(A) <= 1e-10


def perturbed_to(U, E, target):
    """U + eps E, with eps scaled so that the unitary defect sits just under ``target``."""
    d = matcore.unitary_defect(U + 1e-9 * E)
    return U + (1e-9 * 0.999 * target / d) * E


class TestUnitarize:
    def test_identity(self):
        assert np.array_equal(matcore.unitarize_batch(np.eye(3)), np.eye(3))
        assert np.array_equal(LagrangianFrame.from_matrix(np.eye(3)).u, np.eye(3))

    def test_positive_diagonal_projects_to_identity(self):
        got = matcore.unitarize_batch(np.diag([2.0, 1.0]).astype(complex), steps=6)
        assert np.allclose(got, np.eye(2), atol=1e-12)

    def test_matches_svd_polar_oracle(self, rng):
        U = matcore.haar_unitary(4, rng)
        H = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        M = perturbed_to(U, U @ (H + H.conj().T), TOL.same_lagrangian)
        assert 1e-13 * 4 < matcore.unitary_defect(M) <= TOL.same_lagrangian
        got = LagrangianFrame.from_matrix(M).u
        assert np.linalg.norm(got - U) <= 1e-8
        assert np.linalg.norm(got - polar_factor_svd(M)) <= 1e-14

    def test_singular_input_rejected(self):
        bad = np.eye(2, dtype=complex)
        bad[0, 1] = np.nan
        for M in (np.diag([1.0, 0.4]).astype(complex), bad, np.ones((2, 3))):
            with pytest.raises(SingularInput):
                LagrangianFrame.from_matrix(M)

    @pytest.mark.parametrize("n", range(1, matcore.MAX_RANK + 1))
    def test_one_step_polishes_any_accepted_frame(self, rng, n):
        # from_matrix accepts a defect up to TOL.same_lagrangian and polishes
        # it with one Newton step; that step must land below 1e-14 n
        for k in range(8):
            U = matcore.haar_unitary(n, rng)
            E = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            if k % 2:
                E = U @ (E + E.conj().T)  # radial: U (I + eps H)
            M = perturbed_to(U, E, TOL.same_lagrangian)
            assert 1e-13 * n < matcore.unitary_defect(M) <= TOL.same_lagrangian
            assert matcore.unitary_defect(matcore._newton_step(M)) <= 1e-14 * n
            assert np.array_equal(LagrangianFrame.from_matrix(M).u, matcore._newton_step(M))

    def test_post_bound_and_det_modulus(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 7))
            U = matcore.haar_unitary(n, rng)
            E = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            M = U + 0.05 * E
            if np.linalg.svd(M, compute_uv=False)[-1] <= 0.5:
                continue
            got = matcore.unitarize_batch(M, steps=6)
            assert matcore.unitary_defect(got) <= 1e-12
            gram_defect = np.linalg.norm(M.conj().T @ M - np.eye(n))
            assert np.linalg.norm(got - M) <= 2.0 * gram_defect + 1e-12
            assert abs(abs(np.linalg.det(got)) - 1.0) <= 1e-10


class TestTakagi:
    def test_shifts_are_the_frozen_draw(self):
        want = (0.7310585786300049,) + tuple(np.random.default_rng(0xC0FFEE).uniform(-2.0, 2.0, 40))
        got = matcore._shifts()
        assert len(got) == 41
        assert np.array(got).tobytes() == np.array(want).tobytes()

    def test_importing_the_cli_leaves_numpy_random_unloaded(self, package_env):
        # nor the process-pool modules, which only the forked verify path imports
        code = ("import sys, maslovcw.cli; print([m for m in ('numpy.random', "
                "'concurrent.futures', 'multiprocessing') if m in sys.modules])")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=package_env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_identity_reconstructs(self):
        O, th = matcore.takagi_symmetric_unitary(np.eye(3, dtype=complex))
        assert np.allclose((O * np.exp(2j * th)) @ O.T, np.eye(3))
        assert np.allclose(th, 0.0)

    def test_diagonal_phases(self):
        th_in = np.array([0.3, -0.7])
        M = np.diag(np.exp(2j * th_in))
        O, th = matcore.takagi_symmetric_unitary(M)
        R = (O * np.exp(2j * th)) @ O.T
        assert np.linalg.norm(R - M) <= 1e-12

    def test_construct_then_factor(self, rng):
        M = random_symmetric_unitary(4, rng)
        O, th = matcore.takagi_symmetric_unitary(M)
        R = (O * np.exp(2j * th)) @ O.T
        assert np.linalg.norm(R - M) <= 1e-9
        assert np.linalg.norm(O.imag) <= 1e-10
        assert np.all(th > -np.pi / 2 - 1e-12) and np.all(th <= np.pi / 2 + 1e-12)

    def test_hundred_random_reconstructions(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 7))
            M = random_symmetric_unitary(n, rng)
            O, th = matcore.takagi_symmetric_unitary(M)
            R = (O * np.exp(2j * th)) @ O.T
            assert np.linalg.norm(R - M) <= 1e-9
            assert np.linalg.norm(O @ O.T - np.eye(n)) <= 1e-12

    def test_repeated_phases(self):
        # genuine multiplicity: every shift is degenerate but blocks are scalar
        M = np.diag([1j, 1j, 1j]).astype(complex)
        O, th = matcore.takagi_symmetric_unitary(M)
        assert np.linalg.norm((O * np.exp(2j * th)) @ O.T - M) <= 1e-12

    def test_symmetry_guard_is_tol_symmetric(self, rng):
        M = random_symmetric_unitary(3, rng)
        M = 0.5 * (M + M.T)
        matcore.takagi_symmetric_unitary(M)
        bad = M.copy()
        bad[0, 1] += 5e-10  # defect sqrt(2) * 5e-10: above 1e-10, below 1e-9
        with pytest.raises(SingularInput, match="within 1e-10"):
            matcore.takagi_symmetric_unitary(bad)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_takagi_reconstruction_property(n, seed):
    rng = np.random.default_rng(seed)
    M = random_symmetric_unitary(n, rng)
    O, th = matcore.takagi_symmetric_unitary(M)
    assert np.linalg.norm((O * np.exp(2j * th)) @ O.T - M) <= 1e-9


def gram_defects(U):
    """||U_k* U_k - I||_F of each matrix of a stack, through the complex Gram matrix."""
    n = U.shape[-1]
    return np.linalg.norm(np.swapaxes(U, -1, -2).conj() @ U - np.eye(n), axis=(-2, -1))


class TestUnitaryDefect:
    """``matcore.unitary_defect``: real Gram entries over a stack, a matmul for one matrix."""

    RANKS = range(1, 9)

    @staticmethod
    def near_unitary(rng, N, n, scale=1e-9):
        U = np.stack([matcore.haar_unitary(n, rng) for _ in range(N)]).reshape(N, n, n)
        return U + scale * (rng.normal(size=U.shape) + 1j * rng.normal(size=U.shape))

    @pytest.mark.parametrize("n", RANKS)
    @pytest.mark.parametrize("N", [1, 7, 64, 2048])
    def test_matches_the_complex_gram(self, rng, n, N):
        # both sides of the rank cut: elementwise up to DET_EXPANSION_MAX, real matmuls above
        for scale in (0.0, 1e-12, 1e-9):
            U = self.near_unitary(rng, N, n, scale)
            ref = gram_defects(U).max()
            assert abs(matcore.unitary_defect(U) - ref) <= 4 * n * n * np.finfo(float).eps
        A = rng.normal(size=(N, n, n)) + 1j * rng.normal(size=(N, n, n))
        ref = gram_defects(A).max()
        assert abs(matcore.unitary_defect(A) - ref) <= 1e-13 * ref
        real = rng.normal(size=(N, n, n))
        ref = gram_defects(real).max()
        assert abs(matcore.unitary_defect(real) - ref) <= 1e-13 * ref

    @pytest.mark.parametrize("n", RANKS)
    def test_one_matrix_is_the_complex_gram_bitwise(self, rng, n):
        # from_matrix's polish decision reads this value
        for u in (self.near_unitary(rng, 1, n)[0], rng.normal(size=(n, n)) + 0j):
            assert matcore.unitary_defect(u) == float(gram_defects(u))

    @pytest.mark.parametrize("n", RANKS)
    def test_a_matrix_defect_does_not_depend_on_the_stack(self, rng, n):
        # transport_defects reports the drift of the chained edges as that of
        # every edge, so a sub-stack's defect must be the same bits
        U = self.near_unitary(rng, 100, n)
        whole = matcore.unitary_defect(U)
        alone = [matcore.unitary_defect(U[k:k + 1]) for k in range(len(U))]
        assert whole == max(alone)
        for a, b in [(0, 1), (5, 7), (3, 40), (60, 100)]:
            assert matcore.unitary_defect(U[a:b]) == max(alone[a:b])
        assert matcore.unitary_defect(U.reshape(4, 25, n, n)) == whole

    @pytest.mark.parametrize("n", [1, 2, 4, 5])
    def test_blocks_of_a_long_stack(self, rng, n, monkeypatch):
        # the worst matrix in the last, one-matrix block of a long stack
        monkeypatch.setattr(matcore, "BLOCK", 16)
        U = self.near_unitary(rng, 33, n, 1e-12)
        U[32] += 1e-9
        ref = matcore.unitary_defect(U[32:])
        assert matcore.unitary_defect(U) == ref
        assert abs(ref - gram_defects(U).max()) <= 4 * n * n * np.finfo(float).eps

    @pytest.mark.parametrize("n", RANKS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan),
                                     complex(0.0, np.inf)])
    def test_non_finite_entry_gives_nan_or_inf(self, rng, n, bad):
        U = self.near_unitary(rng, 64, n)
        for i, j in {(0, 0), (n - 1, 0), (0, n - 1), (n - 1, n - 1)}:
            for A in (U.copy(), U[:1].copy(), U[0].copy()):
                A.reshape(-1, n, n)[-1, i, j] = bad
                with np.errstate(invalid="ignore", over="ignore"):
                    d = matcore.unitary_defect(A)
                assert np.isnan(d) or d == np.inf
                assert not d <= TOL.same_lagrangian


class TestDet:
    """``matcore.det``: minor expansion up to DET_EXPANSION_MAX, np.linalg.det above it."""

    RANKS = range(1, matcore.MAX_RANK + 1)

    @staticmethod
    def haar_stack(rng, N, n):
        return np.stack([matcore.haar_unitary(n, rng) for _ in range(N)]).reshape(N, n, n)

    def test_cut_is_inside_the_rank_range(self):
        assert 1 <= matcore.DET_EXPANSION_MAX < matcore.MAX_RANK

    @pytest.mark.parametrize("n", RANKS)
    def test_haar_unitaries(self, rng, n):
        U = self.haar_stack(rng, 64, n)
        assert np.abs(matcore.det(U) - np.linalg.det(U)).max() <= 1e-14

    @pytest.mark.parametrize("n", RANKS)
    def test_symmetric_unitaries(self, rng, n):
        u = self.haar_stack(rng, 32, n)
        B = u @ np.swapaxes(u, -1, -2)
        assert np.abs(matcore.det(B) - np.linalg.det(B)).max() <= 1e-14
        assert np.abs(matcore.det(B) - matcore.det(u) ** 2).max() <= 1e-13

    @pytest.mark.parametrize("n", RANKS)
    def test_general_complex(self, rng, n):
        A = rng.normal(size=(64, n, n)) + 1j * rng.normal(size=(64, n, n))
        ref = np.linalg.det(A)
        assert (np.abs(matcore.det(A) - ref) / np.abs(ref)).max() <= 1e-12

    @pytest.mark.parametrize("n", RANKS)
    def test_shapes(self, rng, n):
        for shape in [(n, n), (5, n, n), (2, 5, n, n), (0, n, n), (2, 0, n, n)]:
            A = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            got, ref = matcore.det(A), np.linalg.det(A)
            assert np.shape(got) == np.shape(ref) and np.ndim(got) == np.ndim(ref)
            assert np.result_type(got) == np.result_type(ref) == np.complex128
            assert np.allclose(got, ref, rtol=1e-12, atol=0.0)

    def test_returns_a_fresh_array(self, rng):
        for n in range(1, matcore.DET_EXPANSION_MAX + 1):
            A = rng.normal(size=(8, n, n)) + 0j
            d = matcore.det(A)
            d[:] = 0.0
            assert np.all(A != 0.0)

    @pytest.mark.parametrize("n", range(matcore.DET_EXPANSION_MAX + 1, matcore.MAX_RANK + 1))
    def test_above_the_cut_is_lapack_bitwise(self, rng, n):
        A = rng.normal(size=(16, n, n)) + 1j * rng.normal(size=(16, n, n))
        assert matcore.det(A).tobytes() == np.linalg.det(A).tobytes()

    @pytest.mark.parametrize("n", RANKS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.inf)])
    def test_non_finite_entry_gives_non_finite_det(self, rng, n, bad):
        U = self.haar_stack(rng, 8, n)
        for i in range(n):
            for j in range(n):
                A = U.copy()
                A[3, i, j] = bad
                with np.errstate(invalid="ignore"):  # as np.linalg.det, inf - inf warns
                    d = matcore.det(A)
                assert not np.isfinite(d[3])
                assert np.isfinite(np.delete(d, 3)).all()

    @pytest.mark.parametrize("n", range(1, matcore.DET_EXPANSION_MAX + 2))
    def test_nan_sample_rejected_on_the_open_path(self, rng, n):
        from maslovcw.connections import build_arc_collar_connection, open_path_trace
        from maslovcw.errors import NonUnitaryConnection

        t = np.linspace(0.0, 1.0, 33)
        path = matcore.haar_unitary(n, rng)[None] * np.exp(0.5j * np.pi * t)[:, None, None]
        path[5, n - 1, 0] = np.nan
        assert np.isnan(open_path_trace(path)).any()
        with pytest.raises(NonUnitaryConnection):
            build_arc_collar_connection(path, t_span=0.5 * np.pi)

import warnings

import numpy as np
import pytest

from maslovcw import matcore
from maslovcw.errors import MaslovCWError, NotTransverse, RankMismatch, SingularInput
from maslovcw.grassmann import (
    LagrangianFrame,
    b_map,
    intersection_dim,
    positive_path,
    same_lagrangian,
)
from maslovcw.loops import winding


def real_span_intersection_dim(F, G, tol=1e-9):
    """Independent oracle: rank of the stacked real bases.

    A frame U spans the real column space of [Re U; Im U] in R^{2n}; the
    intersection dimension is n + n - rank of the concatenation.
    """
    def real_basis(u):
        return np.concatenate([u.real, u.imag], axis=0)

    A = np.concatenate([real_basis(F.u), real_basis(G.u)], axis=1)
    return 2 * F.n - np.linalg.matrix_rank(A, tol=tol)


def frame_at(path, t):
    """The frame of a positive path at time t."""
    return LagrangianFrame(path.n, path.sample(np.array([t]))[0])


def random_orthogonal(n, rng):
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return Q


class TestFromMatrix:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(np.inf, 1.0)])
    @pytest.mark.parametrize("n", [1, 3])
    def test_non_finite_frame_rejected(self, rng, n, bad):
        u = matcore.haar_unitary(n, rng)
        u[n - 1, 0] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularInput, match="non-finite"):
                LagrangianFrame.from_matrix(u)

    def test_non_unitary_frame_rejected(self, rng):
        u = matcore.haar_unitary(2, rng) * (1 + 1e-6)
        with pytest.raises(SingularInput, match="unitary defect"):
            LagrangianFrame.from_matrix(u)
        assert issubclass(SingularInput, MaslovCWError)


class TestBMap:
    def test_identity(self):
        assert np.allclose(b_map(LagrangianFrame.standard(2)), np.eye(2))

    def test_diagonal_phases_square(self):
        a = 0.4
        F = LagrangianFrame.from_matrix(np.diag([np.exp(1j * a)]))
        assert np.allclose(b_map(F), np.diag([np.exp(2j * a)]))

    def test_frame_invariance_hundred_cases(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 6))
            U = matcore.haar_unitary(n, rng)
            O = random_orthogonal(n, rng)
            F = LagrangianFrame.from_matrix(U)
            FO = LagrangianFrame.from_matrix(U @ O)
            assert np.linalg.norm(b_map(F) - b_map(FO)) <= 1e-10


class TestSameLagrangian:
    def test_orthogonal_twist_is_same(self, rng):
        U = matcore.haar_unitary(3, rng)
        O = random_orthogonal(3, rng)
        assert same_lagrangian(
            LagrangianFrame.from_matrix(U), LagrangianFrame.from_matrix(U @ O)
        )

    def test_rotated_line_differs(self):
        F = LagrangianFrame.standard(1)
        G = LagrangianFrame.from_matrix(np.diag([np.exp(1j * np.pi / 4)]))
        assert not same_lagrangian(F, G)

    def test_matches_real_span_oracle(self, rng):
        for _ in range(40):
            n = int(rng.integers(1, 5))
            U = matcore.haar_unitary(n, rng)
            F = LagrangianFrame.from_matrix(U)
            if rng.uniform() < 0.5:
                G = LagrangianFrame.from_matrix(U @ random_orthogonal(n, rng))
            else:
                G = LagrangianFrame.from_matrix(matcore.haar_unitary(n, rng))
            expected = real_span_intersection_dim(F, G) == n
            assert same_lagrangian(F, G) == expected

    def test_rank_mismatch(self):
        with pytest.raises(RankMismatch):
            same_lagrangian(LagrangianFrame.standard(2), LagrangianFrame.standard(3))


class TestIntersectionDim:
    def test_equal_frames(self):
        F = LagrangianFrame.standard(4)
        assert intersection_dim(F, F) == 4

    def test_transverse_line(self):
        F = LagrangianFrame.standard(1)
        G = LagrangianFrame.from_matrix(np.diag([np.exp(1j * np.pi / 4)]))
        assert intersection_dim(F, G) == 0

    def test_shared_one_dimensional_subspace(self, rng):
        U = matcore.haar_unitary(3, rng)
        F = LagrangianFrame.from_matrix(U)
        G = LagrangianFrame.from_matrix(U @ np.diag(np.exp(1j * np.array([0.0, np.pi / 5, np.pi / 7]))))
        assert intersection_dim(F, G) == 1
        assert real_span_intersection_dim(F, G) == 1

    def test_symmetry(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 5))
            F = LagrangianFrame.from_matrix(matcore.haar_unitary(n, rng))
            G = LagrangianFrame.from_matrix(matcore.haar_unitary(n, rng))
            assert intersection_dim(F, G) == intersection_dim(G, F)


class TestPositivePath:
    def test_i_rotation_gives_quarter_angles(self, rng):
        F = LagrangianFrame.from_matrix(matcore.haar_unitary(3, rng))
        G = LagrangianFrame(F.n, 1j * F.u)  # the image under the complex structure
        path = positive_path(F, G)
        assert np.allclose(path.angles, np.pi / 2, atol=1e-9)
        # the path is e^{i pi t / 2} . F as Lagrangians
        for t in (0.25, 0.5, 0.75):
            probe = LagrangianFrame.from_matrix(np.exp(1j * np.pi * t / 2) * F.u)
            assert same_lagrangian(frame_at(path, t), probe)

    def test_equal_frames_not_transverse(self):
        F = LagrangianFrame.standard(2)
        with pytest.raises(NotTransverse):
            positive_path(F, F)

    def test_endpoint_and_monotonicity(self):
        F = LagrangianFrame.standard(2)
        G = LagrangianFrame.from_matrix(np.diag(np.exp(1j * np.array([np.pi / 3, np.pi / 5]))))
        path = positive_path(F, G)
        assert same_lagrangian(frame_at(path, 1.0), G)
        ts = np.linspace(0.0, 1.0, 256)
        frames = path.sample(ts)
        det_b = np.linalg.det(frames) ** 2
        steps = np.angle(det_b[1:] / det_b[:-1])
        assert np.all(steps > 0.0)

    def test_two_path_loop_winds_by_rank(self, rng):
        for n in (1, 2, 3):
            F = LagrangianFrame.from_matrix(matcore.haar_unitary(n, rng))
            G = LagrangianFrame.from_matrix(matcore.haar_unitary(n, rng))
            there = positive_path(F, G)
            back = positive_path(G, F)
            ts = np.arange(128) / 128
            loop = np.concatenate([there.sample(ts), back.sample(ts)], axis=0)
            z = np.linalg.det(loop) ** 2
            assert winding(z) == n

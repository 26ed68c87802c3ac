"""Dense complex small-matrix kernels (n <= 16).

Stack determinants, unitarization by Newton iteration, principal logarithms
of unitaries, and Takagi factorization of symmetric unitaries.  Up to rank
``DET_EXPANSION_MAX`` a determinant is an exact minor expansion vectorised
over the stack, not one LAPACK LU per matrix.  The two factorizations share
one trick: a unitary (resp. symmetric unitary) splits into a commuting
Hermitian (resp. real symmetric) pair, which a single shifted eigh call
diagonalizes jointly.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .errors import BranchCut, DegenerateSpectrum, SingularInput
from .tolerances import TOL

MAX_RANK = 16

# Largest rank whose determinant is expanded in minors.  On stacks of 512
# Haar unitaries (one BLAS thread) the expansion beats LAPACK's per-matrix LU
# about 19x at rank 1, 13x at 2, 6x at 3, 3x at 4 and 1.7x at 5, and loses
# from rank 6 on; on 64-sample stacks it loses 1.7x at rank 4 but 3x at 5.
DET_EXPANSION_MAX = 4

# First shift is fixed; the rest are pseudo-random from a frozen seed.  A
# shift only fails when two distinct eigenvalue pairs collide accidentally,
# which happens for at most one shift value per pair.
_SHIFTS = (0.7310585786300049,) + tuple(
    np.random.default_rng(0xC0FFEE).uniform(-2.0, 2.0, 40)
)

_NEWTON_CAP = 20


def det(U: np.ndarray) -> np.ndarray:
    """Determinant of a square matrix or of each matrix in a stack (..., n, n).

    Up to rank ``DET_EXPANSION_MAX`` this is the Laplace expansion along the
    rows: the minors of rows 0..r over every (r+1)-subset of the columns are
    built from those of rows 0..r-1, each one elementwise over the stack.
    No pivoting, no division; a NaN or inf entry gives a non-finite value.
    Above it, and for anything but a float or complex stack, np.linalg.det.
    """
    U = np.asarray(U)
    n = U.shape[-1] if U.ndim else 0
    if (U.ndim < 2 or U.shape[-2] != n or not 1 <= n <= DET_EXPANSION_MAX
            or U.dtype.kind not in "fc"):
        return np.linalg.det(U)
    if n == 1:
        return np.positive(U[..., 0, 0])  # a fresh array, or a scalar for one matrix
    minors = {(j,): U[..., 0, j] for j in range(n)}
    for r in range(1, n):
        nxt = {}
        for S in combinations(range(n), r + 1):
            # along row r, the minor's column S[p] has sign (-1)^(r - p)
            acc = U[..., r, S[r]] * minors[S[:r]]
            for p in range(r - 1, -1, -1):
                term = U[..., r, S[p]] * minors[S[:p] + S[p + 1:]]
                if (r - p) % 2:
                    acc -= term
                else:
                    acc += term
            nxt[S] = acc
        minors = nxt
    return minors[tuple(range(n))]


def frobenius(M: np.ndarray) -> float:
    return float(np.linalg.norm(M))


def unitary_defect(U: np.ndarray) -> float:
    """||U* U - I||_F."""
    n = U.shape[-1]
    return float(
        np.max(np.linalg.norm(np.swapaxes(U, -1, -2).conj() @ U - np.eye(n), axis=(-2, -1)))
    )


def skew_defect(A: np.ndarray) -> float:
    """Largest |A + A^*| entry of a stack (..., n, n), 0 when it is empty.

    NaN-safe: a NaN entry gives NaN, so a guard written
    ``not defect <= tol`` trips on it.  Rank 1 is a diagonal stack.
    """
    if A.shape[-1] == 1:
        return diagonal_skew_defect(A)
    if not A.size:
        return 0.0
    return float(np.max(np.abs(A + np.swapaxes(A, -1, -2).conj())))


def diagonal_skew_defect(d: np.ndarray) -> float:
    """Largest |a + conj a| over the diagonals or traces ``d``, 0 when empty.

    That is 2 max|Re a|, equal for finite input and without complex
    temporaries.  An imaginary part that is not finite makes a + conj a NaN,
    so it gives NaN here too; a non-finite real part shows in the maximum.
    """
    if not d.size:
        return 0.0
    if not np.isfinite(d.imag).all():
        return float("nan")
    return 2.0 * float(np.max(np.abs(d.real)))


def symmetry_defect(M: np.ndarray) -> float:
    return float(np.linalg.norm(M - M.T))


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    Z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    Q, R = np.linalg.qr(Z)
    return Q * (np.diagonal(R) / np.abs(np.diagonal(R)))


def unitarize(M: np.ndarray) -> np.ndarray:
    """Project a near-unitary square matrix to its polar unitary factor.

    Newton iteration U <- (U + U^{-*})/2; quadratically convergent when all
    singular values are near 1.  Raises SingularInput when the smallest
    singular value is <= 0.5, where the iteration is no longer trustworthy.
    """
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise SingularInput(f"expected a square matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise SingularInput("non-finite entries")
    sv = np.linalg.svd(M, compute_uv=False)
    if sv[-1] <= 0.5:
        raise SingularInput(f"smallest singular value {sv[-1]:.3g} <= 0.5")
    X = M
    for _ in range(_NEWTON_CAP):
        X = _newton_step(X)
        if unitary_defect(X) <= 1e-14 * X.shape[0]:
            break
    return X


def unitarize_batch(M: np.ndarray, steps: int = 4) -> np.ndarray:
    """Newton polish for a stack of near-unitary matrices (no singularity check)."""
    X = np.asarray(M, dtype=complex)
    for _ in range(steps):
        X = _newton_step(X)
    return X


def _newton_step(X: np.ndarray) -> np.ndarray:
    """U <- (U + U^{-*})/2 on one matrix or a stack."""
    return 0.5 * (X + np.swapaxes(np.linalg.inv(X), -1, -2).conj())


def _joint_diag_hermitian(A: np.ndarray, B: np.ndarray, reconstruct, tol_recon: float):
    """Diagonalize commuting Hermitian A, B by one shifted eigh per attempt.

    ``reconstruct(V, a, b)`` must rebuild the original matrix from the
    candidate basis V and the diagonals a, b; the first candidate whose
    reconstruction error passes is accepted.  Genuine eigenvalue multiplicity
    is harmless (blocks are scalar there); only accidental collisions of
    distinct (a, b) pairs force another shift.
    """
    for c in _SHIFTS:
        w, V = np.linalg.eigh(A + c * B)
        a = np.einsum("ij,jk,ki->i", V.conj().T, A, V).real
        b = np.einsum("ij,jk,ki->i", V.conj().T, B, V).real
        M, err = reconstruct(V, a, b)
        if err <= tol_recon:
            return V, a, b
    raise DegenerateSpectrum(
        "joint diagonalization failed for every shift (reconstruction error "
        f"{err:.3g} > {tol_recon:.3g})"
    )


def principal_log_unitary(U: np.ndarray) -> np.ndarray:
    """Skew-Hermitian H with exp(H) = U and all eigenphases in (-pi, pi).

    Splits U into the commuting Hermitian pair (U + U*)/2, (U - U*)/2i and
    recovers eigenphases by atan2 on the joint diagonal.  Raises BranchCut
    when an eigenphase falls within tolerance of +-pi.
    """
    U = np.asarray(U, dtype=complex)
    n = U.shape[0]
    A = 0.5 * (U + U.conj().T)
    B = (U - U.conj().T) / 2j

    target = U

    def rebuild(V, a, b):
        phases = np.arctan2(b, a)
        M = (V * np.exp(1j * phases)) @ V.conj().T
        return M, frobenius(M - target)

    V, a, b = _joint_diag_hermitian(A, B, rebuild, max(1e-10 * n, 1e-12))
    phases = np.arctan2(b, a)
    if np.any(np.pi - np.abs(phases) < TOL.branch_cut):
        raise BranchCut("eigenphase within tolerance of the branch cut at +-pi")
    return (V * (1j * phases)) @ V.conj().T


def takagi_symmetric_unitary(M: np.ndarray):
    """Factor a symmetric unitary as M = O e^{2i Theta} O^T.

    O is real orthogonal and Theta is a real diagonal of phases in
    (-pi/2, pi/2].  M = X + iY with X, Y real symmetric and commuting, so a
    shifted real eigh diagonalizes both at once.
    """
    M = np.asarray(M, dtype=complex)
    if symmetry_defect(M) > TOL.symmetric:
        raise SingularInput(f"matrix is not symmetric within {TOL.symmetric:g}")
    X = 0.5 * (M.real + M.real.T)
    Y = 0.5 * (M.imag + M.imag.T)

    def rebuild(O, x, y):
        two_theta = np.arctan2(y, x)
        R = (O * np.exp(1j * two_theta)) @ O.T
        return R, frobenius(R - M)

    O, x, y = _joint_diag_hermitian(X, Y, rebuild, TOL.takagi_recon)
    theta = 0.5 * np.arctan2(y, x)
    return np.ascontiguousarray(O.real), theta


def eigenphases_unitary(U: np.ndarray) -> np.ndarray:
    """Principal eigenphases of a unitary matrix, ascending."""
    return np.sort(np.angle(np.linalg.eigvals(U)))

"""Dense complex small-matrix kernels (n <= 16).

Stack determinants, a Newton unitary polish, and Takagi factorization of
symmetric unitaries.  Up to rank ``DET_EXPANSION_MAX`` a determinant is an
exact minor expansion vectorised over the stack, not one LAPACK LU per
matrix.  A symmetric unitary splits into a commuting real symmetric pair,
which a single shifted eigh call diagonalizes jointly.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations

import numpy as np

from .errors import DegenerateSpectrum, SingularInput
from .tolerances import TOL

MAX_RANK = 16

# Largest rank whose determinant is expanded in minors.  On stacks of 512
# Haar unitaries (one BLAS thread) the expansion beats LAPACK's per-matrix LU
# about 19x at rank 1, 13x at 2, 6x at 3, 3x at 4 and 1.7x at 5, and loses
# from rank 6 on; on 64-sample stacks it loses 1.7x at rank 4 but 3x at 5.
DET_EXPANSION_MAX = 4


@cache
def _shifts() -> tuple:
    """The Takagi shifts: the first is fixed, the rest pseudo-random from a
    frozen seed.  A shift only fails when two distinct eigenvalue pairs
    collide accidentally, which happens for at most one shift value per pair.
    Drawn on first use, so importing the package does not load numpy.random.
    """
    return (0.7310585786300049,) + tuple(np.random.default_rng(0xC0FFEE).uniform(-2.0, 2.0, 40))


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


def unitarize_batch(M: np.ndarray, steps: int = 4) -> np.ndarray:
    """``steps`` Newton steps on one near-unitary matrix or a stack (no singularity check)."""
    X = np.asarray(M, dtype=complex)
    for _ in range(steps):
        X = _newton_step(X)
    return X


def _newton_step(X: np.ndarray) -> np.ndarray:
    """U <- (U + U^{-*})/2 on one matrix or a stack."""
    return 0.5 * (X + np.swapaxes(np.linalg.inv(X), -1, -2).conj())


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
    # Genuine eigenvalue multiplicity is harmless (blocks are scalar there);
    # only accidental collisions of distinct (x, y) pairs force another shift.
    for c in _shifts():
        _, O = np.linalg.eigh(X + c * Y)
        x = np.einsum("ij,jk,ki->i", O.T, X, O)
        y = np.einsum("ij,jk,ki->i", O.T, Y, O)
        two_theta = np.arctan2(y, x)
        err = frobenius((O * np.exp(1j * two_theta)) @ O.T - M)
        if err <= TOL.takagi_recon:
            return np.ascontiguousarray(O), 0.5 * two_theta
    raise DegenerateSpectrum(
        "joint diagonalization failed for every shift (reconstruction error "
        f"{err:.3g} > {TOL.takagi_recon:.3g})"
    )


def eigenphases_unitary(U: np.ndarray) -> np.ndarray:
    """Principal eigenphases of a unitary matrix, ascending."""
    return np.sort(np.angle(np.linalg.eigvals(U)))

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maslovcw import _kernels, matcore
from maslovcw.tolerances import TOL


def expm_skew(G):
    """exp of a single skew-Hermitian matrix via eigh of -iG."""
    lam, V = np.linalg.eigh(-1j * G)
    return (V * np.exp(1j * lam)) @ V.conj().T


def random_skew_batch(rng, E, s, n):
    G = rng.normal(size=(E, s, n, n)) + 1j * rng.normal(size=(E, s, n, n))
    return 0.3 * (G - G.conj().transpose(0, 1, 3, 2))


def test_numpy_path_is_unitary(rng):
    G = random_skew_batch(rng, 40, 3, 4)
    T = _kernels.transport_chain(G)
    eye = np.eye(4)
    defect = np.max(np.linalg.norm(T.conj().transpose(0, 2, 1) @ T - eye, axis=(1, 2)))
    assert defect <= 1e-13


# Frobenius norm of the largest per-substep generator measured over verify
# seeds 0-31 and the cli_files inputs of seeds 0-3, 7, 11, 17, 23 and 29
LARGEST_EDGE_STEP = 0.1954


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8), s=st.integers(1, 3),
       E=st.integers(1, 24), top=st.floats(0.0, 10.5 * LARGEST_EDGE_STEP))
def test_numpy_path_is_unitary_over_the_edge_step_range(seed, n, s, E, top):
    # every polished transport of a skew-Hermitian stack stays unitary: the
    # generators' Frobenius norms run from 0 to past 10x the largest edge step
    rng = np.random.default_rng(seed)
    G = random_skew_batch(rng, E, s, n)
    norms = np.linalg.norm(G, axis=(-2, -1))[..., None, None]
    target = rng.uniform(0.0, top, (E, s, 1, 1))
    target[0, 0] = top  # the top of the range is always drawn
    G = np.divide(G * target, norms, out=np.zeros_like(G), where=norms > 0)
    T = _kernels.transport_chain(G)
    assert T.shape == (E, n, n)
    assert matcore.unitary_defect(T) <= TOL.unitary_global


def test_scalar_path_is_exact(rng):
    G = random_skew_batch(rng, 64, 4, 1)
    T = _kernels.transport_chain(G)
    assert np.allclose(T, np.exp(G.sum(axis=1)))


def test_chain_matches_sequential_exponentials(rng):
    G = random_skew_batch(rng, 5, 4, 3)
    T = _kernels.transport_chain(G)
    for e in range(5):
        P = np.eye(3, dtype=complex)
        for j in range(4):
            P = expm_skew(G[e, j]) @ P
        assert np.linalg.norm(T[e] - P) <= 1e-12


@pytest.mark.parametrize("s", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
def test_zero_generators_chain_to_the_exact_identity(n, s):
    # the -0 rows are what G holds outside its live range
    for zero in (0.0, -0.0):
        G = np.full((5, s, n, n), complex(zero, zero))
        T = _kernels.transport_chain(G)
        assert T.tobytes() == np.broadcast_to(np.eye(n, dtype=complex), T.shape).tobytes()
        assert matcore.unitary_defect(T) == 0.0


@pytest.mark.parametrize("where", ["whole", "upper", "lower", "diagonal", "inf", "one_substep"])
@pytest.mark.parametrize("n", range(1, 9))
def test_non_finite_edge_chains_to_nan(rng, n, where):
    # eigh reads the lower triangle only, and at rank >= 3 a NaN matrix may
    # raise LinAlgError; cexp(NaN + 0j) keeps a zero imaginary part.  A bad
    # edge is all NaN, and every other edge keeps the bits of a clean chain
    if n == 1 and where in ("upper", "lower"):
        return
    G = random_skew_batch(rng, 6, 2, n)
    clean = _kernels.transport_chain(G)
    bad = G.copy()
    for e in (1, 4):
        entry = {"whole": (slice(None), slice(None), slice(None)), "upper": (0, 0, n - 1),
                 "lower": (1, n - 1, 0), "diagonal": (0, 0, 0), "inf": (1, 0, 0),
                 "one_substep": (1, slice(None), slice(None))}[where]
        bad[e][entry] = complex(np.inf, 0.0) if where == "inf" else np.nan
    T = _kernels.transport_chain(bad)
    assert T.shape == clean.shape
    assert np.isnan(T[[1, 4]]).all()
    keep = [0, 2, 3, 5]
    assert T[keep].tobytes() == clean[keep].tobytes()
    assert np.isnan(matcore.unitary_defect(T))


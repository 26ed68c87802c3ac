import os
from pathlib import Path

import numpy as np
import pytest

import maslovcw
from maslovcw.loops import FrameLoop


@pytest.fixture
def rng():
    return np.random.default_rng(20240717)


@pytest.fixture
def wrap_rejected_loop():
    """exp(i H(t)) for a seeded one-harmonic Hermitian H(t), rank 2, 16 samples.

    Every step singular value clears the alignment guard, but the wrap does not.
    """
    rng = np.random.default_rng(14)
    N = 16
    C = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    X = C * np.exp(2j * np.pi * np.arange(N) / N)[:, None, None]
    lam, V = np.linalg.eigh(0.3 * (X + X.conj().transpose(0, 2, 1)))
    return FrameLoop(2, np.einsum("tij,tj,tkj->tik", V, np.exp(1j * lam), V.conj()))


@pytest.fixture
def package_env():
    """Environment for a ``python -m maslovcw.cli`` subprocess that imports this package."""
    parent = str(Path(maslovcw.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=parent + (os.pathsep + path if path else ""))

import os
from pathlib import Path

import numpy as np
import pytest

import maslovcw


@pytest.fixture
def rng():
    return np.random.default_rng(20240717)


@pytest.fixture
def package_env():
    """Environment for a ``python -m maslovcw.cli`` subprocess that imports this package."""
    parent = str(Path(maslovcw.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=parent + (os.pathsep + path if path else ""))

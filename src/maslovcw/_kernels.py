"""Hot numeric kernel: edge-transport chains from skew-Hermitian generators.

``transport_chain`` takes a generator stack ``gens`` of shape (E, s, n, n)
holding the integrated connection form per edge and substep (already
contracted with the step displacement) and returns the unitary transports
``T_e = prod_j exp(gens[e, j])``, Newton-polished back onto the unitary
group.  Every exponential comes from one batched ``eigh``.
"""

from __future__ import annotations

import numpy as np

from . import matcore


def transport_chain(gens: np.ndarray) -> np.ndarray:
    """Batched transports: eigh-exponentials multiplied over substeps."""
    E, s, n, _ = gens.shape
    if n == 1:
        # abelian: the ordered product collapses to exp of the sum
        return np.exp(gens.sum(axis=1))
    lam, V = np.linalg.eigh(-1j * gens.reshape(E * s, n, n))
    steps = np.einsum("mij,mj,mkj->mik", V, np.exp(1j * lam), V.conj()).reshape(E, s, n, n)
    T = steps[:, 0]
    for j in range(1, s):
        T = steps[:, j] @ T
    return matcore.unitarize_batch(T, steps=2)

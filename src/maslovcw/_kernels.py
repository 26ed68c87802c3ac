"""Hot numeric kernel: edge-transport chains from skew-Hermitian generators.

``transport_chain`` takes a generator stack ``gens`` of shape (E, s, n, n)
holding the integrated connection form per edge and substep (already
contracted with the step displacement) and returns the unitary transports
``T_e = prod_j exp(gens[e, j])``, Newton-polished back onto the unitary
group.  Every exponential comes from one batched ``eigh``.  An edge with a
NaN or inf generator gets an all-NaN transport, which neither ``eigh``
(it reads one triangle, and may not converge) nor ``exp`` would give.
"""

from __future__ import annotations

import numpy as np

from . import matcore


def transport_chain(gens: np.ndarray) -> np.ndarray:
    """Batched transports: eigh-exponentials multiplied over substeps."""
    E, s, n, _ = gens.shape
    bad = ~np.isfinite(gens).all(axis=(1, 2, 3))
    if bad.any():  # chain zeros there, so that every other edge keeps its bits
        gens = np.where(bad[:, None, None, None], 0j, gens)
    if n == 1:
        # abelian: the ordered product collapses to exp of the sum
        T = np.exp(gens.sum(axis=1))
    else:
        lam, V = np.linalg.eigh(-1j * gens.reshape(E * s, n, n))
        steps = np.einsum("mij,mj,mkj->mik", V, np.exp(1j * lam), V.conj()).reshape(E, s, n, n)
        T = steps[:, 0]
        for j in range(1, s):
            T = steps[:, j] @ T
        T = matcore.unitarize_batch(T, steps=2)
    T[bad] = np.nan
    return T

"""Cross-subspace attention for the subspace fusion network.

:func:`cross_subspace_attention` implements the paper's Eqs. 10-11: it
mixes the other subspaces' vectors into a context vector, weighted by
dot-product similarity. The Eq. 9 attention pooling is batched inside
:meth:`repro.core.subspace_model.SubspaceEmbeddingNetwork.forward_batch`.
"""

from __future__ import annotations

import numpy as np

from repro.nn.functional import softmax
from repro.nn.tensor import Tensor


def cross_subspace_attention(vectors: Tensor) -> Tensor:
    """Compute context vectors c_tilde_k (paper Eqs. 10-11).

    For each subspace ``k``, the other subspaces' vectors are combined with
    weights ``a_j = softmax_j(c_k . c_j)`` (j != k), giving a context vector
    that carries cross-subspace information.

    Parameters
    ----------
    vectors:
        A ``(..., K, d)`` tensor (any number of leading batch axes).

    Returns
    -------
    The ``(..., K, d)`` context vectors. With K = 1 there is no "other"
    subspace; the context is a zero vector.
    """
    *batch, k_total, dim = vectors.shape
    if k_total == 1:
        return Tensor(np.zeros(vectors.shape))
    # others[k] lists every j != k in order, so each softmax runs over
    # exactly the K - 1 other subspaces.
    others = np.array([[j for j in range(k_total) if j != k]
                       for k in range(k_total)])
    stacked = vectors[..., others, :]                       # (..., K, K-1, d)
    scores = stacked @ vectors.reshape(*batch, k_total, dim, 1)
    weights = softmax(scores.reshape(*batch, k_total, k_total - 1), axis=-1)
    contexts = weights.reshape(*batch, k_total, 1, k_total - 1) @ stacked
    return contexts.reshape(*batch, k_total, dim)


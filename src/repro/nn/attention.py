"""Attention building blocks used by the subspace fusion network.

Two mechanisms from the paper:

* :class:`GlobalAttentionPooling` — Eq. 9: pools a sequence of hidden
  vectors into a single subspace vector via a learned context matrix.
* :func:`cross_subspace_attention` — Eqs. 10-11: mixes the other subspaces'
  vectors into a context vector, weighted by dot-product similarity.
"""

from __future__ import annotations

import numpy as np

from repro.nn.functional import softmax
from repro.nn.layers import Linear, Module
from repro.nn.tensor import Tensor, concat, parameter, stack
from repro.nn import init as initializers
from repro.utils.rng import as_generator


class GlobalAttentionPooling(Module):
    """Pool ``(n, d)`` sentence vectors to a single ``(d_out,)`` vector.

    Implements the paper's Eq. 9, ``c_hat = m^k tanh(M h + b)``: hidden
    vectors are passed through a shared affine map ``M``/``b`` and a tanh,
    scored against a learned subspace query ``m^k`` to get attention
    weights, and averaged with those weights.
    """

    def __init__(self, in_dim: int, out_dim: int,
                 rng: np.random.Generator | int | None = None) -> None:
        generator = as_generator(rng)
        self.proj = Linear(in_dim, out_dim, rng=generator)
        self.query = parameter(initializers.normal((out_dim,), std=0.1, rng=generator),
                               name="attention_query")

    def forward(self, hidden: Tensor) -> Tensor:
        """*hidden* is ``(n, d_in)``; returns ``(d_out,)``."""
        transformed = self.proj(hidden).tanh()  # (n, out_dim)
        scores = transformed @ self.query  # (n,)
        weights = softmax(scores, axis=-1)  # (n,)
        return weights @ transformed  # (out_dim,)


def cross_subspace_attention(vectors: "Tensor | list[Tensor]"
                             ) -> "Tensor | list[Tensor]":
    """Compute context vectors c_tilde_k (paper Eqs. 10-11).

    For each subspace ``k``, the other subspaces' vectors are combined with
    weights ``a_j = softmax_j(c_k . c_j)`` (j != k), giving a context vector
    that carries cross-subspace information.

    Parameters
    ----------
    vectors:
        A ``(..., K, d)`` tensor (any number of leading batch axes), or a
        list of K ``(d,)`` tensors.

    Returns
    -------
    Context vectors in the input's form: a ``(..., K, d)`` tensor, or a
    list of K ``(d,)`` tensors. With K = 1 there is no "other" subspace;
    the context is a zero vector.
    """
    if isinstance(vectors, list):
        if not vectors:
            raise ValueError(
                "cross_subspace_attention requires at least one subspace vector")
        contexts = cross_subspace_attention(stack(vectors, axis=0))
        return [contexts[k] for k in range(len(vectors))]
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


def fuse_with_context(vectors: list[Tensor]) -> list[Tensor]:
    """Concatenate each subspace vector with its attention context (Eq. 12).

    Returns one ``(2d,)`` tensor per subspace: ``c_k = [c_hat_k ; c_tilde_k]``.
    """
    contexts = cross_subspace_attention(vectors)
    return [concat([own, ctx], axis=0) for own, ctx in zip(vectors, contexts)]

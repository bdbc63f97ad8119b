"""The subspace fusion embedding network (Sec. III-B, Eqs. 5-12).

Pipeline for each paper:

1. sentence vectors ``H`` from the frozen encoder, with per-sentence
   function labels ``l``;
2. subspace masking (Eq. 5-6): ``x_i^k = h_i * I(l_i = k)``;
3. a shared multi-layer perceptron with tanh activations (Eqs. 7-8);
4. global-attention pooling per subspace with a per-subspace query vector
   ``m^k`` and shared projection ``M, b`` (Eq. 9) giving ``c_hat_k``;
5. cross-subspace attention context ``c_tilde_k`` (Eqs. 10-11);
6. concatenated output ``c_k = [c_hat_k ; c_tilde_k]`` (Eq. 12).

:meth:`SubspaceEmbeddingNetwork.forward_batch` runs this pipeline over
many papers at once; the one-paper :meth:`~SubspaceEmbeddingNetwork.forward`
is a batch of one.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nn import (
    MLP,
    Linear,
    Module,
    Tensor,
    concat,
    cross_subspace_attention,
    no_grad,
    softmax,
    stack,
)
from repro.nn import init as initializers
from repro.nn.tensor import parameter
from repro.utils.rng import as_generator


class SubspaceEmbeddingNetwork(Module):
    """Maps (sentence matrix, labels) to K subspace embedding tensors.

    Parameters
    ----------
    in_dim:
        Sentence-vector dimensionality of the frozen encoder.
    hidden_dims:
        Widths of the shared MLP (Eqs. 7-8).
    out_dim:
        Subspace vector width before context concatenation; the final
        embeddings have ``2 * out_dim`` entries (Eq. 12).
    num_subspaces:
        K (3 in the paper: background / method / result).
    """

    def __init__(self, in_dim: int, hidden_dims: Sequence[int] = (64,),
                 out_dim: int = 32, num_subspaces: int = 3,
                 context_weight: float = 0.5,
                 rng: np.random.Generator | int | None = 0) -> None:
        if num_subspaces < 1:
            raise ValueError(f"num_subspaces must be >= 1, got {num_subspaces}")
        if context_weight < 0:
            raise ValueError(f"context_weight must be >= 0, got {context_weight}")
        generator = as_generator(rng)
        self.num_subspaces = num_subspaces
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.context_weight = context_weight
        self.mlp = MLP([in_dim, *hidden_dims], activation="tanh", rng=generator)
        self.proj = Linear(hidden_dims[-1], out_dim, rng=generator)  # M, b of Eq. 9
        # Residual skip from the raw subspace centroid: preserves the
        # pretrained encoder geometry at initialisation so fine-tuning
        # refines rather than replaces it (the twin network's role in
        # Sec. III-B is explicitly *fine-tuning*).
        self.skip = Linear(in_dim, out_dim, bias=False, rng=generator)
        self.queries = [
            parameter(initializers.normal((out_dim,), std=0.1, rng=generator),
                      name=f"m_{k}")
            for k in range(num_subspaces)
        ]

    @property
    def embedding_dim(self) -> int:
        """Width of each final subspace embedding, ``2 * out_dim``."""
        return 2 * self.out_dim

    def _validated(self, sentence_vectors: np.ndarray,
                   labels: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        sentence_vectors = np.asarray(sentence_vectors, dtype=np.float64)
        labels = np.asarray(labels, dtype=int)
        if sentence_vectors.ndim != 2:
            raise ValueError(
                f"expected (n_sentences, dim) matrix, got shape {sentence_vectors.shape}"
            )
        if sentence_vectors.shape[0] != labels.shape[0]:
            raise ValueError(
                f"{sentence_vectors.shape[0]} sentences but {labels.shape[0]} labels"
            )
        return sentence_vectors, labels

    def forward_batch(self, papers: Sequence[tuple[np.ndarray, Sequence[int]]]
                      ) -> Tensor:
        """Embed many papers: ``(P, K, 2 * out_dim)`` for P (sentence
        matrix, labels) pairs, in input order.

        A paper with no sentences embeds as zeros in every subspace, and
        so does a subspace none of its sentences belongs to. Papers are
        grouped by sentence count, so every attention softmax and pooling
        reduction runs over the paper's own n sentences.
        """
        papers = [self._validated(*paper) for paper in papers]
        k_total, out_dim = self.num_subspaces, self.out_dim
        counts = np.array([labels.shape[0] for _, labels in papers], dtype=int)
        order = np.argsort(counts, kind="stable")
        order = order[counts[order] > 0]
        if order.size == 0:
            return Tensor(np.zeros((len(papers), k_total, self.embedding_dim)))

        # Every sentence belongs to at most one subspace, so the masked
        # rows of Eqs. 5-6 are the sentence rows: the shared MLP and
        # projection run once over all of them (Eqs. 7-8, tanh(M h + b)).
        sentences = np.concatenate([papers[i][0] for i in order])
        transformed = self.proj(self.mlp(Tensor(sentences))).tanh()
        queries = stack(self.queries)                        # (K, out_dim)
        subspaces = np.arange(k_total)[:, None]
        attended: list[Tensor] = []
        centroids: list[np.ndarray] = []
        present: list[np.ndarray] = []
        start = 0
        for n in np.unique(counts[order]):
            group = order[counts[order] == n]
            stop = start + group.size * n
            segment = transformed[start:stop].reshape(group.size, n, out_dim)
            start = stop
            masks = (np.stack([papers[i][1] for i in group])[:, None, :]
                     == subspaces).astype(np.float64)        # (G, K, n)
            # Eq. 9, masked: only subspace k's sentences compete for m^k.
            scores = queries @ segment.transpose()           # (G, K, n)
            weights = softmax(
                scores + Tensor(np.where(masks > 0, 0.0, -1e9)), axis=-1)
            attended.append(weights @ segment)               # (G, K, out_dim)
            sizes = masks.sum(axis=-1, keepdims=True)
            centroids.append((masks / np.maximum(sizes, 1.0))
                             @ np.stack([papers[i][0] for i in group]))
            present.append((sizes > 0).astype(np.float64))
        # c_hat_k plus the residual skip from the subspace centroid;
        # empty subspaces are zeroed.
        residual = self.skip(Tensor(np.concatenate(centroids)))
        pooled = (concat(attended, axis=0) + residual) \
            * Tensor(np.concatenate(present))
        # Eqs. 10-12: cross-subspace attention context, scaled by
        # context_weight so the own-subspace component dominates distances
        # (context_weight=1.0 recovers the plain concatenation).
        contexts = cross_subspace_attention(pooled)
        fused = concat([pooled, contexts * self.context_weight], axis=-1)
        # Back to input order; papers without sentences read the zero row.
        rows = np.full(len(papers), order.size)
        rows[order] = np.arange(order.size)
        padded = concat([fused, Tensor(np.zeros((1, k_total,
                                                 self.embedding_dim)))])
        return padded[rows]

    def forward(self, sentence_vectors: np.ndarray,
                labels: Sequence[int]) -> list[Tensor]:
        """Embed one paper; returns K tensors of shape ``(2 * out_dim,)``."""
        batch = self.forward_batch([(sentence_vectors, labels)])
        return [batch[0, k] for k in range(self.num_subspaces)]

    def embed_batch(self, papers: Sequence[tuple[np.ndarray, Sequence[int]]]
                    ) -> np.ndarray:
        """Inference-time :meth:`forward_batch`: ``(P, K, 2 * out_dim)``
        ndarray, computed without recording the autograd graph."""
        with no_grad():
            return self.forward_batch(papers).data

    def embed(self, sentence_vectors: np.ndarray, labels: Sequence[int]) -> np.ndarray:
        """Inference-time embedding: ``(K, 2 * out_dim)`` ndarray."""
        return self.embed_batch([(sentence_vectors, labels)])[0]

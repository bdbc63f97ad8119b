"""Batched subspace network vs a per-paper reference implementation.

``reference_forward`` is the network's original one-paper forward (Eqs.
5-12 built one subspace at a time, with a per-vector cross-subspace
attention loop). The batched ``forward_batch`` must agree with it on
embeddings and on every parameter gradient of a scalar loss.
"""

import numpy as np
import pytest

from repro.core.subspace_model import SubspaceEmbeddingNetwork
from repro.nn import Tensor, concat, softmax, stack

TOL = 1e-12


def _reference_context(vectors):
    contexts = []
    for k, anchor in enumerate(vectors):
        others = [vectors[j] for j in range(len(vectors)) if j != k]
        if not others:
            contexts.append(Tensor(np.zeros_like(anchor.data)))
            continue
        stacked = stack(others, axis=0)
        weights = softmax(stacked @ anchor, axis=-1)
        contexts.append(weights @ stacked)
    return contexts


def reference_forward(net, sentence_vectors, labels):
    """One paper, one subspace at a time: K tensors of ``(2 * out_dim,)``."""
    sentence_vectors = np.asarray(sentence_vectors, dtype=np.float64)
    labels = np.asarray(labels, dtype=int)
    if sentence_vectors.shape[0] == 0:
        zero = Tensor(np.zeros(net.embedding_dim))
        return [zero for _ in range(net.num_subspaces)]
    n = sentence_vectors.shape[0]
    masks = [(labels == k).astype(np.float64) for k in range(net.num_subspaces)]
    masked_rows = np.concatenate([sentence_vectors * m[:, None] for m in masks])
    transformed = net.proj(net.mlp(Tensor(masked_rows))).tanh()
    pooled = []
    for k in range(net.num_subspaces):
        segment = transformed[k * n:(k + 1) * n]
        scores = segment @ net.queries[k]
        if masks[k].any():
            bias = np.where(masks[k] > 0, 0.0, -1e9)
            weights = softmax(scores + Tensor(bias), axis=-1)
            attended = weights @ segment
            centroid = masks[k] / masks[k].sum()
            residual = net.skip(Tensor(centroid) @ Tensor(sentence_vectors))
            pooled.append(attended + residual)
        else:
            pooled.append((segment * 0.0).sum(axis=0))
    contexts = _reference_context(pooled)
    return [concat([own, ctx * net.context_weight], axis=0)
            for own, ctx in zip(pooled, contexts)]


def _papers(k_total, in_dim=12, seed=0):
    """Mixed sentence counts, a zero-sentence paper, a paper missing a
    subspace label, and a duplicate of the first paper."""
    rng = np.random.default_rng(seed)
    papers = []
    for n in (3, 5, 3, 1, 0, 7, 5, 4):
        labels = rng.integers(0, k_total, size=n)
        papers.append((rng.normal(size=(n, in_dim)), labels))
    if k_total > 1:
        # Sentences only in subspace 0: every other subspace is empty.
        papers.append((rng.normal(size=(4, in_dim)), np.zeros(4, dtype=int)))
    papers.append(papers[0])
    return papers


def _network(k_total, in_dim=12):
    return SubspaceEmbeddingNetwork(in_dim=in_dim, hidden_dims=(16,), out_dim=6,
                                    num_subspaces=k_total, rng=3)


def _loss_weights(shape, seed=9):
    return Tensor(np.random.default_rng(seed).normal(size=shape))


def _gradients(net, loss):
    net.zero_grad()
    loss.backward()
    return {name: np.array(p.grad) if p.grad is not None else None
            for name, p in net.named_parameters()}


@pytest.mark.parametrize("k_total", [1, 3, 4])
class TestBatchedMatchesReference:
    def test_embeddings(self, k_total):
        net = _network(k_total)
        papers = _papers(k_total)
        batched = net.forward_batch(papers).data
        assert batched.shape == (len(papers), k_total, net.embedding_dim)
        for i, (H, labels) in enumerate(papers):
            expected = np.stack([t.data for t in reference_forward(net, H, labels)])
            np.testing.assert_allclose(batched[i], expected, rtol=0, atol=TOL)

    def test_parameter_gradients(self, k_total):
        net = _network(k_total)
        papers = _papers(k_total)
        weights = _loss_weights((len(papers), k_total, net.embedding_dim))
        batched = _gradients(net, (net.forward_batch(papers) * weights).sum())

        terms = []
        for i, (H, labels) in enumerate(papers):
            out = stack(reference_forward(net, H, labels))
            terms.append((out * Tensor(weights.data[i])).sum())
        reference = _gradients(net, stack(terms).sum())

        assert batched.keys() == reference.keys()
        for name, grad in reference.items():
            assert batched[name] is not None, name
            np.testing.assert_allclose(batched[name], grad, rtol=0, atol=TOL,
                                       err_msg=name)


class TestBatchShape:
    def test_empty_batch(self):
        net = _network(3)
        assert net.forward_batch([]).shape == (0, 3, net.embedding_dim)
        assert net.embed_batch([]).shape == (0, 3, net.embedding_dim)

    def test_zero_sentence_and_empty_subspace_rows_are_zero(self):
        net = _network(3)
        H = np.random.default_rng(1).normal(size=(4, 12))
        out = net.embed_batch([(np.zeros((0, 12)), []), (H, [0, 0, 2, 2])])
        np.testing.assert_array_equal(out[0], 0.0)
        np.testing.assert_array_equal(out[1, 1, :net.out_dim], 0.0)

    def test_duplicate_papers_embed_identically(self):
        net = _network(3)
        papers = _papers(3)
        out = net.embed_batch(papers)
        np.testing.assert_array_equal(out[0], out[-1])

    def test_one_paper_forward_is_batch_of_one(self):
        net = _network(3)
        H, labels = _papers(3)[1]
        batched = net.embed_batch(_papers(3))[1]
        np.testing.assert_allclose(net.embed(H, labels), batched, rtol=0, atol=TOL)
        np.testing.assert_array_equal(
            np.stack([t.data for t in net(H, labels)]), net.embed(H, labels))

    def test_shape_validation(self):
        net = _network(3)
        with pytest.raises(ValueError):
            net.forward_batch([(np.zeros((3, 12)), [0, 1])])
        with pytest.raises(ValueError):
            net.forward_batch([(np.zeros(12), [0])])

"""Detailed NPRecModel mechanics: gates, content block, induction, aggregation."""

import numpy as np
import pytest

from repro.core.nprec import NPRecModel
from repro.data import load_acm
from repro.graph import build_academic_network
from repro.nn import softmax


@pytest.fixture(scope="module")
def graph_and_text():
    corpus = load_acm(scale=0.2, seed=50)
    train, new = corpus.split_by_year(2014)
    everyone = train + new
    graph = build_academic_network(corpus, papers=everyone,
                                   citation_whitelist={p.id for p in train})
    rng = np.random.default_rng(0)
    text = {p.id: rng.normal(size=10) for p in everyone}
    content = {p.id: np.abs(rng.normal(size=20)) for p in everyone}
    return graph, text, content, train, new


class TestBlocksAndGates:
    def test_vector_width_with_content(self, graph_and_text):
        graph, text, content, train, _ = graph_and_text
        model = NPRecModel(graph, text, dim=8, neighbor_k=4, depth=1,
                           content_vectors=content, seed=0)
        vec = model.interest_vectors([train[0].id])
        # shared text + view text + graph + trained-content (4 * dim)
        # plus the raw lexical content block (20)
        assert vec.shape == (1, 4 * 8 + 20)

    def test_gate_scaling_applied(self, graph_and_text):
        graph, text, content, train, _ = graph_and_text
        small = NPRecModel(graph, text, dim=8, neighbor_k=4, depth=1,
                           block_gates=(0.1, 0.1, 0.1, 0.0), seed=0)
        large = NPRecModel(graph, text, dim=8, neighbor_k=4, depth=1,
                           block_gates=(1.0, 1.0, 1.0, 0.0), seed=0)
        v_small = small.interest_vectors([train[0].id]).data
        v_large = large.interest_vectors([train[0].id]).data
        np.testing.assert_allclose(v_small * 10.0, v_large, rtol=1e-6)

    def test_content_rows_l2_normalised(self, graph_and_text):
        graph, text, content, train, _ = graph_and_text
        model = NPRecModel(graph, text, dim=8, neighbor_k=4, depth=1,
                           content_vectors=content,
                           block_gates=(0.0, 0.0, 0.0, 1.0, 0.0), seed=0)
        matrix = model.content_matrix
        idx = graph.index_of("paper", train[0].id)
        assert np.linalg.norm(matrix[idx]) == pytest.approx(1.0)

    def test_influence_citations_flag_changes_views(self, graph_and_text):
        graph, text, content, train, _ = graph_and_text
        cited = max(train, key=lambda p: len(graph.citing_papers(
            graph.index_of("paper", p.id))))
        meta_only = NPRecModel(graph, text, dim=8, neighbor_k=4, depth=1,
                               influence_citations=False, seed=0)
        with_cites = NPRecModel(graph, text, dim=8, neighbor_k=4, depth=1,
                                influence_citations=True, seed=0)
        a = meta_only.influence_vectors([cited.id]).data
        b = with_cites.influence_vectors([cited.id]).data
        assert not np.allclose(a, b)

    def test_induct_new_papers_counts(self, graph_and_text):
        graph, text, content, train, new = graph_and_text
        model = NPRecModel(graph, text, dim=8, neighbor_k=4, depth=1, seed=0)
        imputed = model.induct_new_papers([p.id for p in new[:10]])
        assert imputed == sum(
            1 for p in new[:10]
            if graph.two_way_neighbors(graph.index_of("paper", p.id))
        )

    def test_deterministic_given_seed(self, graph_and_text):
        graph, text, content, train, _ = graph_and_text
        ids = [p.id for p in train[:4]]
        a = NPRecModel(graph, text, dim=8, neighbor_k=4, depth=1, seed=7)
        b = NPRecModel(graph, text, dim=8, neighbor_k=4, depth=1, seed=7)
        np.testing.assert_allclose(a.interest_vectors(ids).data,
                                   b.interest_vectors(ids).data)


class TestStackedLayerCache:
    def test_repeat_batch_returns_memoized_stack(self, graph_and_text):
        graph, text, _, train, _ = graph_and_text
        model = NPRecModel(graph, text, dim=8, neighbor_k=4, depth=1, seed=0)
        indices = np.asarray([model.graph.index_of("paper", train[0].id),
                              model.graph.index_of("paper", train[1].id)])
        first = model._stacked_layers(indices, "two_way")
        second = model._stacked_layers(indices, "two_way")
        assert all(a is b for a, b in zip(first, second))
        # a different view is a different cache entry
        other = model._stacked_layers(indices, "influence")
        assert other[0] is not first[0]

    def test_cache_is_bounded(self, graph_and_text):
        graph, text, _, train, _ = graph_and_text
        model = NPRecModel(graph, text, dim=8, neighbor_k=4, depth=1, seed=0)
        model.LAYER_CACHE_SIZE = 4
        paper_ids = [model.graph.index_of("paper", p.id) for p in train[:10]]
        for i in paper_ids:
            model._stacked_layers(np.asarray([i]), "two_way")
        assert len(model._layer_cache) == 4

    def test_aggregation_unchanged_by_caching(self, graph_and_text):
        graph, text, _, train, _ = graph_and_text
        ids = [p.id for p in train[:3]]
        warm = NPRecModel(graph, text, dim=8, neighbor_k=4, depth=1, seed=0)
        baseline = warm.interest_vectors(ids).data.copy()
        again = warm.interest_vectors(ids).data
        assert np.array_equal(baseline, again)


def _per_fold_aggregate(model, paper_indices, view):
    """The per-fold aggregation NPRecModel used before each hop's base
    vectors and attention were computed once: every fold recomputes the
    centre and neighbour base vectors and the attention it needs."""
    indices = np.asarray(paper_indices, dtype=int)
    batch, k, d = indices.shape[0], model.neighbor_k, model.dim
    layers = model._stacked_layers(indices, view)
    weight_stack = (model.interest_layers if view == "interest"
                    else model.influence_layers)
    base_vectors = model._base_vectors
    values = [base_vectors(layer) for layer in layers]
    for i in range(model.depth):
        folded = []
        for h in range(model.depth - i):
            centre_count = batch * k**h
            centre_base = base_vectors(layers[h])
            neigh_base = base_vectors(layers[h + 1])
            scores = (centre_base.reshape(centre_count, 1, d)
                      * neigh_base.reshape(centre_count, k, d)).sum(axis=2)
            attention = softmax(scores, axis=-1)
            neighbourhood = (attention.reshape(centre_count, k, 1)
                             * values[h + 1].reshape(centre_count, k, d)
                             ).sum(axis=1)
            folded.append(weight_stack[i](values[h] + neighbourhood).tanh())
        values = folded
    return values[0]


class TestAggregationEquivalence:
    """Aggregating each hop once is the per-fold aggregation, reordered."""

    @staticmethod
    def _forward_backward(model, aggregate, indices, view):
        model.zero_grad()
        out = aggregate(model, indices, view)
        weights = np.random.default_rng(1).normal(size=out.shape)
        (out * weights).sum().backward()
        return out.data, {name: p.grad for name, p in model.named_parameters()}

    @pytest.mark.parametrize("view", ["interest", "influence"])
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_matches_per_fold_reference(self, graph_and_text, view, depth,
                                        monkeypatch):
        graph, text, _, train, _ = graph_and_text
        model = NPRecModel(graph, text, dim=8, neighbor_k=3, depth=depth,
                           influence_citations=True, seed=depth)
        indices = [graph.index_of("paper", p.id) for p in train[:6]]

        reference, reference_grads = self._forward_backward(
            model, _per_fold_aggregate, indices, view)

        calls = []
        original = model._base_vectors
        monkeypatch.setattr(model, "_base_vectors",
                            lambda layer: calls.append(1) or original(layer))
        out, grads = self._forward_backward(
            model, NPRecModel._aggregate, indices, view)

        assert len(calls) == depth + 1
        assert np.array_equal(out, reference)
        assert grads.keys() == reference_grads.keys()
        touched = 0
        for name, grad in grads.items():
            expected = reference_grads[name]
            assert (grad is None) == (expected is None), name
            if grad is not None:
                touched += 1
                np.testing.assert_allclose(grad, expected, rtol=1e-10,
                                           err_msg=name)
        # embeddings, text_proj and every layer of the view's stack
        assert touched == 2 + 2 * depth

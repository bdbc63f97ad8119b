"""Internal mechanics of the KGCN baseline network."""

import numpy as np
import pytest

from repro.baselines.graph_rec import _KGCNNet
from repro.data import load_acm
from repro.graph import build_academic_network


@pytest.fixture(scope="module")
def setup():
    corpus = load_acm(scale=0.2, seed=44)
    graph = build_academic_network(corpus)
    rng = np.random.default_rng(0)
    content = rng.normal(size=(graph.num_entities, 12))
    net = _KGCNNet(graph, n_users=5, content=content, dim=8, neighbor_k=4,
                   rng=0)
    paper_idx = np.array(graph.entities_of_type("paper")[:6])
    return net, paper_idx


class TestKGCNNet:
    def test_item_vector_shape(self, setup):
        net, paper_idx = setup
        vectors = net.item_vectors(paper_idx)
        assert vectors.shape == (6, 8)
        assert np.isfinite(vectors.data).all()

    def test_item_vectors_bounded_by_tanh(self, setup):
        net, paper_idx = setup
        vectors = net.item_vectors(paper_idx)
        assert np.all(np.abs(vectors.data) <= 1.0)

    def test_scores_shape(self, setup):
        net, paper_idx = setup
        logits = net(np.zeros(6, dtype=int), paper_idx)
        assert logits.shape == (6,)

    def test_receptive_fields_cached(self, setup, monkeypatch):
        # Every field is one row of the table drawn at construction (the
        # all-relations view), so vectors depend on no call order.
        net, paper_idx = setup
        assert net._table.shape == (net.graph.num_entities, 4)
        assert all(set(row.tolist()) <= set(net.graph.all_neighbors(i) or [i])
                   for i, row in enumerate(net._table))
        first = net.item_vectors(paper_idx).data
        monkeypatch.setattr("repro.baselines.graph_rec.neighbour_table",
                            lambda *args: pytest.fail("drew a table"))
        np.testing.assert_array_equal(net.item_vectors(paper_idx).data, first)

    def test_different_users_different_scores(self, setup):
        net, paper_idx = setup
        a = net(np.zeros(6, dtype=int), paper_idx).data
        b = net(np.ones(6, dtype=int), paper_idx).data
        assert not np.allclose(a, b)

    def test_gradients_flow(self, setup):
        net, paper_idx = setup
        net.zero_grad()
        loss = net(np.zeros(6, dtype=int), paper_idx).sum()
        loss.backward()
        assert net.users.weight.grad is not None
        assert net.content_proj.weight.grad is not None

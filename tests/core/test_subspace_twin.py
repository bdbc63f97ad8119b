"""Tests for the subspace fusion network, annotation, and twin training."""

import numpy as np
import pytest

from repro.core.annotation import Triplet, annotate_triplets
from repro.core.rules import ExpertRuleSet
from repro.core.subspace_model import SubspaceEmbeddingNetwork
from repro.core.twin import (
    DISTANCE_FUNCTIONS,
    TwinNetworkTrainer,
    pair_distance,
)
from repro.data import load_scopus
from repro.nn import Tensor, no_grad
from repro.text import SentenceEncoder


@pytest.fixture(scope="module")
def small_corpus():
    corpus = load_scopus(scale=0.15, seed=5)
    return corpus.papers[:50]


@pytest.fixture(scope="module")
def fitted_rules(small_corpus):
    encoder = SentenceEncoder(dim=16)
    return ExpertRuleSet(encoder).fit(small_corpus, n_pairs=40, seed=0), encoder


class TestSubspaceNetwork:
    def test_output_shapes(self):
        net = SubspaceEmbeddingNetwork(in_dim=16, hidden_dims=(24,), out_dim=8,
                                       num_subspaces=3, rng=0)
        H = np.random.default_rng(0).normal(size=(5, 16))
        out = net(H, [0, 1, 2, 1, 0])
        assert len(out) == 3
        assert all(t.shape == (16,) for t in out)  # 2 * out_dim
        assert net.embedding_dim == 16

    def test_empty_abstract_zero_embeddings(self):
        net = SubspaceEmbeddingNetwork(in_dim=16, out_dim=8, rng=0)
        out = net(np.zeros((0, 16)), [])
        assert all(np.allclose(t.data, 0.0) for t in out)

    def test_empty_subspace_does_not_crash(self):
        net = SubspaceEmbeddingNetwork(in_dim=16, out_dim=8, rng=0)
        H = np.random.default_rng(0).normal(size=(3, 16))
        out = net(H, [0, 0, 0])  # subspaces 1 and 2 empty
        assert len(out) == 3
        assert all(np.isfinite(t.data).all() for t in out)

    def test_shape_validation(self):
        net = SubspaceEmbeddingNetwork(in_dim=16, out_dim=8, rng=0)
        with pytest.raises(ValueError):
            net(np.zeros((3, 16)), [0, 1])
        with pytest.raises(ValueError):
            net(np.zeros(16), [0])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SubspaceEmbeddingNetwork(in_dim=16, num_subspaces=0)
        with pytest.raises(ValueError):
            SubspaceEmbeddingNetwork(in_dim=16, context_weight=-1.0)

    def test_subspace_sensitivity(self):
        """Changing a method sentence changes the method embedding more."""
        net = SubspaceEmbeddingNetwork(in_dim=16, out_dim=8, rng=0)
        rng = np.random.default_rng(1)
        H = rng.normal(size=(4, 16))
        labels = [0, 1, 1, 2]
        base = net.embed(H, labels)
        H2 = H.copy()
        H2[1] = rng.normal(size=16)  # perturb a method sentence
        changed = net.embed(H2, labels)
        deltas = np.linalg.norm(changed - base, axis=1)
        assert deltas[1] > deltas[0]
        assert deltas[1] > deltas[2]

    def test_embed_matches_forward(self):
        net = SubspaceEmbeddingNetwork(in_dim=16, out_dim=8, rng=0)
        H = np.random.default_rng(2).normal(size=(3, 16))
        labels = [0, 1, 2]
        stacked = net.embed(H, labels)
        tensors = net(H, labels)
        for k in range(3):
            np.testing.assert_allclose(stacked[k], tensors[k].data)


class TestPairDistance:
    def test_neg_dot(self):
        a, b = Tensor([1.0, 0.0]), Tensor([1.0, 0.0])
        assert pair_distance(a, b, "neg_dot").item() == pytest.approx(-1.0)

    def test_euclidean(self):
        a, b = Tensor([0.0, 0.0]), Tensor([3.0, 4.0])
        assert pair_distance(a, b, "euclidean").item() == pytest.approx(5.0)

    def test_cosine(self):
        a, b = Tensor([1.0, 0.0]), Tensor([0.0, 1.0])
        assert pair_distance(a, b, "cosine").item() == pytest.approx(1.0)

    def test_unknown(self):
        with pytest.raises(ValueError):
            pair_distance(Tensor([1.0]), Tensor([1.0]), "manhattan")

    def test_all_registered(self):
        assert set(DISTANCE_FUNCTIONS) == {"neg_dot", "euclidean", "cosine"}


class TestAnnotation:
    def test_triplets_cover_subspaces(self, small_corpus, fitted_rules):
        rules, _ = fitted_rules
        triplets = annotate_triplets(small_corpus, rules, n_triplets=20, seed=0)
        assert {t.subspace for t in triplets} == {0, 1, 2}

    def test_positive_has_larger_score(self, small_corpus, fitted_rules):
        rules, _ = fitted_rules
        by_id = {p.id: p for p in small_corpus}
        triplets = annotate_triplets(small_corpus, rules, n_triplets=10, seed=1)
        for t in triplets[:20]:
            anchor, pos, neg = by_id[t.anchor], by_id[t.positive], by_id[t.negative]
            score_pos = rules.fused_scores(anchor, pos)[t.subspace]
            score_neg = rules.fused_scores(anchor, neg)[t.subspace]
            assert score_pos > score_neg

    def test_min_gap_respected(self, small_corpus, fitted_rules):
        rules, _ = fitted_rules
        triplets = annotate_triplets(small_corpus, rules, n_triplets=10,
                                     min_gap=0.2, seed=0)
        assert all(t.score_gap >= 0.2 for t in triplets)

    def test_probabilistic_mode(self, small_corpus, fitted_rules):
        rules, _ = fitted_rules
        triplets = annotate_triplets(small_corpus, rules, n_triplets=10,
                                     probabilistic=True, seed=0)
        assert triplets

    def test_validation(self, small_corpus, fitted_rules):
        rules, _ = fitted_rules
        with pytest.raises(ValueError):
            annotate_triplets(small_corpus[:2], rules)
        with pytest.raises(ValueError):
            annotate_triplets(small_corpus, rules, n_triplets=0)


class TestTwinTrainer:
    def _encoded(self, papers, encoder):
        out = {}
        for p in papers:
            H = encoder.encode(p.abstract)
            labels = list(p.sentence_labels)[:H.shape[0]]
            out[p.id] = (H[:len(labels)], labels)
        return out

    @staticmethod
    def _violation_rate(trainer, triplets, encoded):
        """Fraction of triplets whose distance ordering is still wrong."""
        with no_grad():
            d_pos, d_neg = trainer._distances(triplets, encoded)
        return float((d_pos.data <= d_neg.data).mean())

    def test_training_reduces_violations(self, small_corpus, fitted_rules):
        rules, encoder = fitted_rules
        triplets = annotate_triplets(small_corpus, rules, n_triplets=25,
                                     min_gap=0.2, seed=0)
        encoded = self._encoded(small_corpus, encoder)
        net = SubspaceEmbeddingNetwork(in_dim=16, hidden_dims=(24,), out_dim=8, rng=0)
        trainer = TwinNetworkTrainer(net, distance="euclidean", epochs=4,
                                     lr=2e-3, seed=0)
        before = self._violation_rate(trainer, triplets, encoded)
        history = trainer.train(triplets, encoded)
        after = self._violation_rate(trainer, triplets, encoded)
        assert after < before
        assert len(history.losses) == 4

    def test_missing_encoded_raises(self, small_corpus, fitted_rules):
        rules, encoder = fitted_rules
        triplets = annotate_triplets(small_corpus, rules, n_triplets=5, seed=0)
        net = SubspaceEmbeddingNetwork(in_dim=16, out_dim=8, rng=0)
        trainer = TwinNetworkTrainer(net, seed=0)
        with pytest.raises(KeyError):
            trainer.train(triplets, {})

    def test_empty_triplets(self):
        net = SubspaceEmbeddingNetwork(in_dim=16, out_dim=8, rng=0)
        trainer = TwinNetworkTrainer(net, seed=0)
        with pytest.raises(ValueError):
            trainer.train([], {})

    def test_config_validation(self):
        net = SubspaceEmbeddingNetwork(in_dim=16, out_dim=8, rng=0)
        with pytest.raises(ValueError):
            TwinNetworkTrainer(net, distance="weird")
        with pytest.raises(ValueError):
            TwinNetworkTrainer(net, margin=-0.5)
        with pytest.raises(ValueError):
            TwinNetworkTrainer(net, epochs=0)

"""Integration tests for the end-to-end SEM pipeline."""

import numpy as np
import pytest

from repro.analysis import spearman_correlation
from repro.core.sem import SEMConfig, SubspaceEmbeddingMethod
from repro.data import load_scopus
from repro.errors import NotFittedError
from repro.resilience import faults


@pytest.fixture(scope="module")
def corpus_cs():
    corpus = load_scopus(scale=0.4, seed=7)
    return corpus.by_field("computer_science")


@pytest.fixture(scope="module")
def fitted_sem(corpus_cs):
    config = SEMConfig(n_triplets=40, epochs=2, seed=0)
    return SubspaceEmbeddingMethod(config).fit(corpus_cs)


class TestFit:
    def test_embeddings_shape(self, fitted_sem, corpus_cs):
        emb = fitted_sem.embed(corpus_cs[0])
        assert emb.shape == (3, fitted_sem.embedding_dim)
        stacked = fitted_sem.embed_many(corpus_cs[:5])
        assert stacked.shape == (5, 3, fitted_sem.embedding_dim)

    def test_embedding_cached_and_deterministic(self, fitted_sem, corpus_cs):
        a = fitted_sem.embed(corpus_cs[0])
        b = fitted_sem.embed(corpus_cs[0])
        np.testing.assert_array_equal(a, b)

    def test_history_recorded(self, fitted_sem):
        assert fitted_sem.history_ is not None
        assert len(fitted_sem.history_.losses) == 2

    def test_rule_weights_sum_to_one(self, fitted_sem):
        assert fitted_sem.rules.weights.sum() == pytest.approx(1.0)

    def test_not_fitted_raises(self):
        sem = SubspaceEmbeddingMethod()
        with pytest.raises(NotFittedError):
            sem.embed_many([])

    def test_refit_matches_fresh_fit(self, corpus_cs):
        """A second fit re-encodes sentences with its own encoder."""
        config = SEMConfig(n_triplets=20, epochs=1, seed=0)
        refit = SubspaceEmbeddingMethod(config).fit(corpus_cs[:12])
        refit.embed_many(corpus_cs[:5])
        refit.fit(corpus_cs)
        fresh = SubspaceEmbeddingMethod(config).fit(corpus_cs)
        assert np.array_equal(refit.embed_many(corpus_cs),
                              fresh.embed_many(corpus_cs))

    def test_fault_site_fires_once_per_computed_paper(self, fitted_sem,
                                                      corpus_cs, monkeypatch):
        sites = []
        monkeypatch.setattr(faults, "maybe_fail", sites.append)
        fitted_sem._embedding_cache.clear()
        papers = corpus_cs[:4]
        batch = fitted_sem.embed_many(papers + papers[:2])
        assert sites == ["sem.embed"] * 4
        assert np.array_equal(batch[4:], batch[:2])
        fitted_sem.embed_many(papers)
        fitted_sem.embed(papers[0])
        assert len(sites) == 4

    def test_too_few_papers(self, corpus_cs):
        with pytest.raises(ValueError):
            SubspaceEmbeddingMethod().fit(corpus_cs[:2])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SEMConfig(num_subspaces=0)
        with pytest.raises(ValueError):
            SEMConfig(n_triplets=0)


class TestAnalysis:
    def test_outlier_scores_unit_interval(self, fitted_sem, corpus_cs):
        scores = fitted_sem.outlier_scores(corpus_cs, 1)
        assert scores.shape == (len(corpus_cs),)
        assert scores.min() >= 0.0
        assert scores.max() <= 1.0

    def test_method_subspace_correlates_with_citations(self, fitted_sem, corpus_cs):
        """The CS Tab. I diagonal: method difference tracks citations."""
        cites = [p.citation_count for p in corpus_cs]
        rho = spearman_correlation(fitted_sem.outlier_scores(corpus_cs, 1), cites)
        assert rho > 0.1

    def test_difference_ranking_order(self, fitted_sem, corpus_cs):
        papers = corpus_cs[:30]
        ranking = fitted_sem.difference_ranking(papers, 0)
        assert len(ranking) == 30
        scores = fitted_sem.outlier_scores(papers, 0)
        by_id = {p.id: s for p, s in zip(papers, scores)}
        ranked_scores = [by_id[pid] for pid in ranking]
        assert ranked_scores == sorted(ranked_scores, reverse=True)

    def test_empty_paper_list(self, fitted_sem):
        dim = fitted_sem.embedding_dim
        assert fitted_sem.embed_many([]).shape == (0, 3, dim)
        assert fitted_sem.subspace_matrix([], 1).shape == (0, dim)

    def test_invalid_subspace(self, fitted_sem, corpus_cs):
        with pytest.raises(ValueError):
            fitted_sem.subspace_matrix(corpus_cs[:5], 7)

    def test_fused_embeddings(self, fitted_sem, corpus_cs):
        fused = fitted_sem.fused_embeddings(corpus_cs[:4])
        assert fused.shape == (4, fitted_sem.embedding_dim)
        weighted = fitted_sem.fused_embeddings(corpus_cs[:4], weights=[1.0, 0.0, 0.0])
        np.testing.assert_allclose(
            weighted, fitted_sem.embed_many(corpus_cs[:4])[:, 0, :])
        with pytest.raises(ValueError):
            fitted_sem.fused_embeddings(corpus_cs[:4], weights=[1.0])


class TestLabelerPath:
    def test_predicted_labels_mode(self, corpus_cs):
        config = SEMConfig(n_triplets=20, epochs=1, use_gold_labels=False,
                           labeler_train_size=40, labeler_epochs=3, seed=0)
        sem = SubspaceEmbeddingMethod(config).fit(corpus_cs[:80])
        assert sem.labeler is not None
        emb = sem.embed(corpus_cs[0])
        assert np.isfinite(emb).all()

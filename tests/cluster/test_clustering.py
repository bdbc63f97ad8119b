"""Tests for k-means, GMM+BIC, LOF, and t-SNE."""

import numpy as np
import pytest

from repro.cluster import (
    GaussianMixture,
    KMeans,
    kmeans_plus_plus,
    local_outlier_factor,
    select_components_bic,
    tsne,
)
from repro.errors import NotFittedError


def blobs(n_per=40, centers=((0, 0), (8, 8), (-8, 8)), std=0.7, seed=0):
    rng = np.random.default_rng(seed)
    data, labels = [], []
    for i, centre in enumerate(centers):
        data.append(rng.normal(centre, std, size=(n_per, len(centre))))
        labels.extend([i] * n_per)
    return np.vstack(data), np.array(labels)


def cluster_purity(true_labels, predicted):
    total = 0
    for cluster in np.unique(predicted):
        members = true_labels[predicted == cluster]
        total += np.bincount(members).max()
    return total / len(true_labels)


class TestKMeans:
    def test_recovers_blobs(self):
        data, labels = blobs()
        km = KMeans(3, seed=0).fit(data)
        assert cluster_purity(labels, km.labels_) > 0.95

    def test_predict_consistent_with_fit(self):
        data, _ = blobs()
        km = KMeans(3, seed=0).fit(data)
        np.testing.assert_array_equal(km.predict(data), km.labels_)

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            KMeans(2).predict(np.zeros((3, 2)))

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            KMeans(5).fit(np.zeros((3, 2)))

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            KMeans(2).fit(np.zeros(5))

    def test_plus_plus_spreads_centres(self):
        data, _ = blobs()
        centres = kmeans_plus_plus(data, 3, np.random.default_rng(0))
        d01 = np.linalg.norm(centres[0] - centres[1])
        assert d01 > 3.0

    def test_identical_points(self):
        data = np.ones((10, 2))
        km = KMeans(2, seed=0).fit(data)
        assert km.inertia_ == pytest.approx(0.0)


class TestGMM:
    def test_recovers_blobs(self):
        data, labels = blobs()
        gmm = GaussianMixture(3, seed=0).fit(data)
        assert cluster_purity(labels, gmm.predict(data)) > 0.95

    def test_responsibilities_sum_to_one(self):
        data, _ = blobs()
        gmm = GaussianMixture(3, seed=0).fit(data)
        np.testing.assert_allclose(gmm.predict_proba(data).sum(axis=1), 1.0)

    def test_log_likelihood_improves_with_right_k(self):
        data, _ = blobs()
        ll1 = GaussianMixture(1, seed=0).fit(data).score(data)
        ll3 = GaussianMixture(3, seed=0).fit(data).score(data)
        assert ll3 > ll1

    def test_bic_selects_true_component_count(self):
        data, _ = blobs(n_per=60)
        best = select_components_bic(data, max_components=6, seed=0)
        assert best.n_components == 3

    def test_bic_single_cluster(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(100, 2))
        best = select_components_bic(data, max_components=4, seed=0)
        assert best.n_components <= 2

    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            GaussianMixture(2).predict(np.zeros((3, 2)))

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            GaussianMixture(5).fit(np.zeros((2, 2)))

    def test_weights_normalised(self):
        data, _ = blobs()
        gmm = GaussianMixture(3, seed=0).fit(data)
        assert gmm.weights_.sum() == pytest.approx(1.0)


class TestLOF:
    def test_outlier_scores_higher(self):
        rng = np.random.default_rng(0)
        inliers = rng.normal(0, 1, size=(60, 2))
        outlier = np.array([[12.0, 12.0]])
        scores = local_outlier_factor(np.vstack([inliers, outlier]), k=10)
        assert scores[-1] > scores[:-1].max()
        assert scores[-1] > 2.0

    def test_uniform_cluster_scores_near_one(self):
        rng = np.random.default_rng(1)
        data = rng.uniform(size=(100, 2))
        scores = local_outlier_factor(data, k=10)
        assert 0.9 < np.median(scores) < 1.2

    def test_duplicates_handled(self):
        data = np.zeros((20, 2))
        scores = local_outlier_factor(data, k=5)
        np.testing.assert_allclose(scores, 1.0)

    def test_k_clamped(self):
        data = np.random.default_rng(0).normal(size=(5, 2))
        scores = local_outlier_factor(data, k=100)
        assert scores.shape == (5,)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            local_outlier_factor(np.zeros((1, 2)), k=3)
        with pytest.raises(ValueError):
            local_outlier_factor(np.zeros(5), k=3)


class TestTSNE:
    def test_preserves_cluster_structure(self):
        data, labels = blobs(n_per=25, std=0.5)
        embedding = tsne(data, n_iter=250, seed=0)
        assert embedding.shape == (75, 2)
        # within-cluster distances should be smaller than between-cluster
        within = []
        between = []
        for i in range(0, 75, 5):
            for j in range(i + 1, 75, 7):
                d = np.linalg.norm(embedding[i] - embedding[j])
                (within if labels[i] == labels[j] else between).append(d)
        assert np.mean(within) < np.mean(between)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            tsne(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            tsne(np.zeros(5))
        with pytest.raises(ValueError):
            tsne(np.zeros((10, 2)), perplexity=0)

    def test_deterministic(self):
        data, _ = blobs(n_per=10)
        a = tsne(data, n_iter=50, seed=3)
        b = tsne(data, n_iter=50, seed=3)
        np.testing.assert_array_equal(a, b)

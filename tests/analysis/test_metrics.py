"""Tests for ranking metrics, correlation study pipeline, and regression."""

import numpy as np
import pytest

from repro.analysis import (
    average_precision,
    clustered_outlier_scores,
    dcg_at_k,
    linear_regression,
    mean_metric,
    ndcg_at_k,
    normalize_scores,
    outlier_citation_study,
    precision_at_k,
    rankdata,
    reciprocal_rank,
    sign_test,
    spearman_correlation,
)


class TestRankdata:
    def test_simple(self):
        np.testing.assert_allclose(rankdata([10, 20, 30]), [1, 2, 3])

    def test_ties_average(self):
        np.testing.assert_allclose(rankdata([5, 5, 10]), [1.5, 1.5, 3])

    def test_matches_scipy(self):
        from scipy.stats import rankdata as scipy_rank
        rng = np.random.default_rng(0)
        values = rng.integers(0, 10, size=50).astype(float)
        np.testing.assert_allclose(rankdata(values), scipy_rank(values))


class TestSpearman:
    def test_perfect_positive(self):
        assert spearman_correlation([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)

    def test_perfect_negative(self):
        assert spearman_correlation([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_matches_scipy(self):
        from scipy.stats import spearmanr
        rng = np.random.default_rng(1)
        a = rng.normal(size=80)
        b = a + rng.normal(size=80)
        assert spearman_correlation(a, b) == pytest.approx(spearmanr(a, b).statistic)

    def test_constant_input_zero(self):
        assert spearman_correlation([1, 1, 1], [1, 2, 3]) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            spearman_correlation([1], [1])
        with pytest.raises(ValueError):
            spearman_correlation([1, 2], [1, 2, 3])


class TestSignTest:
    @pytest.mark.parametrize("wins,losses", [(3, 5), (12, 8), (0, 6),
                                             (17, 3), (4, 4), (1, 0)])
    def test_matches_scipy(self, wins, losses):
        from scipy.stats import binomtest
        want = binomtest(wins, wins + losses).pvalue
        assert sign_test(wins, losses) == pytest.approx(want, rel=1e-12)
        assert sign_test(losses, wins) == sign_test(wins, losses)

    def test_no_pairs_is_no_evidence(self):
        assert sign_test(0, 0) == 1.0


class TestRankingMetrics:
    def test_dcg_known_value(self):
        # rel [3, 2] -> 3/log2(2) + 2/log2(3)
        expected = 3.0 + 2.0 / np.log2(3)
        assert dcg_at_k([3, 2], 2) == pytest.approx(expected)

    def test_dcg_validation(self):
        with pytest.raises(ValueError):
            dcg_at_k([1.0], 0)
        assert dcg_at_k([], 3) == 0.0

    def test_ndcg_perfect_ranking(self):
        assert ndcg_at_k(["a", "b", "c"], {"a"}, k=3) == pytest.approx(1.0)

    def test_ndcg_worst_position(self):
        perfect = ndcg_at_k(["a", "x", "y"], {"a"}, k=3)
        worst = ndcg_at_k(["x", "y", "a"], {"a"}, k=3)
        assert worst < perfect

    def test_ndcg_decreases_with_k_when_hits_high(self):
        ranked = ["a"] + [f"x{i}" for i in range(49)]
        assert ndcg_at_k(ranked, {"a"}, 20) == ndcg_at_k(ranked, {"a"}, 50)

    def test_ndcg_requires_relevant(self):
        with pytest.raises(ValueError):
            ndcg_at_k(["a"], set(), 5)

    def test_mrr(self):
        assert reciprocal_rank(["x", "a", "y"], {"a"}) == pytest.approx(0.5)
        assert reciprocal_rank(["x", "y"], {"a"}) == 0.0

    def test_map(self):
        # hits at positions 1 and 3: (1/1 + 2/3) / 2
        assert average_precision(["a", "x", "b"], {"a", "b"}) == pytest.approx((1 + 2 / 3) / 2)
        with pytest.raises(ValueError):
            average_precision(["a"], set())

    def test_precision_at_k(self):
        assert precision_at_k(["a", "x", "b", "y"], {"a", "b"}, 2) == 0.5
        with pytest.raises(ValueError):
            precision_at_k(["a"], {"a"}, 0)

    def test_mean_metric(self):
        assert mean_metric([0.5, 1.0]) == 0.75
        with pytest.raises(ValueError):
            mean_metric([])


class TestRegression:
    def test_exact_line(self):
        fit = linear_regression([0, 1, 2], [1, 3, 5])
        assert fit.slope == pytest.approx(2.0)
        assert fit.intercept == pytest.approx(1.0)
        assert fit.r_squared == pytest.approx(1.0)

    def test_predict(self):
        fit = linear_regression([0, 1], [0, 2])
        np.testing.assert_allclose(fit.predict([2, 3]), [4, 6])

    def test_constant_x(self):
        fit = linear_regression([1, 1, 1], [1, 2, 3])
        assert fit.slope == 0.0
        assert fit.intercept == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            linear_regression([1], [1])
        with pytest.raises(ValueError):
            linear_regression([1, 2], [1, 2, 3])


class TestOutlierStudy:
    def test_outliers_get_high_scores(self):
        rng = np.random.default_rng(0)
        tight = rng.normal(0, 0.5, size=(50, 4))
        spread = rng.normal(0, 4.0, size=(10, 4)) + 6.0
        data = np.vstack([tight, spread])
        scores = clustered_outlier_scores(data, lof_k=8, seed=0)
        assert scores.shape == (60,)

    def test_study_recovers_planted_correlation(self):
        rng = np.random.default_rng(1)
        n = 80
        novelty = rng.beta(1.5, 3.0, size=n)
        centre = rng.normal(size=4)
        # embeddings drift from the centre proportionally to novelty
        emb = centre + rng.normal(size=(n, 4)) * (0.3 + 2.5 * novelty[:, None])
        citations = rng.poisson(2 + 40 * novelty)
        study = outlier_citation_study(emb, citations, lof_k=10, seed=0)
        assert study.spearman > 0.25
        assert study.trend.slope > 0

    def test_study_validation(self):
        with pytest.raises(ValueError):
            outlier_citation_study(np.zeros((5, 2)), [1, 2, 3])
        with pytest.raises(ValueError):
            clustered_outlier_scores(np.zeros((2, 2)))

    def test_normalize_scores(self):
        np.testing.assert_allclose(normalize_scores(np.array([2.0, 4.0])), [0, 1])
        np.testing.assert_array_equal(normalize_scores(np.ones(3)), np.zeros(3))

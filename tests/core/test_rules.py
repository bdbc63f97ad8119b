"""Tests for the expert rules (Eqs. 1-3 + abstract subspace rule)."""

import numpy as np
import pytest

from repro.core.rules import (
    EMPTY_KEYWORD_DISTANCE,
    RULE_NAMES,
    AbstractSubspaceRule,
    ExpertRuleSet,
    classification_difference,
    default_level_weight,
    keyword_difference,
    reference_difference,
    subspace_centroids,
)
from repro.data import Paper, load_scopus
from repro.errors import NotFittedError
from repro.text import HashWordVectors, SentenceEncoder


def make_paper(pid="p", **kw):
    base = dict(id=pid, title="t", abstract="One sentence here. Another one.",
                year=2015, field="cs", sentence_labels=(0, 1))
    base.update(kw)
    return Paper(**base)


class TestClassificationDifference:
    def test_identical_paths_zero(self):
        path = ("cs", "ml", "gnn")
        assert classification_difference(path, path) == 0.0

    def test_disjoint_paths_sum_both(self):
        a = ("cs",)
        b = ("bio",)
        expected = 2 * (default_level_weight(1) / 2.0)
        assert classification_difference(a, b) == pytest.approx(expected)

    def test_shared_prefix_counts_only_divergence(self):
        a = ("cs", "ml")
        b = ("cs", "db")
        expected = 2 * (default_level_weight(2) / 4.0)
        assert classification_difference(a, b) == pytest.approx(expected)

    def test_deeper_divergence_cheaper(self):
        shallow = classification_difference(("a",), ("b",))
        deep = classification_difference(("x", "a"), ("x", "b"))
        assert deep < shallow

    def test_level_weight_validation(self):
        with pytest.raises(ValueError):
            default_level_weight(0)


class TestReferenceDifference:
    def test_identical_sets(self):
        refs = ["r1", "r2"]
        # union=2, inter=2 -> (2+1)/(2+1) = 1
        assert reference_difference(refs, refs) == pytest.approx(1.0)

    def test_disjoint_smoothed(self):
        assert reference_difference(["a"], ["b"]) == pytest.approx(3.0)

    def test_disjoint_unsmoothed_inf(self):
        assert reference_difference(["a"], ["b"], smoothing=0) == float("inf")

    def test_empty_sets(self):
        assert reference_difference([], [], smoothing=0) == 0.0
        assert reference_difference([], [], smoothing=1) == pytest.approx(1.0)

    def test_monotone_in_overlap(self):
        low = reference_difference(["a", "b", "c"], ["a", "b", "c"])
        high = reference_difference(["a", "b", "c"], ["a", "x", "y"])
        assert high > low


class TestKeywordDifference:
    def test_identical_keywords_zero(self):
        wv = HashWordVectors(dim=16)
        assert keyword_difference(["gnn"], ["gnn"], wv) == pytest.approx(0.0)

    def test_empty_keywords_default(self):
        assert keyword_difference([], ["x"]) == EMPTY_KEYWORD_DISTANCE

    def test_overlap_reduces_difference(self):
        wv = HashWordVectors(dim=64)
        close = keyword_difference(["a", "b"], ["a", "c"], wv)
        far = keyword_difference(["a", "b"], ["x", "y"], wv)
        assert close < far


class TestSubspaceCentroids:
    def test_means_per_label(self):
        vecs = np.array([[1.0, 0.0], [3.0, 0.0], [0.0, 2.0]])
        cents = subspace_centroids(vecs, [0, 0, 1], 3)
        np.testing.assert_allclose(cents[0], [2.0, 0.0])
        np.testing.assert_allclose(cents[1], [0.0, 2.0])
        np.testing.assert_allclose(cents[2], [0.0, 0.0])  # empty subspace

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            subspace_centroids(np.ones((2, 3)), [0], 2)


class TestAbstractRule:
    def test_same_paper_zero_difference(self):
        enc = SentenceEncoder(dim=16)
        rule = AbstractSubspaceRule(enc)
        p = make_paper("p1")
        assert rule.difference(p, p, 0) == pytest.approx(0.0)

    def test_subspace_out_of_range(self):
        rule = AbstractSubspaceRule(SentenceEncoder(dim=16))
        p = make_paper("p1")
        with pytest.raises(ValueError):
            rule.difference(p, p, 9)

    def test_caching_consistent(self):
        rule = AbstractSubspaceRule(SentenceEncoder(dim=16))
        p = make_paper("p1")
        np.testing.assert_array_equal(rule.centroids(p), rule.centroids(p))


class TestExpertRuleSet:
    @pytest.fixture(scope="class")
    def fitted(self):
        corpus = load_scopus(scale=0.15, seed=3)
        papers = corpus.papers[:60]
        rules = ExpertRuleSet(SentenceEncoder(dim=16)).fit(papers, n_pairs=40, seed=0)
        return rules, papers

    def test_fused_scores_shape(self, fitted):
        rules, papers = fitted
        scores = rules.fused_scores(papers[0], papers[1])
        assert scores.shape == (3,)

    def test_not_fitted(self):
        rules = ExpertRuleSet(SentenceEncoder(dim=16))
        with pytest.raises(NotFittedError):
            rules.fused_scores(make_paper("a"), make_paper("b"))

    def test_same_topic_scores_lower(self, fitted):
        rules, papers = fitted
        # average fused score between same-topic pairs should be below
        # cross-discipline pairs
        same, cross = [], []
        for i in range(0, 30, 3):
            for j in range(1, 30, 3):
                if papers[i].id == papers[j].id:
                    continue
                score = float(np.mean(rules.fused_scores(papers[i], papers[j])))
                if papers[i].category_path[-1] == papers[j].category_path[-1]:
                    same.append(score)
                elif papers[i].field != papers[j].field:
                    cross.append(score)
        assert same and cross
        assert np.mean(same) < np.mean(cross)

    def test_weights_validation(self, fitted):
        rules, _ = fitted
        with pytest.raises(ValueError):
            rules.set_weights(np.ones(2))
        rules.set_weights(np.ones(len(RULE_NAMES)) / len(RULE_NAMES))

    def test_fit_requires_two_papers(self):
        with pytest.raises(ValueError):
            ExpertRuleSet(SentenceEncoder(dim=16)).fit([make_paper("only")])


class TestCentroidCacheBound:
    def test_cache_size_validated(self):
        with pytest.raises(ValueError):
            AbstractSubspaceRule(SentenceEncoder(dim=16), cache_size=0)

    def test_lru_eviction_keeps_most_recent(self):
        rule = AbstractSubspaceRule(SentenceEncoder(dim=16), cache_size=3)
        papers = [make_paper(f"p{i}") for i in range(5)]
        for p in papers:
            rule.centroids(p)
        assert len(rule._cache) == 3
        assert set(rule._cache) == {"p2", "p3", "p4"}
        # touching p2 makes p3 the eviction victim for the next insert
        rule.centroids(papers[2])
        rule.centroids(make_paper("p5"))
        assert set(rule._cache) == {"p2", "p4", "p5"}

    def test_evicted_entries_recompute_identically(self):
        rule = AbstractSubspaceRule(SentenceEncoder(dim=16), cache_size=1)
        a, b = make_paper("a"), make_paper("b")
        first = rule.centroids(a).copy()
        rule.centroids(b)  # evicts a
        assert np.array_equal(rule.centroids(a), first)

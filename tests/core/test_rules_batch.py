"""Equivalence tests for the batch pair-scoring engine.

The batch engine (`repro.core.rules_batch.BatchPairScorer`) must agree
with the per-pair reference path in `repro.core.rules` to within 1e-9 at
every stage (raw rules, z-scored vectors, fused scores) — it is a pure
performance rewrite, not a semantic change.
"""

import numpy as np
import pytest

from repro.core.rules import (
    EMPTY_KEYWORD_DISTANCE,
    RULE_NAMES,
    ExpertRuleSet,
)
from repro.core.rules_batch import BatchPairScorer
from repro.data import Paper, load_scopus
from repro.text import SentenceEncoder

TOL = 1e-9


def fitted_rules(papers, seed=0):
    return ExpertRuleSet(SentenceEncoder(dim=16)).fit(
        papers, n_pairs=30, seed=seed)


def random_pairs(n_papers, m, seed):
    rng = np.random.default_rng(seed)
    left = rng.integers(0, n_papers, size=m)
    right = rng.integers(0, n_papers, size=m)
    return left, right


def reference_raw(rules, papers, left, right):
    out = np.empty((len(left), rules.num_subspaces, len(RULE_NAMES)))
    for row, (i, j) in enumerate(zip(left, right)):
        scores = rules.raw_scores(papers[i], papers[j])
        for k in range(rules.num_subspaces):
            out[row, k] = scores.vector(k)
    return out


class TestBatchEquivalence:
    @pytest.fixture(scope="class", params=[(0.12, 3), (0.2, 17)])
    def setting(self, request):
        scale, seed = request.param
        papers = load_scopus(scale=scale, seed=seed).papers[:60]
        rules = fitted_rules(papers, seed=seed)
        return papers, rules, rules.batch_scorer(papers)

    @pytest.mark.parametrize("pair_seed", [1, 2, 3])
    def test_raw_matrix_matches_per_pair(self, setting, pair_seed):
        papers, rules, scorer = setting
        left, right = random_pairs(len(papers), 40, pair_seed)
        batch = scorer.raw_matrix(left, right)
        reference = reference_raw(rules, papers, left, right)
        assert batch.shape == reference.shape
        assert np.abs(batch - reference).max() <= TOL

    @pytest.mark.parametrize("pair_seed", [4, 5])
    def test_normalized_matrix_matches_per_pair(self, setting, pair_seed):
        papers, rules, scorer = setting
        left, right = random_pairs(len(papers), 30, pair_seed)
        batch = scorer.normalized_matrix(left, right)
        mean, std = rules._require_fitted()
        reference = (reference_raw(rules, papers, left, right) - mean) / std
        assert np.abs(batch - reference).max() <= TOL

    @pytest.mark.parametrize("pair_seed", [6, 7])
    def test_fused_scores_match_per_pair(self, setting, pair_seed):
        papers, rules, scorer = setting
        left, right = random_pairs(len(papers), 50, pair_seed)
        batch = scorer.fused_scores(left, right)
        assert batch.shape == (50, rules.num_subspaces)
        for row, (i, j) in enumerate(zip(left, right)):
            reference = rules.fused_scores(papers[i], papers[j])
            assert np.abs(batch[row] - reference).max() <= TOL

    def test_self_pairs_match_per_pair(self, setting):
        """(p, p) pairs: the keyword distance must be an exact zero sum —
        the gram-expansion diagonal must not leak sqrt noise."""
        papers, rules, scorer = setting
        idx = np.arange(min(20, len(papers)))
        batch = scorer.raw_matrix(idx, idx)
        reference = reference_raw(rules, papers, idx, idx)
        assert np.abs(batch - reference).max() <= TOL

    def test_csr_fallback_matches_padded_gather(self, setting):
        """The two keyword formulations (padded gather vs csr matmul)
        agree; corpora with very long keyword lists take the csr path."""
        papers, rules, scorer = setting
        assert scorer._kw_ids is not None  # small lists -> padded path
        left, right = random_pairs(len(papers), 40, 13)
        padded = scorer._keywords(left, right)
        fallback = BatchPairScorer(rules, papers)
        fallback._kw_ids = None
        assert np.abs(padded - fallback._keywords(left, right)).max() <= TOL


class TestEdgeCases:
    def _paper(self, pid, **kw):
        base = dict(id=pid, title="t", abstract="One sentence. Two here.",
                    year=2015, field="cs", sentence_labels=(0, 1),
                    keywords=("graph", "embedding"),
                    category_path=("cs", "ir"), references=("r1",))
        base.update(kw)
        return Paper(**base)

    def test_empty_keywords_fall_back_to_constant(self):
        papers = [self._paper("a", keywords=()),
                  self._paper("b", keywords=("x",)),
                  self._paper("c", keywords=("x", "y"))]
        rules = fitted_rules(papers)
        scorer = rules.batch_scorer(papers)
        raw = scorer.raw_matrix([0, 0, 1], [1, 2, 2])
        kw_col = RULE_NAMES.index("keywords")
        assert np.all(raw[:2, :, kw_col] == EMPTY_KEYWORD_DISTANCE)
        assert np.all(raw[2, :, kw_col] != EMPTY_KEYWORD_DISTANCE)

    def test_no_keywords_anywhere(self):
        papers = [self._paper(f"p{i}", keywords=()) for i in range(4)]
        rules = fitted_rules(papers)
        raw = rules.batch_scorer(papers).raw_matrix([0, 1], [2, 3])
        kw_col = RULE_NAMES.index("keywords")
        assert np.all(raw[:, :, kw_col] == EMPTY_KEYWORD_DISTANCE)

    def test_duplicate_paper_ids_rejected(self):
        papers = [self._paper("a"), self._paper("a")]
        rules = fitted_rules([self._paper("a"), self._paper("b")])
        with pytest.raises(ValueError, match="duplicate"):
            BatchPairScorer(rules, papers)

    def test_out_of_range_index_raises(self):
        papers = [self._paper("a"), self._paper("b")]
        scorer = fitted_rules(papers).batch_scorer(papers)
        with pytest.raises(IndexError):
            scorer.raw_matrix([0], [5])

    def test_unfitted_rules_cannot_normalize(self):
        papers = [self._paper("a"), self._paper("b")]
        rules = ExpertRuleSet(SentenceEncoder(dim=16))
        scorer = rules.batch_scorer(papers)
        from repro.errors import NotFittedError
        with pytest.raises(NotFittedError):
            scorer.fused_scores([0], [1])


class TestScorerMemo:
    @pytest.fixture(scope="class")
    def papers(self):
        return load_scopus(scale=0.12, seed=5).papers[:30]

    def test_same_corpus_returns_same_scorer(self, papers):
        rules = fitted_rules(papers)
        assert rules.batch_scorer(papers) is rules.batch_scorer(papers)

    def test_different_corpus_rebuilds(self, papers):
        rules = fitted_rules(papers)
        first = rules.batch_scorer(papers)
        second = rules.batch_scorer(papers[:10])
        assert second is not first
        assert len(second.papers) == 10

    def test_weight_updates_flow_through_memoized_scorer(self, papers):
        """fused_scores reads weights live — set_weights after the scorer
        is built must change fused output without a rebuild."""
        rules = fitted_rules(papers)
        scorer = rules.batch_scorer(papers)
        before = scorer.fused_scores([0, 1], [2, 3])
        weights = np.zeros(len(RULE_NAMES))
        weights[0] = 1.0
        rules.set_weights(weights)
        after = rules.batch_scorer(papers).fused_scores([0, 1], [2, 3])
        assert not np.allclose(before, after)
        for row, (i, j) in enumerate(((0, 2), (1, 3))):
            reference = rules.fused_scores(papers[i], papers[j])
            assert np.abs(after[row] - reference).max() <= TOL

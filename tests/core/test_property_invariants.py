"""Property-based invariants (seeded random loops, no extra dependencies).

Three invariants that must hold for *every* draw, not just a lucky one:

* the de-fuzzing sampler never emits a (citing, cited) pair that is an
  actual citation — negatives contaminated with positives would poison
  the Eq. 23 objective;
* the vectorized :class:`BatchPairScorer` agrees with the per-pair
  :class:`ExpertRuleSet` arithmetic to 1e-9 — the batch engine is an
  optimisation, never a semantic change;
* LOF difference scores are permutation-equivariant — a paper's outlier
  score cannot depend on the order papers arrive in.
"""

import numpy as np
import pytest

from repro.cluster.lof import local_outlier_factor
from repro.core.nprec.sampling import defuzzed_negatives, random_negatives
from repro.core.rules import ExpertRuleSet
from repro.data import load_acm
from repro.text import SentenceEncoder

N_TRIALS = 8


@pytest.fixture(scope="module")
def papers():
    corpus = load_acm(scale=0.25, seed=11)
    train, _ = corpus.split_by_year(2014)
    return train


@pytest.fixture(scope="module")
def rules(papers):
    return ExpertRuleSet(SentenceEncoder(dim=16)).fit(papers, n_pairs=40,
                                                      seed=0)


class TestDefuzzNeverCited:
    def test_defuzzed_negatives_never_cited(self, papers, rules):
        by_id = {p.id: p for p in papers}
        for seed in range(N_TRIALS):
            for quantile in (0.2, 0.5, 0.8):
                negatives = defuzzed_negatives(papers, rules, 25,
                                               threshold_quantile=quantile,
                                               seed=seed)
                for pair in negatives:
                    assert pair.label == 0.0
                    assert pair.cited not in by_id[pair.citing].references, (
                        f"seed={seed} q={quantile}: cited pair "
                        f"({pair.citing}, {pair.cited}) sampled as negative")

    def test_random_negatives_never_cited(self, papers):
        by_id = {p.id: p for p in papers}
        for seed in range(N_TRIALS):
            for pair in random_negatives(papers, 40, seed=seed):
                assert pair.cited not in by_id[pair.citing].references


class TestBatchScorerEquivalence:
    def test_fused_scores_match_per_pair(self, papers, rules):
        scorer = rules.batch_scorer(papers)
        for seed in range(N_TRIALS):
            rng = np.random.default_rng(seed)
            left = rng.integers(len(papers), size=12)
            right = rng.integers(len(papers), size=12)
            batch = scorer.fused_scores(left, right)
            for row, (i, j) in enumerate(zip(left, right)):
                per_pair = rules.fused_scores(papers[i], papers[j])
                np.testing.assert_allclose(
                    batch[row], per_pair, rtol=0, atol=1e-9,
                    err_msg=f"seed={seed} pair=({i},{j})")

    def test_normalized_matrix_matches_per_pair(self, papers, rules):
        scorer = rules.batch_scorer(papers)
        rng = np.random.default_rng(123)
        left = rng.integers(len(papers), size=6)
        right = rng.integers(len(papers), size=6)
        matrix = scorer.normalized_matrix(left, right)
        mean, std = rules._require_fitted()
        for row, (i, j) in enumerate(zip(left, right)):
            raw = rules.raw_scores(papers[i], papers[j])
            for k in range(rules.num_subspaces):
                expected = (raw.vector(k) - mean) / std
                np.testing.assert_allclose(matrix[row, k], expected,
                                           rtol=0, atol=1e-9)


class TestLofPermutationInvariance:
    def test_scores_follow_the_permutation(self):
        for seed in range(N_TRIALS):
            rng = np.random.default_rng(seed)
            data = rng.normal(size=(40, 6))
            base = local_outlier_factor(data, k=5)
            perm = rng.permutation(len(data))
            permuted = local_outlier_factor(data[perm], k=5)
            np.testing.assert_allclose(permuted, base[perm],
                                       rtol=0, atol=1e-9,
                                       err_msg=f"seed={seed}")

    def test_scores_invariant_to_duplicated_run(self):
        rng = np.random.default_rng(7)
        data = rng.normal(size=(30, 4))
        first = local_outlier_factor(data, k=6)
        second = local_outlier_factor(data.copy(), k=6)
        np.testing.assert_array_equal(first, second)

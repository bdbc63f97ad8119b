"""Tests for the recommendation baselines (shared contract + specifics)."""

from collections import Counter

import numpy as np
import pytest

from repro.baselines import (
    JTIERecommender,
    KGCNLSRecommender,
    KGCNRecommender,
    MLPRecommender,
    NBCFRecommender,
    RippleNetRecommender,
    SVDRecommender,
    TfIdfIndex,
    WNMFRecommender,
    author_citation_pairs,
    build_interaction_matrix,
    content_neighbors,
)
from repro.analysis.metrics import ndcg_at_k
from repro.data import load_acm
from repro.errors import NotFittedError
from repro.experiments.protocol import split_task_by_year

ALL_RECOMMENDERS = [
    lambda: SVDRecommender(seed=0),
    lambda: WNMFRecommender(seed=0, n_iter=40),
    lambda: NBCFRecommender(),
    lambda: MLPRecommender(seed=0, epochs=2),
    lambda: JTIERecommender(seed=0, epochs=2),
    lambda: KGCNRecommender(seed=0, epochs=1),
    lambda: KGCNLSRecommender(seed=0, epochs=1),
    lambda: RippleNetRecommender(),
]


@pytest.fixture(scope="module")
def task():
    corpus = load_acm(scale=0.3, seed=8)
    return split_task_by_year(corpus, 2014, n_users=8, candidate_size=16,
                              min_prefix=8, seed=0)


@pytest.mark.parametrize("factory", ALL_RECOMMENDERS,
                         ids=lambda f: f().name)
class TestRecommenderContract:
    def test_rank_is_permutation(self, factory, task):
        rec = factory()
        rec.fit(task.corpus, task.train_papers, task.new_papers)
        user = task.users[0]
        ranked = rec.rank(list(user.train_papers), list(user.candidates))
        assert sorted(ranked) == sorted(p.id for p in user.candidates)

    def test_empty_candidates(self, factory, task):
        rec = factory()
        rec.fit(task.corpus, task.train_papers, task.new_papers)
        assert rec.rank(list(task.users[0].train_papers), []) == []

    def test_not_fitted(self, factory, task):
        rec = factory()
        if isinstance(rec, NBCFRecommender):
            with pytest.raises(NotFittedError):
                rec.rank(list(task.users[0].train_papers),
                         list(task.users[0].candidates))
        else:
            with pytest.raises(NotFittedError):
                rec.rank(list(task.users[0].train_papers),
                         list(task.users[0].candidates))


class TestBetterThanRandom:
    @pytest.mark.parametrize("factory", [
        lambda: NBCFRecommender(),
        lambda: RippleNetRecommender(),
        lambda: SVDRecommender(seed=0),
    ], ids=("NBCF", "RippleNet", "SVD"))
    def test_beats_shuffled_ranking(self, factory, task):
        rec = factory()
        rec.fit(task.corpus, task.train_papers, task.new_papers)
        rng = np.random.default_rng(0)
        model_scores, random_scores = [], []
        for user in task.users:
            cands = user.candidate_set(8)
            ranked = rec.rank(list(user.train_papers), cands)
            model_scores.append(ndcg_at_k(ranked, set(user.relevant_ids), 8))
            shuffled = [c.id for c in cands]
            rng.shuffle(shuffled)
            random_scores.append(ndcg_at_k(shuffled, set(user.relevant_ids), 8))
        assert np.mean(model_scores) > np.mean(random_scores)


class TestInteractionMatrix:
    def test_entries(self, task):
        matrix, authors, papers = build_interaction_matrix(
            task.corpus, task.train_papers)
        assert matrix.shape == (len(authors), len(papers))
        # authored papers marked
        paper = task.train_papers[0]
        if paper.authors:
            i = authors[paper.authors[0]]
            assert matrix[i, papers[paper.id]] == 1.0

    def test_author_citation_pairs_labels(self, task):
        samples = author_citation_pairs(list(task.train_papers),
                                        negative_ratio=2, rng=0)
        labels = {s[2] for s in samples}
        assert labels == {0.0, 1.0}
        positives = [s for s in samples if s[2] == 1.0]
        assert positives


class TestContentIndex:
    def test_tfidf_normalised(self, task):
        index = TfIdfIndex().fit(list(task.train_papers))
        vec = index.transform(task.train_papers[0])
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-9

    def test_same_paper_most_similar(self, task):
        index = TfIdfIndex().fit(list(task.train_papers))
        matrix = index.transform_many(list(task.train_papers[:30]))
        top, weights = content_neighbors(matrix[3], matrix, top_m=3)
        assert 3 in top
        assert weights.sum() == pytest.approx(1.0)

    @pytest.mark.parametrize("n", [40, 400])
    def test_head_equals_a_refit(self, task, n):
        # The first n terms of a wide vocabulary are what an n-term fit
        # on the same papers gives, and rebuilding an index from its
        # stored terms and idf changes no transform.
        papers = list(task.train_papers)
        wide = TfIdfIndex(max_features=3000).fit(papers)
        refit = TfIdfIndex(max_features=n).fit(papers)
        rebuilt = TfIdfIndex.from_terms(wide.terms, wide.idf_)
        for got, want in ((wide.head(n), refit), (rebuilt, wide)):
            assert got.terms == want.terms
            for paper in papers + list(task.new_papers):
                assert (got.transform(paper).tobytes()
                        == want.transform(paper).tobytes())

    @pytest.mark.parametrize("width", [50, 4000])
    def test_transform_matches_a_token_count_loop(self, task, width):
        # The reference counts tokens one by one; transform counts them
        # with np.unique. Same bits, including the capped vocabulary
        # (width 50 drops in-vocabulary ids past the cap).
        index = TfIdfIndex(max_features=width).fit(list(task.train_papers))

        def reference(paper):
            vector = np.zeros(index.dim)
            counts = Counter(index.vocabulary_.encode(index._tokens(paper)))
            counts.pop(0, None)
            for idx, count in counts.items():
                if idx < index.dim:
                    vector[idx] = (1.0 + np.log(count)) * index.idf_[idx]
            norm = np.linalg.norm(vector)
            return vector / norm if norm > 0 else vector

        for paper in list(task.train_papers) + list(task.new_papers):
            assert (index.transform(paper).tobytes()
                    == reference(paper).tobytes())

    def test_from_terms_validation(self):
        with pytest.raises(ValueError, match="terms but idf"):
            TfIdfIndex.from_terms(["<unk>", "graph"], np.zeros(3))
        with pytest.raises(ValueError, match="start with"):
            TfIdfIndex.from_terms(["graph"], np.zeros(1))

    def test_validation(self, task):
        with pytest.raises(ValueError):
            TfIdfIndex().fit([])
        with pytest.raises(ValueError):
            TfIdfIndex(max_features=0)
        index = TfIdfIndex().fit(list(task.train_papers))
        matrix = index.transform_many(list(task.train_papers[:5]))
        with pytest.raises(ValueError):
            content_neighbors(matrix[0], matrix, top_m=0)


class TestKGCNSpecifics:
    def test_label_smoothness_flag(self):
        assert KGCNRecommender.label_smoothness == 0.0
        assert KGCNLSRecommender.label_smoothness > 0.0

    def test_ripple_weights_cover_user_entities(self, task):
        rec = RippleNetRecommender()
        rec.fit(task.corpus, task.train_papers, task.new_papers)
        user = task.users[0]
        weights = rec._ripple_weights(list(user.train_papers))
        assert weights  # non-empty propagation set
        graph = rec._graph
        first = graph.index_of("paper", user.train_papers[0].id)
        for entity in graph.two_way_neighbors(first):
            assert weights.get(entity, 0) > 0

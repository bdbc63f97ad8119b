"""ServingIndex tests: blockwise retrieval, caching, ingestion, degradation."""

import dataclasses
import json
import shutil

import numpy as np
import pytest

from repro import obs
from repro.serve import ServingIndex, load_pipeline


@pytest.fixture
def pool(serve_task):
    return list(serve_task.new_papers)


@pytest.fixture
def index(artifact, pool):
    return ServingIndex.from_artifact(artifact[0], papers=pool)


@pytest.fixture
def user(serve_task):
    return serve_task.users[0]


def _clone(paper, new_id):
    return dataclasses.replace(paper, id=new_id, references=(),
                               citation_count=0)


class TestRetrieval:
    def test_pool_is_indexed(self, index, pool):
        assert not index.degraded
        assert index.num_papers == len(pool)
        assert index.paper_ids == [p.id for p in pool]

    def test_blockwise_matches_full_matrix(self, artifact, pool, serve_task):
        small = ServingIndex.from_artifact(artifact[0], papers=pool,
                                           block_size=7)
        large = ServingIndex.from_artifact(artifact[0], papers=pool,
                                           block_size=10_000)
        for user in serve_task.users[:3]:
            papers = list(user.train_papers)
            for k in (1, 5, len(pool)):
                assert small.top_k(papers, k=k) == large.top_k(papers, k=k)

    def test_heap_matches_bruteforce_argsort(self, index, user):
        papers = list(user.train_papers)
        k = 12
        got = index.top_k(papers, k=k)
        # Recompute scores densely from the precomputed rows.
        rec = index._recommender
        interest = rec.model.interest_vectors([p.id for p in papers]).data
        pairwise = interest @ index._influence.T
        mix = rec.config.max_pool_mix
        scores = mix * pairwise.max(axis=0) + (1 - mix) * pairwise.mean(axis=0)
        order = np.argsort(-scores, kind="mergesort")[:k]
        assert got == [index.paper_ids[i] for i in order]

    def test_k_larger_than_pool(self, index, user):
        everything = index.top_k(list(user.train_papers),
                                 k=index.num_papers + 50)
        assert sorted(everything) == sorted(index.paper_ids)

    def test_invalid_arguments(self, index, user):
        with pytest.raises(ValueError, match="k must be"):
            index.top_k(list(user.train_papers), k=0)
        with pytest.raises(ValueError, match="no representative"):
            index.top_k([], k=5)
        with pytest.raises(KeyError, match="not registered"):
            index.top_k("nobody", k=5)


class TestCache:
    def test_hit_and_explicit_invalidation(self, index, user):
        papers = list(user.train_papers)
        first = index.top_k(papers, k=10)
        assert (index.cache_hits, index.cache_misses) == (0, 1)
        second = index.top_k(papers, k=10)
        assert second == first
        assert (index.cache_hits, index.cache_misses) == (1, 1)
        # Different k is a different entry.
        index.top_k(papers, k=5)
        assert index.cache_misses == 2
        index.invalidate()
        index.top_k(papers, k=10)
        assert index.cache_misses == 3

    def test_cached_result_is_copied(self, index, user):
        papers = list(user.train_papers)
        first = index.top_k(papers, k=10)
        first.clear()  # corrupting the returned list must not poison the cache
        assert len(index.top_k(papers, k=10)) == 10

    def test_lru_bound(self, artifact, pool, serve_task):
        index = ServingIndex.from_artifact(artifact[0], papers=pool,
                                           cache_size=2)
        papers = list(serve_task.users[0].train_papers)
        for k in (1, 2, 3, 4):
            index.top_k(papers, k=k)
        assert len(index._cache) == 2

    def test_registered_user_matches_adhoc(self, index, user):
        index.register_user("u1", list(user.train_papers))
        assert index.top_k("u1", k=10) == \
            index.top_k(list(user.train_papers), k=10)


class TestIngestion:
    def test_add_paper_appears_in_topk_without_refit(self, artifact, pool,
                                                     user):
        index = ServingIndex.from_artifact(artifact[0], papers=pool)
        model = index._recommender.model
        entities_before = model.graph.num_entities
        weights_before = {k: v.copy() for k, v in model.state_dict().items()
                          if not k.startswith("embeddings.")}
        fresh = _clone(user.train_papers[-1], "serve-test-fresh")
        assert fresh.id not in index.paper_ids
        position = index.add_paper(fresh)
        assert position == index.num_papers - 1
        assert index.paper_ids[-1] == fresh.id
        top = index.top_k(list(user.train_papers), k=10)
        assert fresh.id in top
        # Cold start grew the graph but trained no weights.
        assert model.graph.num_entities > entities_before
        for name, before in weights_before.items():
            assert np.array_equal(before, model.state_dict()[name]), name

    def test_add_paper_invalidates_cache(self, index, user):
        papers = list(user.train_papers)
        without = index.top_k(papers, k=index.num_papers)
        fresh = _clone(user.train_papers[-1], "serve-test-fresh-2")
        index.add_paper(fresh)
        with_new = index.top_k(papers, k=index.num_papers)
        assert index.cache_misses == 2  # second query recomputed
        assert fresh.id not in without
        assert fresh.id in with_new

    def test_duplicate_rejected(self, index, pool):
        with pytest.raises(ValueError, match="already in the pool"):
            index.add_paper(pool[0])

    def test_unknown_pool_papers_are_ingested_at_init(self, artifact, pool,
                                                      user):
        fresh = _clone(user.train_papers[-1], "serve-test-init-ingest")
        index = ServingIndex.from_artifact(artifact[0], papers=pool + [fresh])
        assert fresh.id in index.paper_ids
        assert fresh.id in index.top_k(list(user.train_papers), k=10)

    def test_growth_buffer_is_identical_across_resize_boundaries(
            self, artifact, pool, user):
        # The pool buffer starts at capacity 8 and doubles; growing an
        # index one paper at a time across several resize boundaries must
        # leave the exact same rows (and ranking) as indexing the same
        # pool in one shot.
        grown = ServingIndex.from_artifact(artifact[0], papers=pool[:5])
        for paper in pool[5:37]:  # crosses the 8 -> 16 -> 32 -> 64 bounds
            grown.add_paper(paper)
        bulk = ServingIndex.from_artifact(artifact[0], papers=pool[:37])
        assert grown._influence.shape == bulk._influence.shape == (
            37, bulk._influence.shape[1])
        assert grown._buffer.shape[0] == 64  # doubled, not n^2
        # Every row appended one-at-a-time survived the copies bit for
        # bit (recomputing a single paper reproduces exactly what
        # _append buffered; positions < 5 came from a batched call) ...
        for position in (5, 7, 8, 15, 16, 31, 32, 36):
            row = grown._influence_rows([grown.paper_ids[position]])
            assert np.array_equal(grown._influence[[position]], row)
        # ... and batched vs row-at-a-time computation agrees to BLAS
        # rounding, so the two indexes rank alike.
        assert np.allclose(grown._influence, bulk._influence,
                           rtol=1e-9, atol=1e-12)
        papers = list(user.train_papers)
        assert grown.top_k(papers, k=37) == bulk.top_k(papers, k=37)


class TestDegradation:
    def test_unknown_entity_falls_back(self, index, user, obs_enabled):
        stranger = _clone(user.train_papers[-1], "never-seen-user-paper")
        result = index.top_k([stranger], k=10)
        assert len(result) == 10
        assert set(result) <= set(index.paper_ids)
        counter = obs.get_registry().get("serve.degraded",
                                         reason="unknown_entity")
        assert counter is not None and counter.value == 1

    def test_corrupt_artifact_degrades_not_raises(self, artifact, pool, user,
                                                  tmp_path, obs_enabled):
        broken = tmp_path / "broken"
        shutil.copytree(artifact[0], broken)
        manifest = json.loads((broken / "manifest.json").read_text())
        manifest["schema_version"] = 999
        (broken / "manifest.json").write_text(json.dumps(manifest))
        index = ServingIndex.from_artifact(broken, papers=pool)
        assert index.degraded
        counter = obs.get_registry().get("serve.degraded",
                                         reason="artifact_load_failed")
        assert counter is not None and counter.value == 1
        # Still answers queries, through TF-IDF.
        result = index.top_k(list(user.train_papers), k=10)
        assert len(result) == 10
        assert set(result) <= set(index.paper_ids)

    def test_degraded_ingestion_still_works(self, pool, user, tmp_path,
                                            obs_enabled):
        index = ServingIndex.from_artifact(tmp_path / "absent", papers=pool)
        assert index.degraded
        fresh = _clone(user.train_papers[-1], "degraded-fresh")
        index.add_paper(fresh)
        assert fresh.id in index.top_k(list(user.train_papers),
                                       k=index.num_papers)

    def test_loaded_index_equals_direct_index(self, artifact, pool, user):
        # from_artifact and a directly constructed index agree.
        direct = ServingIndex(load_pipeline(artifact[0]), papers=pool)
        via = ServingIndex.from_artifact(artifact[0], papers=pool)
        papers = list(user.train_papers)
        assert direct.top_k(papers, k=15) == via.top_k(papers, k=15)

"""IVF ANN tests: determinism, recall, exactness at full probe, growth,
persistence, and the ServingIndex strategy wiring."""

import shutil
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.errors import ArtifactError, NotFittedError
from repro.serve import (IVFIndex, ServingIndex, batch_exact_top_k,
                         exact_top_k, load_ann_index, pool_fingerprint,
                         rank_candidates, save_ann_index)

MIX = 0.7


def _clustered(n, dim=16, centers=12, seed=0):
    rng = np.random.default_rng(seed)
    mus = rng.normal(size=(centers, dim))
    rows = mus[rng.integers(0, centers, size=n)] \
        + 0.25 * rng.normal(size=(n, dim))
    interest = rows[rng.choice(n, size=4, replace=False)] \
        + 0.1 * rng.normal(size=(4, dim))
    return rows, interest


def _reference_order(interest, rows, k):
    pairwise = interest @ rows.T
    scores = MIX * pairwise.max(axis=0) + (1 - MIX) * pairwise.mean(axis=0)
    return np.argsort(-scores, kind="mergesort")[:k]


class TestExactTopK:
    def test_matches_bruteforce_argsort(self):
        rows, interest = _clustered(257)
        for k in (1, 10, 50):
            got = exact_top_k(interest, rows, k, mix=MIX, block_size=13)
            assert np.array_equal(got, _reference_order(interest, rows, k))

    def test_tie_heavy_pool_prefers_lower_position(self):
        # Many identical rows: the argpartition prescreen must keep
        # boundary ties, and ties must resolve toward lower positions
        # (the offline ranker's stable mergesort order).
        rng = np.random.default_rng(1)
        base = rng.normal(size=(5, 8))
        rows = base[np.repeat(np.arange(5), 40)]  # 200 rows, 5 distinct
        interest = rng.normal(size=(3, 8))
        for block in (7, 64, 512):
            got = exact_top_k(interest, rows, 90, mix=MIX, block_size=block)
            assert np.array_equal(got, _reference_order(interest, rows, 90))

    def test_k_covers_pool(self):
        rows, interest = _clustered(30)
        got = exact_top_k(interest, rows, 100, mix=MIX, block_size=8)
        assert got.shape[0] == 30
        assert np.array_equal(np.sort(got), np.arange(30))

    def test_invalid_k(self):
        rows, interest = _clustered(10)
        with pytest.raises(ValueError, match="k must be"):
            exact_top_k(interest, rows, 0, mix=MIX)


class TestBatchExactTopK:
    def test_bit_identical_to_per_query_calls(self):
        # The batched ranker must not just agree on order: positions AND
        # float score bits must match the lone-query path, for every
        # query in the batch, at awkward block boundaries.
        rows, _ = _clustered(257)
        rng = np.random.default_rng(7)
        interests = [rng.normal(size=(m, rows.shape[1]))
                     for m in (1, 3, 4, 2, 5)]
        ks = [1, 10, 50, 257, 300]
        batched = batch_exact_top_k(interests, rows, ks, mix=MIX,
                                    block_size=13)
        for interest, k, (positions, scores) in zip(interests, ks, batched):
            ((solo_pos, solo_scores),) = batch_exact_top_k(
                [interest], rows, [k], mix=MIX, block_size=13)
            assert np.array_equal(positions, solo_pos)
            assert np.array_equal(scores, solo_scores)  # exact bits
            assert np.array_equal(solo_pos, exact_top_k(
                interest, rows, k, mix=MIX, block_size=13))
            assert np.array_equal(solo_pos,
                                  _reference_order(interest, rows, k))

    def test_block_size_never_changes_the_answer(self):
        rows, _ = _clustered(100)
        rng = np.random.default_rng(11)
        interests = [rng.normal(size=(2, rows.shape[1])) for _ in range(3)]
        reference = batch_exact_top_k(interests, rows, [20, 20, 20],
                                      mix=MIX, block_size=100)
        for block in (3, 17, 64):
            got = batch_exact_top_k(interests, rows, [20, 20, 20],
                                    mix=MIX, block_size=block)
            for (ref_pos, _), (pos, _) in zip(reference, got):
                assert np.array_equal(ref_pos, pos)

    def test_empty_batch_and_length_mismatch(self):
        rows, _ = _clustered(10)
        assert batch_exact_top_k([], rows, [], mix=MIX) == []
        with pytest.raises(ValueError, match="interest matrices but"):
            batch_exact_top_k([rows[:2]], rows, [3, 4], mix=MIX)


class TestRankCandidates:
    def test_matches_search_composition(self):
        # search() == gather() + rank_candidates() — the decomposition
        # batch_top_k relies on to score IVF probes outside the lock.
        rows, interest = _clustered(300)
        index = IVFIndex(n_lists=8, seed=0).fit(rows)
        for nprobe in (2, 5):
            direct, _ = index.search(interest, rows, 12, nprobe=nprobe,
                                     mix=MIX)
            candidates, _ = index.gather(interest, MIX, nprobe)
            composed, _ = rank_candidates(interest, rows, candidates, 12,
                                          mix=MIX)
            assert np.array_equal(direct, composed)

    def test_candidate_ties_resolve_to_lower_position(self):
        rng = np.random.default_rng(3)
        base = rng.normal(size=(4, 8))
        rows = base[np.repeat(np.arange(4), 25)]  # blocks of identical rows
        interest = rng.normal(size=(2, 8))
        candidates = np.arange(0, 100, 2)  # even positions only
        got, _ = rank_candidates(interest, rows, candidates, 30, mix=MIX)
        scores = MIX * (interest @ rows.T).max(axis=0) \
            + (1 - MIX) * (interest @ rows.T).mean(axis=0)
        expect = candidates[np.lexsort((candidates,
                                        -scores[candidates]))][:30]
        assert np.array_equal(got, expect)


class TestKMeans:
    def test_fit_is_deterministic(self):
        rows, _ = _clustered(300)
        a = IVFIndex(n_lists=12, seed=5).fit(rows)
        b = IVFIndex(n_lists=12, seed=5).fit(rows)
        assert np.array_equal(a.centroids, b.centroids)
        assert np.array_equal(a.assignments, b.assignments)

    def test_assignments_partition_the_pool(self):
        rows, _ = _clustered(211)
        ivf = IVFIndex(n_lists=9).fit(rows)
        sizes = np.array([len(m) for m in ivf._lists])
        assert sizes.sum() == 211
        assert (sizes > 0).all()  # empty-cluster stealing leaves none empty
        members = np.sort(np.concatenate(
            [np.asarray(m) for m in ivf._lists]))
        assert np.array_equal(members, np.arange(211))

    def test_n_lists_capped_at_rows(self):
        rows, _ = _clustered(5)
        ivf = IVFIndex(n_lists=64).fit(rows)
        assert ivf.num_lists == 5

    def test_invalid_construction(self):
        with pytest.raises(ValueError, match="n_lists"):
            IVFIndex(n_lists=0)
        with pytest.raises(ValueError, match="recluster_factor"):
            IVFIndex(n_lists=4, recluster_factor=1.0)
        with pytest.raises(ValueError, match="non-empty"):
            IVFIndex(n_lists=4).fit(np.empty((0, 3)))


class TestSearch:
    def test_full_probe_equals_exact_ranking(self):
        rows, interest = _clustered(400)
        ivf = IVFIndex(n_lists=16).fit(rows)
        for block in (11, 512):
            exact = exact_top_k(interest, rows, 25, mix=MIX, block_size=block)
            got, stats = ivf.search(interest, rows, 25, mix=MIX,
                                    nprobe=ivf.num_lists, block_size=block)
            assert stats.candidates_scanned == 400
            assert stats.scan_fraction == 1.0
            assert np.array_equal(got, exact)

    def test_recall_is_monotone_in_nprobe(self):
        rows, interest = _clustered(600)
        ivf = IVFIndex(n_lists=24).fit(rows)
        exact = set(exact_top_k(interest, rows, 10, mix=MIX).tolist())
        previous = -1.0
        for nprobe in (1, 2, 4, 8, 16, 24):
            got, stats = ivf.search(interest, rows, 10, mix=MIX,
                                    nprobe=nprobe)
            recall = len(set(got.tolist()) & exact) / 10
            assert recall >= previous  # superset candidates, monotone recall
            previous = recall
            assert stats.lists_probed == nprobe
        assert previous == 1.0  # all lists probed == exact top-k

    def test_nprobe_is_clamped(self):
        rows, interest = _clustered(100)
        ivf = IVFIndex(n_lists=8).fit(rows)
        low, _ = ivf.search(interest, rows, 5, mix=MIX, nprobe=0)
        high, stats = ivf.search(interest, rows, 5, mix=MIX, nprobe=10_000)
        assert 1 <= low.shape[0] <= 5
        assert stats.candidates_scanned == 100  # clamped to every list

    def test_search_before_fit(self):
        rows, interest = _clustered(20)
        with pytest.raises(ValueError, match="before fit"):
            IVFIndex(n_lists=4).search(interest, rows, 5, mix=MIX)
        with pytest.raises(ValueError, match="before fit"):
            IVFIndex(n_lists=4).add(rows[0])


class TestIncrementalGrowth:
    def test_add_assigns_appended_positions(self):
        rows, _ = _clustered(120)
        ivf = IVFIndex(n_lists=8).fit(rows[:100])
        for i in range(100, 120):
            ivf.add(rows[i])
        assert ivf.num_rows == 120
        members = np.sort(np.concatenate(
            [np.asarray(m) for m in ivf._lists]))
        assert np.array_equal(members, np.arange(120))

    def test_lopsided_growth_trips_recluster(self):
        rows, _ = _clustered(200, centers=8, seed=2)
        ivf = IVFIndex(n_lists=8, recluster_factor=2.0).fit(rows)
        target = ivf.centroids[0]  # pile clones onto one list
        fired = False
        for _ in range(400):
            if ivf.add(target + 1e-3):
                fired = True
                break
        assert fired, "imbalance trigger never fired"


class TestPersistence:
    def test_array_round_trip(self):
        rows, interest = _clustered(150)
        ivf = IVFIndex(n_lists=10, seed=3, max_iter=9,
                       recluster_factor=3.0).fit(rows)
        clone = IVFIndex.from_arrays(ivf.to_arrays(), ivf.meta())
        assert clone.seed == 3 and clone.recluster_factor == 3.0
        assert np.array_equal(clone.assignments, ivf.assignments)
        a, _ = ivf.search(interest, rows, 12, mix=MIX, nprobe=4)
        b, _ = clone.search(interest, rows, 12, mix=MIX, nprobe=4)
        assert np.array_equal(a, b)

    def test_from_arrays_validates_assignments(self):
        rows, _ = _clustered(50)
        ivf = IVFIndex(n_lists=5).fit(rows)
        arrays = ivf.to_arrays()
        arrays["assignments"] = arrays["assignments"].copy()
        arrays["assignments"][0] = 99
        with pytest.raises(ValueError, match="nonexistent lists"):
            IVFIndex.from_arrays(arrays, ivf.meta())

    def test_unfitted_cannot_persist(self):
        with pytest.raises(ValueError, match="unfitted"):
            IVFIndex(n_lists=4).to_arrays()


# ----------------------------------------------------------------------
# ServingIndex wiring
# ----------------------------------------------------------------------
@pytest.fixture
def pool(serve_task):
    return list(serve_task.new_papers)


@pytest.fixture
def user(serve_task):
    return serve_task.users[0]


def _clone(paper, new_id):
    import dataclasses
    return dataclasses.replace(paper, id=new_id, references=(),
                               citation_count=0)


class TestServingStrategy:
    def test_full_probe_matches_exact_index(self, artifact, pool, serve_task):
        exact = ServingIndex.from_artifact(artifact[0], papers=pool)
        ivf = ServingIndex.from_artifact(artifact[0], papers=pool,
                                         index="ivf", nprobe=10_000)
        for user in serve_task.users[:3]:
            papers = list(user.train_papers)
            for k in (1, 5, 20):
                assert ivf.top_k(papers, k=k) == exact.top_k(papers, k=k)

    def test_ivf_results_stay_in_pool(self, artifact, pool, user):
        index = ServingIndex.from_artifact(artifact[0], papers=pool,
                                           index="ivf", nprobe=2, n_lists=8)
        top = index.top_k(list(user.train_papers), k=10)
        assert len(top) == len(set(top)) <= 10
        assert set(top) <= set(index.paper_ids)
        assert index.ann is not None and index.ann.num_lists == 8

    def test_probe_counters_recorded(self, artifact, pool, user, obs_enabled):
        index = ServingIndex.from_artifact(artifact[0], papers=pool,
                                           index="ivf", nprobe=3, n_lists=9)
        index.top_k(list(user.train_papers), k=5)
        registry = obs.get_registry()
        probed = registry.get("serve.ann.lists_probed")
        scanned = registry.get("serve.ann.candidates_scanned")
        assert probed is not None and probed.value == 3
        assert scanned is not None and 0 < scanned.value <= len(pool)

    def test_invalid_strategy_arguments(self, artifact, pool):
        with pytest.raises(ValueError, match="index must be"):
            ServingIndex.from_artifact(artifact[0], papers=pool,
                                       index="annoy")
        with pytest.raises(ValueError, match="nprobe"):
            ServingIndex.from_artifact(artifact[0], papers=pool,
                                       index="ivf", nprobe=0)
        with pytest.raises(ValueError, match="n_lists"):
            ServingIndex.from_artifact(artifact[0], papers=pool,
                                       index="ivf", n_lists=0)

    def test_set_nprobe_revalidates_and_drops_cache(self, artifact, pool,
                                                    user):
        index = ServingIndex.from_artifact(artifact[0], papers=pool,
                                           index="ivf", nprobe=1)
        papers = list(user.train_papers)
        index.top_k(papers, k=5)
        index.set_nprobe(10_000)  # clamped at query time == exact
        index.top_k(papers, k=5)
        assert index.cache_misses == 2
        with pytest.raises(ValueError, match="nprobe"):
            index.set_nprobe(0)

    def test_ingested_paper_joins_the_quantizer(self, artifact, pool, user):
        index = ServingIndex.from_artifact(artifact[0], papers=pool,
                                           index="ivf", nprobe=10_000)
        papers = list(user.train_papers)
        index.top_k(papers, k=5)  # lazy-build the quantizer
        rows_before = index.ann.num_rows
        fresh = _clone(user.train_papers[-1], "ann-test-fresh")
        index.add_paper(fresh)
        assert index.ann.num_rows == rows_before + 1 == index.num_papers
        # Full probe keeps the oracle guarantee even after growth.
        assert fresh.id in index.top_k(papers, k=index.num_papers)

    def test_recluster_wiring(self, artifact, pool, user, obs_enabled,
                              monkeypatch):
        index = ServingIndex.from_artifact(artifact[0], papers=pool,
                                           index="ivf", n_lists=4)
        index.top_k(list(user.train_papers), k=5)
        monkeypatch.setattr(index.ann, "add", lambda row: True)
        index.add_paper(_clone(user.train_papers[-1], "ann-recluster"))
        counter = obs.get_registry().get("serve.ann.recluster")
        assert counter is not None and counter.value == 1
        # The refit covers the grown pool (fit replaced the patched add's
        # stale view).
        assert index.ann.num_rows == index.num_papers


class TestServingEdges:
    def test_degraded_ivf_serves_fallback(self, pool, user, tmp_path,
                                          obs_enabled):
        index = ServingIndex.from_artifact(tmp_path / "absent", papers=pool,
                                           index="ivf")
        assert index.degraded
        result = index.top_k(list(user.train_papers), k=10)
        assert len(result) == 10
        with pytest.raises(NotFittedError, match="cannot cluster"):
            index.build_ann_index()

    def test_empty_pool(self, artifact, user):
        index = ServingIndex.from_artifact(artifact[0], papers=[],
                                           index="ivf")
        assert index.top_k(list(user.train_papers), k=5) == []
        with pytest.raises(NotFittedError, match="cannot cluster"):
            index.build_ann_index()


class TestArtifactPersistence:
    @pytest.fixture
    def warm_dir(self, artifact, pool, tmp_path):
        """A private artifact copy with a persisted quantizer."""
        directory = tmp_path / "warm"
        shutil.copytree(artifact[0], directory)
        index = ServingIndex.from_artifact(directory, papers=pool,
                                           index="ivf")
        save_ann_index(directory, index.build_ann_index(), index.paper_ids)
        return directory

    def test_round_trip_and_manifest_coverage(self, warm_dir, pool):
        assert (warm_dir / "ann" / "ivf.json").is_file()
        ivf, meta = load_ann_index(warm_dir)
        assert ivf.fitted and ivf.num_rows == len(pool)
        assert meta["pool_sha256"] == pool_fingerprint([p.id for p in pool])
        # The refreshed manifest sha256-covers the quantizer files, so a
        # reloaded index passes its artifact health check.
        index = ServingIndex.from_artifact(warm_dir, papers=pool,
                                           index="ivf")
        assert index.health(probe=False)["checks"]["artifact"]["ok"]

    def test_adopted_without_refit(self, warm_dir, pool, user, obs_enabled):
        index = ServingIndex.from_artifact(warm_dir, papers=pool,
                                           index="ivf")
        adopted = obs.get_registry().get("serve.ann.artifact",
                                         outcome="adopted")
        assert adopted is not None and adopted.value == 1
        assert index.ann is not None and index.ann.fitted  # no lazy refit due
        assert len(index.top_k(list(user.train_papers), k=5)) == 5

    def test_stale_fingerprint_is_not_adopted(self, warm_dir, pool, user,
                                              obs_enabled):
        grown = pool + [_clone(user.train_papers[-1], "ann-stale-extra")]
        index = ServingIndex.from_artifact(warm_dir, papers=grown,
                                           index="ivf")
        stale = obs.get_registry().get("serve.ann.artifact", outcome="stale")
        assert stale is not None and stale.value == 1
        assert index.ann is None  # refits lazily on first query

    def test_absent_quantizer_counted(self, artifact, pool, obs_enabled):
        ServingIndex.from_artifact(artifact[0], papers=pool, index="ivf")
        absent = obs.get_registry().get("serve.ann.artifact",
                                        outcome="absent")
        assert absent is not None and absent.value == 1

    def test_exact_mode_ignores_quantizer(self, warm_dir, pool, user):
        index = ServingIndex.from_artifact(warm_dir, papers=pool)
        assert index.ann is None
        assert len(index.top_k(list(user.train_papers), k=5)) == 5

    def test_save_requires_fitted_index_and_artifact(self, artifact, pool,
                                                     tmp_path):
        with pytest.raises(NotFittedError, match="fitted"):
            save_ann_index(artifact[0], IVFIndex(n_lists=4),
                           [p.id for p in pool])
        rows = np.random.default_rng(0).normal(size=(10, 4))
        fitted = IVFIndex(n_lists=2).fit(rows)
        with pytest.raises(ArtifactError, match="pool has"):
            save_ann_index(artifact[0], fitted, [p.id for p in pool])
        with pytest.raises(ArtifactError, match="save_pipeline"):
            save_ann_index(tmp_path / "nowhere", fitted,
                           [f"p{i}" for i in range(10)])

    def test_corrupt_quantizer_raises(self, warm_dir):
        (warm_dir / "ann" / "ivf.json").write_text("{not json")
        with pytest.raises(ArtifactError, match="deserialised"):
            load_ann_index(warm_dir)

    def test_missing_quantizer_raises(self, artifact):
        assert not (Path(artifact[0]) / "ann").exists()
        with pytest.raises(ArtifactError, match="no ANN quantizer"):
            load_ann_index(artifact[0])

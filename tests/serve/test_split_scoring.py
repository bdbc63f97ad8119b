"""Split pool rows: a dense head plus the CSR content block.

``reference_pooled_scores`` is serving's original score: the dense
``interest @ rows.T`` over full model rows, pooled as
``mix * max + (1 - mix) * mean``. Serving now keeps pool rows and
interest profiles as :class:`~repro.serve.ann.SplitRows` and scores the
content block from its non-zeros, so its scores must agree with the
dense reference to float rounding, and every bit-identity contract
(batched == serial, full-probe IVF == exact, WAL replay == live) must
still hold on a model that has a content block.
"""

import dataclasses

import numpy as np
import pytest

from scipy import sparse

from repro import obs
from repro.core.nprec.model import ContentRows
from repro.serve import ServingIndex, WriteAheadLog
from repro.serve import ann
from repro.serve.ann import (IVFIndex, SplitRows, batch_exact_top_k,
                             pooled_scores, rank_candidates)

TOL = 1e-12


def reference_pooled_scores(interest, rows, mix):
    """Pooled scores of dense full *rows* against dense *interest*."""
    pairwise = interest @ rows.T
    return mix * pairwise.max(axis=0) + (1.0 - mix) * pairwise.mean(axis=0)


def per_block_scores(interest, rows, mix, block_size, positions=None):
    """Split scores of *rows* (or of the rows at *positions*) computed
    block by block, each block on its own.

    A block is a slice of *rows*, or a gather of a chunk of *positions*,
    and builds its own CSR matrix of its content rows: the per-block
    scoring the prepared-query rankers replaced.
    """
    content_t = interest.content[np.arange(len(interest))].T
    n = rows.shape[0] if positions is None else positions.shape[0]
    scores = []
    for start in range(0, n, block_size):
        block = (rows[start:start + block_size] if positions is None
                 else rows[positions[start:start + block_size]])
        content = block.content
        pairwise = interest.head @ block.head.T
        pairwise += (sparse.csr_matrix(
            (content.data, content.indices, content.indptr),
            shape=content.shape) @ content_t).T
        scores.append(mix * pairwise.max(axis=0)
                      + (1.0 - mix) * pairwise.mean(axis=0))
    return np.concatenate(scores)


@pytest.fixture
def pool(serve_task):
    return list(serve_task.new_papers)


@pytest.fixture
def index(artifact, pool, serve_task):
    built = ServingIndex.from_artifact(artifact[0], papers=pool)
    for user in serve_task.users:
        built.register_user(user.author_id, list(user.train_papers))
    return built


def _fresh(task, n, tag):
    return [dataclasses.replace(task.new_papers[i % len(task.new_papers)],
                                id=f"split-{tag}-{i}", references=(),
                                citation_count=0)
            for i in range(n)]


class TestContentRowsStore:
    def _store(self, rng, n=12, width=40):
        dense = rng.random((n, width)) * (rng.random((n, width)) < 0.1)
        dense[3] = 0.0
        return dense, ContentRows.from_rows(dense, width)

    def test_take_matches_dense_rows(self):
        dense, store = self._store(np.random.default_rng(0))
        for index in (slice(0, 5), slice(4, 12), slice(7, 7),
                      np.array([9, 3, 3, 0]), np.array([], dtype=int)):
            taken = store.take(index)
            assert taken.shape == dense[index].shape
            assert np.array_equal(taken[np.arange(taken.shape[0])],
                                  dense[index])

    def test_growth_reuses_spare_capacity_and_keeps_snapshots(self):
        rng = np.random.default_rng(1)
        dense, store = self._store(rng)
        before = store.snapshot()
        frozen = before[np.arange(before.shape[0])]
        buffers = set()
        for _ in range(20):
            row = rng.random(store.width) * (rng.random(store.width) < 0.2)
            store.append([row])
            dense = np.vstack([dense, row])
            buffers.add(id(store._spare["data"]))
        assert store.shape == dense.shape
        assert np.array_equal(store[np.arange(dense.shape[0])], dense)
        # Doubling: a few reallocations serve twenty appends.
        assert 1 < len(buffers) < 20
        # Appends write past the snapshot's prefix, never into it.
        assert np.array_equal(before[np.arange(before.shape[0])], frozen)

    def test_extend_appends_another_stores_rows(self):
        dense, store = self._store(np.random.default_rng(2))
        head = ContentRows.from_rows(dense[:4], store.width)
        head.extend(store.take(slice(4, 12)))
        assert np.array_equal(head.data, store.data)
        assert np.array_equal(head.indices, store.indices)
        assert np.array_equal(head.indptr, store.indptr)
        with pytest.raises(ValueError, match="width"):
            head.extend(ContentRows.from_rows([], store.width + 1))


class TestSplitScores:
    def test_pool_rows_split_losslessly(self, index):
        rows = index._influence
        model = index._recommender.model
        columns = model.content_columns
        assert isinstance(rows, SplitRows)
        assert rows.at == columns.start
        assert rows.head.shape[1] == rows.shape[1] - model.content_matrix.width
        assert rows.nbytes < rows.dense().nbytes / 4
        # The pool was computed as one block, so this call reproduces it.
        dense = model.influence_vectors(index.paper_ids).data
        assert np.array_equal(rows.dense(), dense)
        assert np.array_equal(rows[np.arange(3, 9)].dense(), dense[3:9])

    def test_split_scores_match_the_dense_reference(self, index, serve_task):
        rows = index._influence
        mix = index._recommender.config.max_pool_mix
        for user in serve_task.users:
            profile = index._profiles[user.author_id][1]
            want = reference_pooled_scores(profile.dense(), rows.dense(), mix)
            np.testing.assert_allclose(pooled_scores(profile, rows, mix), want,
                                       rtol=0, atol=TOL)
            # A dense full-width operand opposite split rows (the IVF
            # centroid case) scores the same.
            np.testing.assert_allclose(
                pooled_scores(profile, rows.dense()[:9], mix), want[:9],
                rtol=0, atol=TOL)
            np.testing.assert_allclose(
                pooled_scores(profile.dense(), rows[np.arange(9)], mix),
                want[:9], rtol=0, atol=TOL)

    def test_batched_equals_serial(self, index, serve_task):
        rows = index._influence
        mix = index._recommender.config.max_pool_mix
        profiles = [index._profiles[u.author_id][1] for u in serve_task.users]
        ks = [3, 10, len(index.paper_ids)] * 2
        batched = batch_exact_top_k(profiles, rows, ks[:len(profiles)],
                                    mix=mix, block_size=7)
        for profile, k, (positions, scores) in zip(profiles, ks, batched):
            ((want_positions, want_scores),) = batch_exact_top_k(
                [profile], rows, [k], mix=mix, block_size=7)
            assert np.array_equal(positions, want_positions)
            assert scores.tobytes() == want_scores.tobytes()

    def test_candidate_scoring_equals_exact(self, index, serve_task):
        # A candidate chunk gathers the rows the exact path slices, so
        # scores match bit for bit when the candidates are the whole pool.
        rows = index._influence
        mix = index._recommender.config.max_pool_mix
        everything = np.arange(rows.shape[0])
        for user in serve_task.users:
            profile = index._profiles[user.author_id][1]
            ((positions, scores),) = batch_exact_top_k(
                [profile], rows, [15], mix=mix, block_size=16)
            got, got_scores = rank_candidates(profile, rows, everything, 15,
                                              mix=mix, block_size=16)
            assert np.array_equal(got, positions)
            assert got_scores.tobytes() == scores.tobytes()

    def test_probe_splits_the_centroids_once_per_fit(self, index,
                                                     serve_task):
        rows = index._influence
        mix = index._recommender.config.max_pool_mix
        ivf = IVFIndex(n_lists=6, seed=0).fit(rows)
        clone = IVFIndex.from_arrays(ivf.to_arrays(), ivf.meta())
        profiles = [index._profiles[u.author_id][1] for u in serve_task.users]
        for quantizer in (ivf, clone):
            assert quantizer._split is None
            for profile in profiles:
                quantizer.probe(profile, mix, 3)
                parts = quantizer._split[1]
                # The cut the probe used to make per call, same bits.
                want = pooled_scores(profile, quantizer.centroids, mix)
                got = pooled_scores(profile, parts, mix)
                assert got.tobytes() == want.tobytes()
            assert quantizer._split[1] is parts
        ivf.fit(rows[np.arange(0, rows.shape[0], 2)])
        assert ivf._split is None

    def test_full_probe_ivf_equals_exact(self, artifact, pool, serve_task,
                                         index):
        ivf = ServingIndex.from_artifact(artifact[0], papers=pool,
                                         index="ivf", n_lists=6)
        for user in serve_task.users:
            ivf.register_user(user.author_id, list(user.train_papers))
        ivf.set_nprobe(6)
        requests = [(u.author_id, 10) for u in serve_task.users]
        for got, want in zip(ivf.batch_top_k(requests),
                             index.batch_top_k(requests)):
            assert got.ids == want.ids
            assert got.scores.tobytes() == want.scores.tobytes()


class TestPreparedQueries:
    """The exact and candidate rankers prepare each query once.

    A pool of 85 rows in blocks of 7 is 13 blocks. Each query's interest
    rows are split once and its content term comes from one CSR product,
    and the scores equal the per-block reference bit for bit. The pool's
    CSR matrix is built once for every query; a gathered candidate
    store's, once per query.
    """

    BLOCK = 7

    @pytest.fixture
    def counted(self, monkeypatch):
        """Calls of the interest split and of the CSR constructor."""
        calls = {"split": 0, "csr": 0}
        split, csr = ann._parts, sparse.csr_matrix

        def counting_split(*args):
            calls["split"] += 1
            return split(*args)

        def counting_csr(*args, **kwargs):
            calls["csr"] += 1
            return csr(*args, **kwargs)

        monkeypatch.setattr(ann, "_parts", counting_split)
        monkeypatch.setattr(sparse, "csr_matrix", counting_csr)
        return calls

    def _profiles(self, index, serve_task):
        return [index._profiles[u.author_id][1] for u in serve_task.users]

    def test_exact_ranker_splits_each_query_once(self, index, serve_task,
                                                 counted):
        rows = index._influence[:]  # a fresh store: no CSR matrix built
        assert -(-rows.shape[0] // self.BLOCK) >= 3
        mix = index._recommender.config.max_pool_mix
        profiles = self._profiles(index, serve_task)
        for _ in range(2):
            batch_exact_top_k(profiles, rows, [10] * len(profiles), mix=mix,
                              block_size=self.BLOCK)
        assert counted == {"split": 2 * len(profiles), "csr": 1}

    def test_pool_csr_is_built_once_per_pool_version(self, index,
                                                     serve_task, counted):
        user = serve_task.users[0]
        for k in (5, 6, 7):  # distinct keys: each query ranks
            index.top_k(user.author_id, k=k)
        assert counted["csr"] == 1
        index.add_paper(dataclasses.replace(
            serve_task.train_papers[0], id="csr-version", references=(),
            citation_count=0))
        index.top_k(user.author_id, k=5)
        assert counted["csr"] == 2

    def test_candidate_ranker_splits_each_query_once(self, index,
                                                     serve_task, counted):
        rows = index._influence
        mix = index._recommender.config.max_pool_mix
        candidates = np.arange(0, rows.shape[0], 2)
        assert -(-candidates.shape[0] // self.BLOCK) >= 3
        profiles = self._profiles(index, serve_task)
        for profile in profiles:
            rank_candidates(profile, rows, candidates, 10, mix=mix,
                            block_size=self.BLOCK)
        assert counted == {"split": len(profiles), "csr": len(profiles)}

    def test_exact_scores_equal_the_per_block_reference(self, index,
                                                        serve_task):
        rows = index._influence
        mix = index._recommender.config.max_pool_mix
        n = rows.shape[0]
        for profile in self._profiles(index, serve_task):
            want = per_block_scores(profile, rows, mix, self.BLOCK)
            ((positions, scores),) = batch_exact_top_k(
                [profile], rows, [n], mix=mix, block_size=self.BLOCK)
            order = np.lexsort((np.arange(n), -want))
            assert np.array_equal(positions, order)
            assert scores.tobytes() == want[order].tobytes()

    @pytest.mark.parametrize("stride", [1, 3])
    def test_candidate_scores_equal_the_per_block_reference(
            self, index, serve_task, stride):
        rows = index._influence
        mix = index._recommender.config.max_pool_mix
        candidates = np.arange(1, rows.shape[0], stride)
        for profile in self._profiles(index, serve_task):
            want = per_block_scores(profile, rows, mix, self.BLOCK,
                                    candidates)
            positions, scores = rank_candidates(
                profile, rows, candidates, candidates.shape[0], mix=mix,
                block_size=self.BLOCK)
            order = np.lexsort((candidates, -want))
            assert np.array_equal(positions, candidates[order])
            assert scores.tobytes() == want[order].tobytes()


class TestSplitStoreDurability:
    def test_wal_restart_equals_live_across_doublings(self, artifact, pool,
                                                      serve_task, tmp_path):
        directory, _ = artifact
        fresh = _fresh(serve_task, 12, "wal")
        user = serve_task.users[0]
        wal_path = tmp_path / "ingest.wal"
        live = ServingIndex.from_artifact(directory, papers=pool[:5],
                                          wal=WriteAheadLog(wal_path))
        head_capacities, content_buffers = set(), set()
        for paper in fresh:
            live.add_paper(paper)
            head_capacities.add(live._head_buffer.shape[0])
            content_buffers.add(id(live._pool_content._spare["data"]))
        # 5 + 12 rows: the head buffer doubled 8 -> 16 -> 32, and the
        # content store reallocated more than once but not per ingest.
        assert head_capacities == {8, 16, 32}
        assert 1 < len(content_buffers) < len(fresh)
        live.register_user(user.author_id, list(user.train_papers))
        want = live.batch_top_k([(user.author_id, 10)])[0]
        live.wal.close()

        restarted = ServingIndex.from_artifact(directory, papers=pool[:5],
                                               wal=WriteAheadLog(wal_path))
        assert restarted.wal.lag == len(fresh)
        restarted.register_user(user.author_id, list(user.train_papers))
        got = restarted.batch_top_k([(user.author_id, 10)])[0]
        assert got.ids == want.ids
        assert got.scores.tobytes() == want.scores.tobytes()
        a, b = live._influence, restarted._influence
        assert a.head.tobytes() == b.head.tobytes()
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(a.content, name),
                                  getattr(b.content, name))
        restarted.wal.close()


class TestSplitStoreHealth:
    @pytest.mark.parametrize("part", ["head", "content"])
    def test_non_finite_value_is_reported_and_healed(self, artifact, pool,
                                                     part, obs_enabled):
        index = ServingIndex.from_artifact(artifact[0], papers=pool)
        want = index._influence.dense()
        if part == "head":
            index._head_buffer[4, 2] = np.nan
        else:
            index._pool_content.data[5] = np.inf
        report = index.health(probe=False)
        assert report["checks"]["embeddings"] == {
            "ok": True, "healed": True, "rows": len(pool)}
        counter = obs.get_registry().get("serve.self_heal",
                                         component="influence")
        assert counter is not None and counter.value == 1
        np.testing.assert_allclose(index._influence.dense(), want,
                                   rtol=1e-9, atol=TOL)

    @pytest.mark.parametrize("part", ["head", "content"])
    def test_unhealable_non_finite_value_fails_the_check(self, artifact, pool,
                                                         part, monkeypatch):
        index = ServingIndex.from_artifact(artifact[0], papers=pool)
        if part == "head":
            index._head_buffer[0, 0] = -np.inf
        else:
            index._pool_content.data[0] = np.nan

        def broken(paper_ids):
            raise RuntimeError("model unavailable")

        monkeypatch.setattr(index, "_influence_rows", broken)
        report = index.health(probe=False)
        assert report["checks"]["embeddings"]["ok"] is False
        assert report["healthy"] is False

"""Serving's pool rows and scores against the offline ranker.

Pool rows and interest profiles are the model's dense interest and
influence rows: the learned blocks and the lexical sketch block. Served
scores must equal the offline ranker's score
(:meth:`NPRecRecommender._rank`) to float rounding, and every bit-identity contract
(batched == serial, full-probe IVF == exact, WAL replay == live) must
hold on a model that has lexical content rows. The content rows stay a
:class:`~repro.core.nprec.model.ContentRows` store (the model's
projection input and the fallback's pool store), whose growth is tested
here too.
"""

import dataclasses

import numpy as np
import pytest

from repro import obs
from repro.core.nprec.model import ContentRows
from repro.serve import ServingIndex, WriteAheadLog
from repro.serve.ann import batch_exact_top_k, pooled_scores, rank_candidates

TOL = 1e-12


def per_block_scores(interest, rows, mix, block_size, positions=None):
    """Pooled scores of *rows* (or of the rows at *positions*), each
    ``block_size`` chunk scored on its own: the blocks the rankers see."""
    n = rows.shape[0] if positions is None else positions.shape[0]
    scores = []
    for start in range(0, n, block_size):
        block = (rows[start:start + block_size] if positions is None
                 else rows[positions[start:start + block_size]])
        pairwise = interest @ block.T
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


class TestSplitScores:
    def test_pool_rows_are_the_models_rows(self, index):
        rows = index._influence
        model = index._recommender.model
        assert isinstance(rows, np.ndarray)
        # Four 32-wide learned blocks and the lexical sketch block; the
        # 3000-wide lexical rows are no block of the served rows.
        sketch = model.lexical_sketch.shape[1]
        assert rows.shape == (len(index.paper_ids), 4 * model.dim + sketch)
        content = model.content_matrix[model._indices(index.paper_ids)]
        projected = content @ model.lexical_sketch
        np.testing.assert_allclose(
            rows[:, -sketch:], model.content_gate * projected
            / np.linalg.norm(projected, axis=1, keepdims=True),
            rtol=0, atol=TOL)
        # The pool was computed as one block, so this call reproduces it.
        assert np.array_equal(rows, model.influence_vectors(
            index.paper_ids).data)

    def test_served_scores_equal_the_offline_correlation(self, index, pool,
                                                         serve_task):
        """Served top-k over the whole pool: the ids in the order the
        offline ranker gives them under the default config, and the
        scores it sorts by, within float rounding."""
        rec = index._recommender
        mix = rec.config.max_pool_mix
        assert [p.id for p in pool] == index.paper_ids
        for user in serve_task.users:
            papers = list(user.train_papers)
            got = index.batch_top_k([(user.author_id, len(pool))])[0]
            assert got.ids == rec._rank(papers, pool)
            interest = rec.model.interest_vectors([p.id for p in papers]).data
            influence = rec.model.influence_vectors(got.ids).data
            pairwise = interest @ influence.T
            want = (mix * pairwise.max(axis=0)
                    + (1 - mix) * pairwise.mean(axis=0))
            np.testing.assert_allclose(got.scores, want, rtol=0, atol=TOL)

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
        # The centroids live in the pool rows' 160 columns.
        assert ivf.ann.centroids.shape == (6, ivf._influence.shape[1])


class TestPreparedQueries:
    """The exact and candidate rankers score block by block.

    A pool of 85 rows in blocks of 7 is 13 blocks. Each query's scores
    equal the per-block reference bit for bit, in the rankers' order:
    descending score, ties toward the lower pool position.
    """

    BLOCK = 7

    def _profiles(self, index, serve_task):
        return [index._profiles[u.author_id][1] for u in serve_task.users]

    def test_exact_scores_equal_the_per_block_reference(self, index,
                                                        serve_task):
        rows = index._influence
        mix = index._recommender.config.max_pool_mix
        n = rows.shape[0]
        assert -(-n // self.BLOCK) >= 3
        for profile in self._profiles(index, serve_task):
            want = per_block_scores(profile, rows, mix, self.BLOCK)
            ((positions, scores),) = batch_exact_top_k(
                [profile], rows, [n], mix=mix, block_size=self.BLOCK)
            order = np.lexsort((np.arange(n), -want))
            assert np.array_equal(positions, order)
            assert scores.tobytes() == want[order].tobytes()
            np.testing.assert_allclose(want, pooled_scores(profile, rows, mix),
                                       rtol=0, atol=TOL)

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
        capacities = set()
        for paper in fresh:
            live.add_paper(paper)
            capacities.add(live._buffer.shape[0])
        # 5 + 12 rows: the pool buffer doubled 8 -> 16 -> 32.
        assert capacities == {8, 16, 32}
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
        assert live._influence.tobytes() == restarted._influence.tobytes()
        restarted.wal.close()


#: A cell near the head of the pool buffer, and the last filled one.
CELLS = {"head": (4, 2), "tail": (-1, -1)}


def _poison(index, part, value):
    row, column = CELLS[part]
    index._buffer[row % index.num_papers, column] = value


class TestSplitStoreHealth:
    @pytest.mark.parametrize("part", sorted(CELLS))
    def test_non_finite_value_is_reported_and_healed(self, artifact, pool,
                                                     part, obs_enabled):
        index = ServingIndex.from_artifact(artifact[0], papers=pool)
        want = index._influence.copy()
        _poison(index, part, np.nan)
        report = index.health(probe=False)
        assert report["checks"]["embeddings"] == {
            "ok": True, "healed": True, "rows": len(pool)}
        counter = obs.get_registry().get("serve.self_heal",
                                         component="influence")
        assert counter is not None and counter.value == 1
        np.testing.assert_allclose(index._influence, want,
                                   rtol=1e-9, atol=TOL)

    @pytest.mark.parametrize("part", sorted(CELLS))
    def test_unhealable_non_finite_value_fails_the_check(self, artifact, pool,
                                                         part, monkeypatch):
        index = ServingIndex.from_artifact(artifact[0], papers=pool)
        _poison(index, part, -np.inf)

        def broken(paper_ids):
            raise RuntimeError("model unavailable")

        monkeypatch.setattr(index, "_influence_rows", broken)
        report = index.health(probe=False)
        assert report["checks"]["embeddings"]["ok"] is False
        assert report["healthy"] is False

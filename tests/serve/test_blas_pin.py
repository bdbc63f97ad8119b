"""Serving and training run BLAS on one thread.

The first :class:`BatchScheduler` pins numpy's bundled OpenBLAS to one
thread and the last one to close restores the previous count; a second
``close()`` releases nothing. Training holds the same pin for its
epochs, and JTIE's profile-text fit for its training loop, and each
restores the count afterwards. Where no OpenBLAS is found the
pin does nothing. Answers do not depend on the thread count: ids and
scores are bit-identical pinned and unpinned, on the exact and
full-probe IVF paths.
"""

import numpy as np
import pytest

import repro.utils.blas as blas_module
from repro.baselines import neural
from repro.nn import Adam, Linear, Tensor
from repro.resilience.checkpoint import run_epochs
from repro.serve import BatchScheduler, ServingIndex
from repro.serve.ann import pooled_scores
from repro.utils.blas import blas_threads, single_threaded_blas

#: The process's count before any test could pin it (read at collection).
DEFAULT_THREADS = blas_threads()

needs_openblas = pytest.mark.skipif(
    DEFAULT_THREADS is None, reason="numpy's bundled OpenBLAS not found")


class FakeBlas:
    """Records every thread count set through the helper."""

    def __init__(self, threads=4):
        self.threads = threads
        self.sets = []

    def get(self):
        return self.threads

    def set(self, threads):
        self.sets.append(threads)
        self.threads = threads


@pytest.fixture
def no_holds(monkeypatch):
    """No live hold, and the real count at its default for the test."""
    monkeypatch.setattr(blas_module, "_blas_pins", 0)
    monkeypatch.setattr(blas_module, "_blas_restore", None)
    blas = blas_module._openblas()
    if blas is None:
        yield
        return
    get, set_ = blas
    before = get()
    set_(DEFAULT_THREADS)
    try:
        yield
    finally:
        set_(before)


@pytest.fixture
def fake_blas(monkeypatch, no_holds):
    fake = FakeBlas()
    monkeypatch.setattr(blas_module, "_openblas",
                        lambda: (fake.get, fake.set))
    return fake


@pytest.fixture
def pool(serve_task):
    return list(serve_task.new_papers)


def _index(artifact, pool, serve_task, **kwargs):
    index = ServingIndex.from_artifact(artifact[0], papers=pool, **kwargs)
    for user in serve_task.users:
        index.register_user(user.author_id, list(user.train_papers))
    return index


class TestPinLifetime:
    @needs_openblas
    @pytest.mark.parametrize("first_closed", [0, 1])
    def test_first_scheduler_pins_and_last_close_restores(
            self, no_holds, artifact, pool, serve_task, first_closed):
        index = _index(artifact, pool, serve_task)
        schedulers = [BatchScheduler(index, start=False) for _ in range(2)]
        assert blas_threads() == 1
        check = index.health(probe=False)["checks"]["scheduler"]
        assert check["blas_threads"] == 1
        schedulers[first_closed].close()
        assert blas_threads() == 1
        schedulers[1 - first_closed].close()
        assert blas_threads() == DEFAULT_THREADS

    def test_pins_once_and_restores_once(self, fake_blas, artifact, pool,
                                         serve_task):
        index = _index(artifact, pool, serve_task)
        with BatchScheduler(index, start=False):
            with BatchScheduler(index, start=False):
                assert fake_blas.threads == 1
            assert fake_blas.threads == 1
        assert fake_blas.sets == [1, 4]

    def test_double_close_does_not_release_twice(self, fake_blas, artifact,
                                                 pool, serve_task):
        index = _index(artifact, pool, serve_task)
        first = BatchScheduler(index, start=False)
        second = BatchScheduler(index, start=False)
        first.close()
        first.close()
        assert fake_blas.threads == 1
        second.close()
        assert fake_blas.threads == 4
        assert fake_blas.sets == [1, 4]

    def test_context_manager_shares_the_schedulers_hold(
            self, fake_blas, artifact, pool, serve_task):
        index = _index(artifact, pool, serve_task)
        with single_threaded_blas():
            scheduler = BatchScheduler(index, start=False)
            assert fake_blas.threads == 1
        assert fake_blas.threads == 1  # the scheduler is still live
        scheduler.close()
        assert fake_blas.sets == [1, 4]

    def test_threaded_scheduler_holds_the_pin(self, fake_blas, artifact,
                                              pool, serve_task):
        index = _index(artifact, pool, serve_task)
        scheduler = BatchScheduler(index, max_wait_ms=0.0)
        user = serve_task.users[0].author_id
        assert scheduler.query(user, 5)
        assert fake_blas.threads == 1
        scheduler.close()
        assert fake_blas.threads == 4


class _History:
    def __init__(self):
        self.losses = []


class TestTrainingPin:
    @staticmethod
    def _train(epochs, during):
        layer = Linear(2, 1, rng=0)
        optimizer = Adam(layer.parameters(), lr=0.1)
        x = Tensor(np.ones((4, 2)))

        def epoch_fn(epoch, order):
            during.append(blas_threads())
            optimizer.zero_grad()
            loss = (layer(x) ** 2).sum()
            loss.backward()
            optimizer.step()
            return (loss.item(),)

        return run_epochs(epoch_fn, _History(), module=layer,
                          optimizer=optimizer, epochs=epochs, n_examples=4,
                          seed=0)

    @needs_openblas
    def test_epochs_run_on_one_thread_and_restore_the_count(self, no_holds):
        during = []
        history = self._train(3, during)
        assert during == [1, 1, 1]
        assert len(history.losses) == 3
        assert blas_threads() == DEFAULT_THREADS

    def test_pins_once_and_restores_after_a_failed_epoch(self, fake_blas):
        during = []

        def failing(epoch, order):
            during.append(fake_blas.threads)
            raise ValueError("boom")

        with pytest.raises(ValueError):
            run_epochs(failing, _History(), module=Linear(2, 1, rng=0),
                       optimizer=Adam(Linear(2, 1, rng=0).parameters()),
                       epochs=2, n_examples=4, seed=0)
        assert during == [1]
        assert fake_blas.sets == [1, 4]

    def test_training_under_a_live_scheduler_keeps_its_pin(
            self, fake_blas, artifact, pool, serve_task):
        index = _index(artifact, pool, serve_task)
        scheduler = BatchScheduler(index, start=False)
        self._train(2, [])
        assert fake_blas.threads == 1
        scheduler.close()
        assert fake_blas.sets == [1, 4]


class TestProfileTextPin:
    """JTIE's profile-text fit holds one thread for its training loop."""

    @staticmethod
    def _fit(monkeypatch, serve_task, read):
        during = []
        real = neural.bilinear_gradients

        def recording(*args):
            during.append(read())
            real(*args)

        monkeypatch.setattr(neural, "bilinear_gradients", recording)
        neural.JTIERecommender(seed=0, epochs=1).fit(
            serve_task.corpus, serve_task.train_papers)
        return during

    @needs_openblas
    def test_fit_runs_on_one_thread_and_restores_the_count(
            self, no_holds, monkeypatch, serve_task):
        during = self._fit(monkeypatch, serve_task, blas_threads)
        assert during and set(during) == {1}
        assert blas_threads() == DEFAULT_THREADS

    def test_pins_once_and_restores_once(self, fake_blas, monkeypatch,
                                         serve_task):
        during = self._fit(monkeypatch, serve_task, fake_blas.get)
        assert during and set(during) == {1}
        assert fake_blas.sets == [1, 4]


class TestNoLibrary:
    def test_lookup_finds_nothing_outside_a_numpy_install(self, monkeypatch,
                                                          tmp_path):
        monkeypatch.setattr(blas_module.np, "__file__",
                            str(tmp_path / "numpy" / "__init__.py"))
        assert blas_module._openblas.__wrapped__() is None

    def test_pin_does_nothing_without_a_library(self, monkeypatch, no_holds,
                                                artifact, pool, serve_task):
        monkeypatch.setattr(blas_module, "_openblas", lambda: None)
        index = _index(artifact, pool, serve_task)
        scheduler = BatchScheduler(index, start=False)
        assert scheduler.stats()["blas_threads"] is None
        assert index.health(probe=False)["checks"]["scheduler"][
            "blas_threads"] is None
        scheduler.close()
        assert blas_module._blas_pins == 0
        monkeypatch.undo()
        # The real count was never touched.
        assert blas_threads() == DEFAULT_THREADS


@needs_openblas
class TestPinnedAnswersBitIdentical:
    @pytest.mark.parametrize("kwargs", [{}, {"index": "ivf", "n_lists": 6}],
                             ids=["exact", "full_probe_ivf"])
    def test_batch_top_k_ids_and_scores(self, no_holds, artifact, pool,
                                        serve_task, kwargs):
        requests = [(u.author_id, k) for u in serve_task.users
                    for k in (5, len(pool))]
        answers = []
        for pinned in (False, True):
            index = _index(artifact, pool, serve_task, **kwargs)
            if kwargs:
                index.set_nprobe(6)
            scheduler = BatchScheduler(index, start=False) if pinned else None
            assert blas_threads() == (1 if pinned else DEFAULT_THREADS)
            answers.append(index.batch_top_k(requests))
            if scheduler is not None:
                scheduler.close()
        for default, single in zip(*answers):
            assert single.error is None and single.cache == "miss"
            assert single.ids == default.ids
            assert single.scores.tobytes() == default.scores.tobytes()

    def test_flush_sized_product_rounds_the_same(self, no_holds):
        # A flush-sized batch of interest rows against a fixture-sized
        # pool: large enough that OpenBLAS splits it across its threads.
        rng = np.random.default_rng(0)
        interest = rng.normal(size=(8, 128))
        rows = rng.normal(size=(773, 128))
        default = pooled_scores(interest, rows, 0.7)
        set_ = blas_module._openblas()[1]
        set_(1)
        single = pooled_scores(interest, rows, 0.7)
        assert single.tobytes() == default.tobytes()

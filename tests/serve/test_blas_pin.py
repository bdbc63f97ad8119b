"""Serving and training run BLAS on one thread.

The first :class:`BatchScheduler` pins numpy's bundled OpenBLAS to one
thread and the last one to close restores the previous count; a second
``close()`` releases nothing. Every :meth:`ServingIndex.batch_top_k`
call takes one hold of its own and releases it on every exit, so a
query scores on one thread with or without a scheduler. Training holds
the same pin for its epochs, and JTIE's profile-text fit for its
training loop, and each restores the count afterwards; so does every
:meth:`ServingIndex.register_user` call, while ingest takes none. Where no
OpenBLAS is found the pin does nothing. Serving answers are
bit-identical with and without a scheduler, on the exact and
full-probe IVF paths. Holds toggled while another thread multiplies
never tear a product: each one comes out as it does on one thread or
on the default pool.
"""

import contextlib
import dataclasses
import threading
import time
from collections import defaultdict

import numpy as np
import pytest

import repro.serve.index as index_module
import repro.utils.blas as blas_module
from repro.baselines import neural
from repro.nn import Adam, Linear, Tensor
from repro.resilience import faults
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


def _forget(fake_blas, holds=None):
    """Drop what registration recorded (one hold per call): the tests
    count the holds that come after it."""
    fake_blas.sets.clear()
    if holds is not None:
        holds.update(pin=0, release=0)


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
        _forget(fake_blas)
        with BatchScheduler(index, start=False):
            with BatchScheduler(index, start=False):
                assert fake_blas.threads == 1
            assert fake_blas.threads == 1
        assert fake_blas.sets == [1, 4]

    def test_double_close_does_not_release_twice(self, fake_blas, artifact,
                                                 pool, serve_task):
        index = _index(artifact, pool, serve_task)
        _forget(fake_blas)
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
        _forget(fake_blas)
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


class TestQueryHold:
    """``batch_top_k`` holds one thread for exactly the length of a call."""

    @pytest.fixture
    def holds(self, monkeypatch, fake_blas):
        """Counts of holds taken and released."""
        counts = {"pin": 0, "release": 0}
        pin, release = blas_module.pin_blas, blas_module.release_blas

        def counting_pin():
            counts["pin"] += 1
            pin()

        def counting_release():
            counts["release"] += 1
            release()

        monkeypatch.setattr(blas_module, "pin_blas", counting_pin)
        monkeypatch.setattr(blas_module, "release_blas", counting_release)
        return counts

    # case -> (threads seen while scoring, what the answer must show)
    CASES = {
        "miss": ([1], lambda r: r.cache == "miss" and len(r.ids) == 5),
        "cache_hit": ([], lambda r: r.cache == "hit"),
        "unknown_user": ([], lambda r: isinstance(r.error, KeyError)),
        "empty_pool": ([], lambda r: r.cache == "miss" and r.ids == []),
        "query_fault": ([], lambda r: r.degraded_reason == "query_fault"),
        "scoring_error": ([1], None),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_one_hold_per_call_released_on_every_exit(
            self, holds, fake_blas, monkeypatch, artifact, pool, serve_task,
            case):
        index = _index(artifact, [] if case == "empty_pool" else pool,
                       serve_task)
        _forget(fake_blas, holds)
        user = serve_task.users[0].author_id
        if case == "cache_hit":
            index.batch_top_k([(user, 5)])
            holds.update(pin=0, release=0)
            fake_blas.sets.clear()
        during = []
        score = index_module.batch_exact_top_k

        def scoring(*args, **kwargs):
            during.append(fake_blas.threads)
            if case == "scoring_error":
                raise RuntimeError("scoring failed")
            return score(*args, **kwargs)

        monkeypatch.setattr(index_module, "batch_exact_top_k", scoring)
        request = ("nobody", 5) if case == "unknown_user" else (user, 5)
        seen, check = self.CASES[case]
        with (faults.inject("serve.query:1.0") if case == "query_fault"
              else contextlib.nullcontext()):
            if check is None:
                with pytest.raises(RuntimeError, match="scoring failed"):
                    index.batch_top_k([request])
            else:
                assert check(index.batch_top_k([request])[0])
        assert during == seen
        assert holds == {"pin": 1, "release": 1}
        assert fake_blas.sets == [1, 4]
        assert blas_module._blas_pins == 0

    def test_register_takes_one_hold_per_call(self, holds, fake_blas,
                                              artifact, pool, serve_task):
        index = _index(artifact, pool[:5], serve_task)
        users = len(serve_task.users)
        assert holds == {"pin": users, "release": users}
        assert fake_blas.sets == [1, 4] * users
        assert blas_module._blas_pins == 0
        assert len(index._profiles) == users

    def test_ingest_takes_no_hold(self, holds, fake_blas, artifact, pool,
                                  serve_task):
        index = _index(artifact, pool[:5], serve_task)
        _forget(fake_blas, holds)
        index.add_paper(dataclasses.replace(pool[6], id="hold-ingest",
                                            references=(), citation_count=0))
        assert holds == {"pin": 0, "release": 0}
        assert fake_blas.sets == []

    @needs_openblas
    def test_query_and_ingest_threads_without_a_scheduler(
            self, no_holds, artifact, pool, serve_task):
        index = _index(artifact, pool, serve_task)
        users = [u.author_id for u in serve_task.users]
        fresh = [dataclasses.replace(pool[i], id=f"hold-race-{i}",
                                     references=(), citation_count=0)
                 for i in range(4)]
        records, positions, failures = [], [], []
        ingested = threading.Event()

        def query():
            try:
                rounds = 0
                while rounds < 2 or not ingested.is_set():
                    for user in users:
                        result = index.batch_top_k([(user, 10)])[0]
                        records.append((result.pool_version, user,
                                        result.ids, result.scores))
                    rounds += 1
            except Exception as exc:  # pragma: no cover - diagnostics
                failures.append(exc)

        def ingest():
            try:
                for paper in fresh:
                    positions.append(index.add_paper(paper))
            except Exception as exc:  # pragma: no cover - diagnostics
                failures.append(exc)
            finally:
                ingested.set()

        threads = [threading.Thread(target=query),
                   threading.Thread(target=ingest)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert blas_threads() == DEFAULT_THREADS
        assert blas_module._blas_pins == 0

        # The serial oracle: a replica takes the same ingests one by one
        # and answers every query at the pool version it was stamped with.
        replica = _index(artifact, pool, serve_task)
        by_version = defaultdict(list)
        for version, user, ids, scores in records:
            by_version[version].append((user, ids, scores))
        assert len(by_version) > 1, "the query never overlapped an ingest"

        def check_current():
            for user, ids, scores in by_version.pop(replica.pool_version,
                                                    ()):
                replica.invalidate()
                want = replica.batch_top_k([(user, 10)])[0]
                assert want.ids == ids
                if scores is not None:  # None: a cache hit
                    assert want.scores.tobytes() == scores.tobytes()

        check_current()
        for paper, position in zip(fresh, positions):
            assert replica.add_paper(paper) == position
            check_current()
        assert not by_version
        live, oracle = index._influence, replica._influence
        assert live.head.tobytes() == oracle.head.tobytes()
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(live.content, name),
                                  getattr(oracle.content, name))


@needs_openblas
class TestHoldsBesideRunningProducts:
    """Holds toggled on one thread while another thread multiplies."""

    def test_products_come_out_whole_and_nothing_crashes(self, no_holds):
        rng = np.random.default_rng(0)
        # 257 x 257 is a shape whose bits differ between one thread and
        # the default pool, so a product torn between counts would show.
        a, b = rng.normal(size=(257, 257)), rng.normal(size=(257, 257))
        with single_threaded_blas():
            single = (a @ b).tobytes()
        default = (a @ b).tobytes()
        products, failures = [], []
        stop = threading.Event()

        def multiply():
            try:
                while not stop.is_set():
                    products.append((a @ b).tobytes() in (single, default))
            except Exception as exc:  # pragma: no cover - diagnostics
                failures.append(exc)

        worker = threading.Thread(target=multiply)
        worker.start()
        deadline = time.monotonic() + 60
        try:
            while len(products) < 200 and time.monotonic() < deadline:
                with single_threaded_blas():
                    pass
        finally:
            stop.set()
            worker.join(timeout=60)
        assert not worker.is_alive()
        assert failures == []
        assert len(products) >= 200
        assert all(products), "a product matched neither thread count"
        assert blas_threads() == DEFAULT_THREADS


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
        _forget(fake_blas)
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

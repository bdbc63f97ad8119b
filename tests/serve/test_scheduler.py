"""Concurrency test wall for the micro-batching scheduler.

The scheduler's contract is *bit-identical equivalence*: every response
produced by :class:`BatchScheduler` — whatever the batch it rode in,
whatever the thread interleaving — must match a serial oracle exactly,
ids **and** scores, across the exact and IVF strategies, with cache
hits, cache misses, and degraded-user requests mixed into the same
batches. Serial :meth:`ServingIndex.top_k` is itself a batch of one, so
the oracle checks its ids against the reference rankers
(:func:`batch_exact_top_k` as a batch of one, :func:`rank_candidates`). The stress tests
then race ``add_paper`` and ``set_nprobe`` against batched queries and
replay every response against a fresh replica index driven to the same
pool version, proving no request was dropped, torn, or answered from a
state that never existed.

Determinism note: a receptive field is a gather over the model's fixed
neighbour tables, so recomputing any row is pure and batched answers
must land on identical bits whatever ran before. Ingest commits are the
only table draws (the new entities' rows) and happen in mutator order
under the lock.
"""

import dataclasses
import random
import threading
from collections import defaultdict

import numpy as np
import pytest

import repro.serve.index as index_module
from repro.errors import GraphError
from repro.resilience import faults
from repro.serve import BatchScheduler, ServingIndex
from repro.serve.ann import batch_exact_top_k, rank_candidates
from repro.serve.scheduler import SheddingGovernor


def _clone(paper, new_id):
    return dataclasses.replace(paper, id=new_id, references=(),
                               citation_count=0)


def _build_index(artifact, pool, kind, **kwargs):
    extra = {"index": "ivf", "nprobe": 4} if kind == "ivf" else {}
    extra.update(kwargs)
    return ServingIndex.from_artifact(artifact[0], papers=pool, **extra)


def _register(index, serve_task, n=4):
    users = serve_task.users[:n]
    for user in users:
        index.register_user(user.author_id, list(user.train_papers))
    return [user.author_id for user in users]


def _oracle(index, user, k):
    """Serial (ids, scores) for one request.

    Ids come from the public serial path; scores are recomputed through
    the scored rankers at exactly the serial call shapes. Degraded
    requests (unknown entities) return ``(ids, None)`` — the fallback
    has no model scores to compare.
    """
    ids = index.top_k(user, k)
    if isinstance(user, str):
        papers, profile = index._profiles[user]
    else:
        papers, profile = list(user), None
    if profile is not None:
        interest = profile
    else:
        try:
            interest = index._recommender.model.interest_vectors(
                [p.id for p in papers]).data
        except GraphError:
            return ids, None
    cfg = index._recommender.config
    if index.index_kind == "ivf":
        ann = index._ensure_ann()
        candidates, _ = ann.gather(interest, cfg.max_pool_mix, index.nprobe)
        positions, scores = rank_candidates(
            interest, index._influence, candidates, k, mix=cfg.max_pool_mix,
            block_size=index.block_size)
    else:
        ((positions, scores),) = batch_exact_top_k(
            [interest], index._influence, [k], mix=cfg.max_pool_mix,
            block_size=index.block_size)
    assert ids == [index.paper_ids[int(p)] for p in positions]
    return ids, scores


class TestBatchedEqualsSerial:
    """Satellite 1: seeded multi-thread equivalence, exact and IVF."""

    @pytest.mark.parametrize("kind,n_threads", [
        ("exact", 2), ("exact", 5), ("exact", 16),
        ("ivf", 3), ("ivf", 8),
    ])
    def test_every_response_is_bit_identical(self, artifact, serve_task,
                                             kind, n_threads):
        pool = list(serve_task.new_papers)
        index = _build_index(artifact, pool, kind)
        user_ids = _register(index, serve_task)
        degraded_user = [_clone(pool[0], "scheduler-unknown-paper")]

        rng = random.Random(1234 + 17 * n_threads + (kind == "ivf"))
        ks = (1, 3, 10, 17)
        requests = []
        for _ in range(60):
            if rng.random() < 0.85:
                requests.append((rng.choice(user_ids), rng.choice(ks)))
            else:
                # Unknown-entity request: degrades to TF-IDF inside the
                # same batches as modelled requests.
                requests.append(("degraded", rng.choice((3, 10))))

        def target(name):
            return degraded_user if name == "degraded" else name

        oracle = {}
        for name, k in requests:
            if (name, k) not in oracle:
                oracle[(name, k)] = _oracle(index, target(name), k)
        index.invalidate()

        results = [None] * len(requests)
        failures = []
        # A governor that cannot trip: a shed answer is deliberately a
        # different (fallback) ranking, and this test asserts exact
        # model-path equivalence on every response.
        scheduler = BatchScheduler(index, max_batch=6, max_wait_ms=20.0,
                                   queue_depth=256,
                                   governor=SheddingGovernor(threshold=100.0))

        def worker(tid):
            try:
                for i in range(tid, len(requests), n_threads):
                    name, k = requests[i]
                    results[i] = scheduler.submit(
                        target(name), k).result(timeout=60)
            except Exception as exc:  # pragma: no cover - diagnostics
                failures.append(exc)

        threads = [threading.Thread(target=worker, args=(tid,))
                   for tid in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(t.is_alive() for t in threads), "worker deadlocked"
        scheduler.close()
        assert failures == []

        outcomes = set()
        for i, (name, k) in enumerate(requests):
            ids, scores = oracle[(name, k)]
            ticket = results[i]
            assert ticket is not None, f"request {i} dropped"
            assert not ticket.shed
            assert ticket.ids == ids, (i, name, k)
            outcomes.add(ticket.cache)
            if ticket.scores is not None and scores is not None:
                # Bit-identical, not approximately equal.
                assert np.array_equal(np.asarray(ticket.scores), scores)
        # Duplicated (user, k) pairs guarantee both paths interleaved.
        assert "miss" in outcomes and "hit" in outcomes
        stats = scheduler.stats()
        assert stats["submitted"] == len(requests)
        assert stats["shed"] == 0
        assert stats["queue_depth"] == 0

    @pytest.mark.parametrize("kind", ["exact", "ivf"])
    def test_burst_behind_a_running_batch_still_batches(self, artifact,
                                                        serve_task, kind):
        # A request admitted idle flushes at once; a burst that arrives
        # while its batch runs queues behind it and rides one batch.
        pool = list(serve_task.new_papers)
        index = _build_index(artifact, pool, kind)
        requests = [(user, k) for user in _register(index, serve_task)
                    for k in (3, 10)]
        oracle = {request: _oracle(index, *request) for request in requests}
        index.invalidate()
        started, release = threading.Event(), threading.Event()

        def held(batch):
            started.set()
            release.wait(30)
            return ServingIndex.batch_top_k(index, batch)

        index.batch_top_k = held
        scheduler = BatchScheduler(index, max_batch=len(requests) - 1,
                                   max_wait_ms=1000.0,
                                   governor=SheddingGovernor(threshold=100.0))
        try:
            first = scheduler.submit(*requests[0])
            assert started.wait(30)           # flushed without lingering
            del index.batch_top_k
            burst = [None] * (len(requests) - 1)

            def submit(i):
                burst[i] = scheduler.submit(*requests[i + 1])

            threads = [threading.Thread(target=submit, args=(i,))
                       for i in range(len(burst))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            release.set()
            tickets = [first] + burst
            for ticket in tickets:
                ticket.result(timeout=60)
            stats = scheduler.stats()
        finally:
            release.set()
            scheduler.close()
        # The burst filled max_batch behind the running batch: two
        # flushes for eight requests, the second one lingered.
        assert stats["batches"] == 2 and stats["lingered_batches"] == 1
        for request, ticket in zip(requests, tickets):
            ids, scores = oracle[request]
            assert ticket.cache == "miss" and ticket.ids == ids
            assert np.array_equal(np.asarray(ticket.scores), scores)

    def test_batch_of_duplicates_dedups_but_answers_all(self, artifact,
                                                        serve_task):
        pool = list(serve_task.new_papers)
        index = _build_index(artifact, pool, "exact")
        user_ids = _register(index, serve_task, n=2)
        expected, _ = _oracle(index, user_ids[0], 5)
        index.invalidate()
        misses_before = index.cache_misses
        out = index.batch_top_k([(user_ids[0], 5)] * 4)
        assert [r.ids for r in out] == [expected] * 4
        # One computation served all four co-riders.
        assert index.cache_misses == misses_before + 4
        assert all(r.cache == "miss" for r in out)

    def test_per_request_errors_do_not_fail_the_batch(self, artifact,
                                                      serve_task):
        pool = list(serve_task.new_papers)
        index = _build_index(artifact, pool, "exact")
        user_ids = _register(index, serve_task, n=2)
        expected, _ = _oracle(index, user_ids[0], 5)
        index.invalidate()
        out = index.batch_top_k([
            (user_ids[0], 5),
            ("nobody", 5),
            (user_ids[0], 0),
        ])
        assert out[0].ids == expected
        assert isinstance(out[1].error, KeyError)
        assert isinstance(out[2].error, ValueError)

        scheduler = BatchScheduler(index, max_batch=4, max_wait_ms=1.0)
        with pytest.raises(KeyError, match="not registered"):
            scheduler.submit("nobody", 5).result(timeout=30)
        assert scheduler.query(user_ids[0], 5) == expected
        scheduler.close()


class TestIngestRaces:
    """Satellite 2: queries racing ingestion, replayed by pool version."""

    @pytest.mark.parametrize("kind", ["exact", "ivf"])
    def test_no_torn_reads_under_concurrent_ingest(self, artifact,
                                                   serve_task, kind):
        pool = list(serve_task.new_papers)
        index = _build_index(artifact, pool, kind)
        user_ids = _register(index, serve_task)
        probe = [_clone(pool[1], "stress-unknown-probe")]
        fresh = [_clone(pool[i % len(pool)], f"stress-ingest-{i}")
                 for i in range(5)]
        # No shedding in this test: a shed answer is a *different*
        # (fallback) ranking and would fail the replica comparison.
        governor = SheddingGovernor(threshold=100.0)
        scheduler = BatchScheduler(index, max_batch=5, max_wait_ms=10.0,
                                   queue_depth=512, governor=governor)

        rng = random.Random(99)
        plans = [[("query", rng.choice(user_ids), rng.choice((5, 10)))
                  if rng.random() < 0.8 else ("probe", None, 5)
                  for _ in range(24)]
                 for _ in range(3)]
        records = []
        record_lock = threading.Lock()
        failures = []

        def querier(plan):
            try:
                for kind_, user, k in plan:
                    who = probe if kind_ == "probe" else user
                    ticket = scheduler.submit(who, k).result(timeout=60)
                    with record_lock:
                        records.append((ticket.pool_version, kind_, user, k,
                                        list(ticket.ids)))
            except Exception as exc:  # pragma: no cover - diagnostics
                failures.append(exc)

        mutations = []  # committed mutator ops, in order

        def mutator():
            try:
                for i, paper in enumerate(fresh):
                    index.add_paper(paper)
                    mutations.append(("ingest", paper))
                    if kind == "ivf" and i == 2:
                        index.set_nprobe(6)  # retune mid-flight
                        mutations.append(("nprobe", 6))
            except Exception as exc:  # pragma: no cover - diagnostics
                failures.append(exc)

        threads = [threading.Thread(target=querier, args=(p,))
                   for p in plans] + [threading.Thread(target=mutator)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=180)
        assert not any(t.is_alive() for t in threads), "deadlock"
        scheduler.close()
        assert failures == []
        assert scheduler.stats()["shed"] == 0
        assert len(records) == sum(len(p) for p in plans)  # nothing dropped

        # Replay: drive a replica through the same committed mutation
        # sequence; every response must match the replica at exactly the
        # pool version it was stamped with — pre- or post-ingest state,
        # never a torn mix of the two.
        replica = _build_index(artifact, pool, kind)
        _register(replica, serve_task)
        by_version = defaultdict(list)
        for version, kind_, user, k, ids in records:
            by_version[version].append((kind_, user, k, ids))
        versions_seen = set(by_version)

        def check_current():
            for kind_, user, k, ids in by_version.pop(
                    replica.pool_version, ()):
                who = probe if kind_ == "probe" else user
                assert replica.top_k(who, k) == ids, \
                    (replica.pool_version, kind_, user, k)

        check_current()
        for op, payload in mutations:
            if op == "ingest":
                replica.add_paper(payload)
            else:
                replica.set_nprobe(payload)
            check_current()
        assert not by_version, \
            f"responses stamped with unreachable versions: {set(by_version)}"
        assert versions_seen - {replica.pool_version}, \
            "every response saw the final pool: the race never interleaved"

    def test_swap_during_scoring_cannot_tear_ids(self, artifact, serve_task,
                                                 monkeypatch):
        # Scoring runs with the lock released. An _adopt that lands in
        # that window rebinds the index's id list; the answer must still
        # map positions through the ids of the matrix it scored.
        pool = list(serve_task.new_papers)
        live = _build_index(artifact, pool, "exact", cache_size=1)
        donor = _build_index(artifact, list(reversed(pool)), "exact")
        user = _register(live, serve_task, n=1)[0]
        expected = live.batch_top_k([(user, 10)])[0].ids
        live.invalidate()

        original = index_module.batch_exact_top_k

        def swap_then_score(*args, **kwargs):
            live._adopt(donor)
            return original(*args, **kwargs)

        monkeypatch.setattr(index_module, "batch_exact_top_k",
                            swap_then_score)
        result = live.batch_top_k([(user, 10)])[0]
        assert result.ids == expected
        # The pool version moved under the batch, so nothing was cached.
        assert live.pool_version > result.pool_version
        assert (user, 10) not in live._cache

    def test_duplicate_concurrent_ingest_commits_exactly_once(self, artifact,
                                                              serve_task):
        pool = list(serve_task.new_papers)
        index = _build_index(artifact, pool, "exact")
        paper = _clone(pool[0], "dup-ingest-race")
        outcomes = []
        barrier = threading.Barrier(2)

        def ingest():
            barrier.wait()
            try:
                outcomes.append(("ok", index.add_paper(paper)))
            except ValueError as exc:
                outcomes.append(("dup", str(exc)))

        threads = [threading.Thread(target=ingest) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert sorted(o[0] for o in outcomes) == ["dup", "ok"]
        assert index.paper_ids.count(paper.id) == 1


class TestFaultInjection:
    """Fault-injected batches degrade per-request and never cache."""

    def test_query_fault_degrades_batch_and_is_not_cached(self, artifact,
                                                          serve_task):
        pool = list(serve_task.new_papers)
        index = _build_index(artifact, pool, "exact")
        user_ids = _register(index, serve_task, n=2)
        healthy, _ = _oracle(index, user_ids[0], 5)
        index.invalidate()
        with faults.inject("serve.query:1.0"):
            degraded = index.top_k(user_ids[0], 5)  # serial fault oracle
            index.invalidate()
            out = index.batch_top_k([(user_ids[0], 5)])
        assert out[0].ids == degraded
        assert out[0].degraded_reason == "query_fault"
        # Not cached: the next healthy batch recomputes the model answer.
        out = index.batch_top_k([(user_ids[0], 5)])
        assert out[0].cache == "miss"
        assert out[0].ids == healthy

    def test_scheduler_survives_faulted_flushes(self, artifact, serve_task):
        pool = list(serve_task.new_papers)
        index = _build_index(artifact, pool, "exact")
        user_ids = _register(index, serve_task, n=2)
        healthy, _ = _oracle(index, user_ids[1], 5)
        index.invalidate()
        scheduler = BatchScheduler(index, max_batch=4, max_wait_ms=1.0)
        with faults.inject("serve.query:1.0"):
            ticket = scheduler.submit(user_ids[1], 5).result(timeout=30)
            assert ticket.degraded_reason == "query_fault"
        # Fault cleared: same scheduler, healthy model answer again.
        assert scheduler.query(user_ids[1], 5) == healthy
        scheduler.close()


class TestHealthSaturation:
    """Satellite 4: health() reports scheduler state and saturation."""

    def test_health_reports_and_flags_saturated_queue(self, artifact,
                                                      serve_task):
        pool = list(serve_task.new_papers)
        index = _build_index(artifact, pool, "exact")
        user_ids = _register(index, serve_task, n=2)
        scheduler = BatchScheduler(index, max_batch=8, max_wait_ms=1000.0,
                                   queue_depth=2, start=False)
        baseline = index.health(probe=False)
        check = baseline["checks"]["scheduler"]
        assert check["ok"] and not check["saturated"]
        assert check["queue_capacity"] == 2
        assert baseline["healthy"]

        scheduler.submit(user_ids[0], 5)
        scheduler.submit(user_ids[0], 7)
        saturated = index.health(probe=False)
        check = saturated["checks"]["scheduler"]
        assert check["saturated"] and not check["ok"]
        assert check["queue_depth"] == 2
        assert not saturated["healthy"]

        scheduler.close()  # drains the queue and detaches
        assert index.scheduler is None
        assert "scheduler" not in index.health(probe=False)["checks"]

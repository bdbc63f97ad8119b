"""Deterministic flush-policy and shedding tests (FakeClock-driven).

These tests run the scheduler in manual mode (``start=False`` + explicit
:meth:`BatchScheduler.pump`) against a cheap degraded index, with a
:class:`FakeClock` shared between the scheduler and its governor — the
flush and shedding decisions become pure functions of the clock, so the
policy (a request admitted idle flushes at once, one queued behind a
running batch flushes at max-wait or when its batch fills, queue
overflow sheds with a traced event, SLO burn sheds and recovers) is
asserted exactly. A running batch is held mid-flush in a second thread
(:func:`_batch_in_flight`); nothing else runs in the background.
"""

import contextlib
import sys
import threading
import time

import pytest

from repro import obs
from tests.helpers import FakeClock
from repro.serve import BatchScheduler, ServingIndex
from repro.serve.scheduler import SheddingGovernor


@pytest.fixture
def pool(serve_task):
    return list(serve_task.new_papers)


@pytest.fixture
def index(pool, serve_task):
    """Degraded (TF-IDF only) index: the policy layer under test is
    identical to the modelled path, and skipping the artifact load keeps
    these tests in milliseconds."""
    idx = ServingIndex(None, papers=pool)
    for user in serve_task.users[:3]:
        idx.register_user(user.author_id, list(user.train_papers))
    return idx


@pytest.fixture
def users(serve_task):
    return [u.author_id for u in serve_task.users[:3]]


def _manual(index, clock, **kwargs):
    kwargs.setdefault("governor", SheddingGovernor(threshold=100.0,
                                                   clock=clock))
    return BatchScheduler(index, clock=clock, start=False, **kwargs)


@contextlib.contextmanager
def _batch_in_flight(scheduler, index, user, k=1):
    """Run the body while a batch is in flight: one request admitted
    idle is pumped in a second thread, its scoring held on an event
    until the body exits. Requests the body admits queue behind it."""
    started, release = threading.Event(), threading.Event()

    def held(requests):
        started.set()
        release.wait(5)
        return ServingIndex.batch_top_k(index, requests)

    index.batch_top_k = held
    ticket = scheduler.submit(user, k)
    flusher = threading.Thread(target=scheduler.pump)
    flusher.start()
    try:
        assert started.wait(5)
        del index.batch_top_k                 # later batches run unheld
        assert scheduler.stats()["in_flight"] == 1
        yield
    finally:
        release.set()
        flusher.join(5)
    assert ticket.result(timeout=1).done


class TestFlushPolicy:
    def test_idle_lone_request_is_due_at_once(self, index, users):
        clock = FakeClock()
        scheduler = _manual(index, clock, max_batch=8, max_wait_ms=5.0)
        ticket = scheduler.submit(users[0], 5)
        # Nothing queued or in flight when it arrived: no co-rider can
        # be gathering behind a running batch, so it does not linger.
        assert scheduler.pump() == 1
        assert clock() == 0.0
        assert ticket.result(timeout=1).ids == index.top_k(users[0], 5)
        assert scheduler.stats()["lingered_batches"] == 0
        scheduler.close()

    def test_lone_request_flushes_at_max_wait(self, index, users):
        clock = FakeClock()
        scheduler = _manual(index, clock, max_batch=8, max_wait_ms=5.0)
        with _batch_in_flight(scheduler, index, users[1]):
            ticket = scheduler.submit(users[0], 5)
            assert scheduler.pump() == 0      # not due yet
        # The running batch finishing does not make it due either.
        assert scheduler.pump() == 0
        clock.advance(0.004)
        assert scheduler.pump() == 0          # 4ms < max_wait
        clock.advance(0.001)
        assert scheduler.pump() == 1          # exactly max-wait-ms old
        assert ticket.result(timeout=1).ids == index.top_k(users[0], 5)
        assert scheduler.stats()["lingered_batches"] == 1
        scheduler.close()

    def test_full_batch_flushes_immediately(self, index, users):
        clock = FakeClock()
        scheduler = _manual(index, clock, max_batch=3, max_wait_ms=1000.0)
        with _batch_in_flight(scheduler, index, users[0]):
            tickets = [scheduler.submit(users[i % len(users)], 5 + i)
                       for i in range(3)]
            # No clock advance at all: the batch is full, so it is due
            # now although it queued behind a running batch.
            assert scheduler.pump() == 3
        for ticket in tickets:
            assert ticket.result(timeout=1).done
        assert scheduler.stats()["lingered_batches"] == 1
        scheduler.close()

    def test_flush_that_empties_the_queue_returns_to_idle(self, index,
                                                          users):
        clock = FakeClock()
        scheduler = _manual(index, clock, max_batch=8, max_wait_ms=5.0)
        with _batch_in_flight(scheduler, index, users[1]):
            scheduler.submit(users[0], 5)
        clock.advance(0.005)
        assert scheduler.pump() == 1          # the linger rule's flush
        assert scheduler.stats()["in_flight"] == 0
        # Queue empty, nothing in flight: the next request is due at
        # once again, and does not count as lingered.
        ticket = scheduler.submit(users[2], 5)
        assert scheduler.pump() == 1
        assert ticket.result(timeout=1).done
        check = index.health(probe=False)["checks"]["scheduler"]
        assert check["batches"] == 3 and check["lingered_batches"] == 1
        scheduler.close()

    def test_overflow_beyond_max_batch_stays_queued(self, index, users):
        clock = FakeClock()
        scheduler = _manual(index, clock, max_batch=2, max_wait_ms=1000.0,
                            queue_depth=16)
        tickets = [scheduler.submit(users[0], 3 + i) for i in range(5)]
        assert scheduler.pump() == 2
        assert scheduler.pump() == 2
        assert scheduler.stats()["queue_depth"] == 1
        assert scheduler.pump() == 0          # lone leftover, not aged yet
        clock.advance(1.0)
        assert scheduler.pump() == 1
        assert all(t.done for t in tickets)
        scheduler.close()

    def test_flush_span_records_size_and_wait_max(self, index, users,
                                                   obs_enabled):
        clock = FakeClock()
        scheduler = _manual(index, clock, max_batch=8, max_wait_ms=5.0)
        scheduler.submit(users[0], 5)
        clock.advance(0.002)
        scheduler.submit(users[1], 5)
        clock.advance(0.003)
        assert scheduler.pump() == 2
        (span,) = [s for s in obs.get_tracer().spans
                   if s.name == "serve.batch.flush"]
        assert span.attrs["size"] == 2
        assert span.attrs["wait_max"] == pytest.approx(0.005)
        # The span is the batch shape's only record.
        kinds = {m.kind for m in obs.get_registry().collect()}
        assert "histogram" not in kinds
        assert not [m for m in obs.get_registry().collect()
                    if m.name.startswith("serve.batch.")]
        scheduler.close()

    def test_cache_hits_bypass_the_queue(self, index, users):
        clock = FakeClock()
        scheduler = _manual(index, clock, max_batch=8, max_wait_ms=5.0)
        first = scheduler.submit(users[0], 5)
        clock.advance(0.005)
        scheduler.pump()
        first.result(timeout=1)
        # Same (user, k): resolves instantly from the cache, no queue
        # slot, no pump needed.
        again = scheduler.submit(users[0], 5)
        assert again.done and again.cache == "hit"
        assert again.ids == first.ids
        assert scheduler.stats()["queue_depth"] == 0
        assert scheduler.stats()["cache_fast_hits"] == 1
        scheduler.close()


class TestShedding:
    def test_queue_full_sheds_with_traced_event(self, index, users,
                                                obs_enabled):
        clock = FakeClock()
        scheduler = _manual(index, clock, max_batch=8, max_wait_ms=1000.0,
                            queue_depth=2)
        queued = [scheduler.submit(users[0], 5), scheduler.submit(users[1], 5)]
        shed = scheduler.submit(users[2], 5)
        assert shed.done and shed.shed and shed.shed_reason == "queue_full"
        assert shed.cache == "shed"
        # The shed answer is the TF-IDF fallback, served immediately.
        assert shed.ids == index.top_k(users[2], 5)
        assert not any(t.done for t in queued)

        counter = obs.get_registry().get("serve.shed", reason="queue_full")
        assert counter is not None and counter.value == 1
        degraded = obs.get_registry().get("serve.degraded", reason="shed")
        assert degraded is not None and degraded.value == 1
        shed_events = [e for e in obs.events()
                       if e.get("type") == "event"
                       and e.get("name") == "serve.shed"]
        assert len(shed_events) == 1
        assert shed_events[0]["reason"] == "queue_full"
        assert shed_events[0]["trace_id"]  # joined to a real trace
        scheduler.close()

    def test_slo_burn_sheds_then_recovers(self, index, users):
        clock = FakeClock()
        governor = SheddingGovernor(threshold=0.25, window=5.0, budget=0.05,
                                    min_samples=3, clock=clock)
        scheduler = BatchScheduler(index, max_batch=8, max_wait_ms=5.0,
                                   queue_depth=16, governor=governor,
                                   clock=clock, start=False)
        # Three slow requests: queued, then the clock jumps past the
        # latency SLO before the flush, so every recorded latency burns.
        tickets = [scheduler.submit(users[i], 3) for i in range(3)]
        clock.advance(0.3)
        assert scheduler.pump() == 3
        for ticket in tickets:
            assert ticket.result(timeout=1).done
        assert governor.burning()
        assert scheduler.stats()["shedding"]

        shed = scheduler.submit(users[0], 9)
        assert shed.shed and shed.shed_reason == "slo_burn"
        assert shed.ids == index.top_k(users[0], 9)

        # Recovery is passive: the burn window ages out and admission
        # resumes — no operator action, no reset call.
        clock.advance(5.1)
        assert not governor.burning()
        normal = scheduler.submit(users[0], 11)
        assert not normal.done and not normal.shed
        assert scheduler.pump() == 1          # admitted idle: due at once
        assert normal.result(timeout=1).ids == index.top_k(users[0], 11)
        assert scheduler.stats()["shed_by_reason"] == {"slo_burn": 1}
        scheduler.close()

    def test_cache_hits_resolve_even_while_shedding(self, index, users):
        clock = FakeClock()
        governor = SheddingGovernor(threshold=0.1, min_samples=1, clock=clock)
        scheduler = BatchScheduler(index, max_batch=4, max_wait_ms=5.0,
                                   queue_depth=4, governor=governor,
                                   clock=clock, start=False)
        first = scheduler.submit(users[0], 5)
        clock.advance(0.2)                    # slow flush -> burning
        scheduler.pump()
        first.result(timeout=1)
        assert governor.burning()
        hit = scheduler.submit(users[0], 5)
        assert hit.done and hit.cache == "hit" and not hit.shed
        miss = scheduler.submit(users[1], 5)
        assert miss.shed and miss.shed_reason == "slo_burn"
        scheduler.close()


class TestGovernor:
    def test_needs_min_samples_before_burning(self):
        clock = FakeClock()
        governor = SheddingGovernor(threshold=0.1, min_samples=5,
                                    budget=0.0, clock=clock)
        for _ in range(4):
            governor.record(1.0)
        assert not governor.burning()         # evidence too thin
        governor.record(1.0)
        assert governor.burning()

    def test_budget_tolerates_a_slow_minority(self):
        clock = FakeClock()
        governor = SheddingGovernor(threshold=0.1, min_samples=4,
                                    budget=0.5, clock=clock)
        for latency in (0.01, 0.01, 0.01, 1.0):
            governor.record(latency)
        assert not governor.burning()         # 25% slow <= 50% budget
        governor.record(1.0)
        governor.record(1.0)
        # Exactly at budget (3/6 == 50%) does not burn; one more slow
        # sample tips it over.
        assert not governor.burning()
        governor.record(1.0)
        assert governor.burning()             # 4/7 slow > 50% budget

    def test_validation(self):
        with pytest.raises(ValueError, match="threshold"):
            SheddingGovernor(threshold=0.0)
        with pytest.raises(ValueError, match="budget"):
            SheddingGovernor(budget=1.0)
        with pytest.raises(ValueError, match="min_samples"):
            SheddingGovernor(min_samples=0)


class TestLifecycle:
    def test_close_drains_pending_tickets(self, index, users):
        clock = FakeClock()
        scheduler = _manual(index, clock, max_batch=8, max_wait_ms=1000.0)
        with _batch_in_flight(scheduler, index, users[0]):
            tickets = [scheduler.submit(users[i], 4) for i in range(3)]
        assert scheduler.pump() == 0          # nothing due...
        scheduler.close()                     # ...until close drains
        for ticket in tickets:
            assert ticket.result(timeout=1).done
        with pytest.raises(RuntimeError, match="closed"):
            scheduler.submit(users[0], 4)

    def test_close_without_drain_fails_queued(self, index, users):
        clock = FakeClock()
        scheduler = _manual(index, clock, max_batch=8, max_wait_ms=1000.0)
        ticket = scheduler.submit(users[0], 4)
        scheduler.close(drain=False)
        with pytest.raises(RuntimeError, match="before flush"):
            ticket.result(timeout=1)

    def test_submit_racing_close_raises_instead_of_stranding(self, index,
                                                             users):
        # A submit that enters while close() is tearing the scheduler
        # down must raise — enqueueing after the flusher drained would
        # strand a ticket that never resolves. The quiesce park is the
        # window: the submit waits inside the lock, close() flips
        # _closed, and the woken submit must re-check it.
        clock = FakeClock()
        scheduler = _manual(index, clock, max_batch=8, max_wait_ms=1000.0)
        with scheduler._cv:
            scheduler._quiesced = True  # hold the submit in the park loop
        outcome = []

        def late_submit():
            try:
                outcome.append(scheduler.submit(users[0], 4))
            except RuntimeError as exc:
                outcome.append(exc)

        thread = threading.Thread(target=late_submit)
        thread.start()
        time.sleep(0.05)                      # the submit is parked
        assert not outcome
        scheduler.close()                     # races the parked submit
        thread.join(timeout=5)
        assert len(outcome) == 1
        assert isinstance(outcome[0], RuntimeError)
        assert "closed" in str(outcome[0])

    def test_close_joins_promptly_after_an_idle_stretch(self, index,
                                                       users):
        scheduler = BatchScheduler(index, max_batch=8, max_wait_ms=2.0)
        ticket = scheduler.submit(users[0], 5).result(timeout=5)
        assert ticket.ids == index.top_k(users[0], 5)
        time.sleep(0.2)                       # the flusher blocks, idle
        started = time.monotonic()
        scheduler.close()
        assert time.monotonic() - started < 1.0
        assert not scheduler._thread.is_alive()

    def test_no_request_is_stranded_under_contention(self, index, users):
        # The idle flusher waits with no timeout, so a lost wake-up
        # would strand a queued request for good: many submitters, a
        # short switch interval, and every ticket must still resolve.
        scheduler = BatchScheduler(index, max_batch=4, max_wait_ms=1.0,
                                   queue_depth=256,
                                   governor=SheddingGovernor(threshold=100.0))
        tickets, failures = [], []

        def client(tid):
            try:
                for i in range(25):
                    tickets.append(scheduler.submit(users[(tid + i) % 3],
                                                    1 + (tid * 25 + i) % 40))
                    if i % 5 == 0:
                        time.sleep(0.001)     # idle gaps between bursts
            except Exception as exc:  # pragma: no cover - diagnostics
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=client, args=(tid,))
                       for tid in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            for ticket in tickets:
                ticket.result(timeout=10)
        finally:
            sys.setswitchinterval(interval)
            scheduler.close()
        assert failures == [] and len(tickets) == 200
        stats = scheduler.stats()
        assert stats["queue_depth"] == 0 and stats["in_flight"] == 0
        assert 0 <= stats["lingered_batches"] <= stats["batches"]

    def test_context_manager_and_validation(self, index, users):
        with BatchScheduler(index, max_batch=2, max_wait_ms=2.0) as scheduler:
            assert index.scheduler is scheduler
            assert scheduler.query(users[0], 5) == index.top_k(users[0], 5)
        assert index.scheduler is None
        with pytest.raises(ValueError, match="max_batch"):
            BatchScheduler(index, max_batch=0)
        with pytest.raises(ValueError, match="queue_depth"):
            BatchScheduler(index, queue_depth=0)


class TestQuiesce:
    def test_barrier_drains_queued_requests_first(self, index, users):
        clock = FakeClock()
        scheduler = _manual(index, clock, max_batch=8, max_wait_ms=1000.0)
        with _batch_in_flight(scheduler, index, users[0]):
            tickets = [scheduler.submit(users[i], 4) for i in range(3)]
        assert scheduler.pump() == 0          # not due under normal policy
        with scheduler.quiesce(timeout=5):
            # Entering the barrier made the queue due and drained it
            # inline (manual mode): nothing is queued or in flight.
            assert all(t.done for t in tickets)
            assert scheduler.stats()["queue_depth"] == 0
            assert scheduler.stats()["in_flight"] == 0
            assert scheduler.stats()["quiesced"]
        assert not scheduler.stats()["quiesced"]
        scheduler.close()

    def test_new_misses_park_until_the_barrier_lifts(self, index, users):
        clock = FakeClock()
        scheduler = _manual(index, clock, max_batch=8, max_wait_ms=0.0)
        parked = []

        with scheduler.quiesce(timeout=5):
            thread = threading.Thread(
                target=lambda: parked.append(scheduler.submit(users[0], 4)))
            thread.start()
            time.sleep(0.05)
            # Parked: neither admitted, failed, nor shed — it waits for
            # whichever index state wins the swap.
            assert not parked
            assert scheduler.stats()["queue_depth"] == 0
        thread.join(timeout=5)
        assert len(parked) == 1 and not parked[0].shed
        assert scheduler.pump() == 1          # max_wait 0: due immediately
        assert parked[0].result(timeout=1).ids == index.top_k(users[0], 4)
        scheduler.close()

    def test_cache_hits_flow_through_the_barrier(self, index, users):
        clock = FakeClock()
        scheduler = _manual(index, clock, max_batch=8, max_wait_ms=0.0)
        warm = scheduler.submit(users[0], 5)
        scheduler.pump()
        warm.result(timeout=1)
        with scheduler.quiesce(timeout=5):
            hit = scheduler.submit(users[0], 5)
            assert hit.done and hit.cache == "hit"
            assert hit.ids == warm.ids
        scheduler.close()

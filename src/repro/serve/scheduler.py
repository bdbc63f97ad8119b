"""Micro-batching request scheduler with admission control.

:meth:`ServingIndex.top_k` answers one query per call, as a batch of
one, so concurrent callers each pay their own pass over the pool.
:class:`BatchScheduler` coalesces concurrent queries into single
batched matrix passes on the rank hot path (the ``BatchPairScorer``
pattern applied to serving): requests admit into a bounded queue, a
background flusher drains them in batches of up to ``max_batch``, and
each batch runs through :meth:`ServingIndex.batch_top_k`, which
releases the serving lock during the pure-numpy scoring phase.

The flush rule is work-conserving. A request admitted while no batch
is queued or in flight is due at once: nothing is running that
co-riders could pile up behind, so lingering would only add latency.
Requests that queue behind a running batch flush when ``max_batch`` of
them are queued, or once the oldest has waited ``max_wait_ms``; this
is where batches form under load. Batched answers are
bit-identical to serial execution (ids *and* scores); the equivalence
suite in ``tests/serve/test_scheduler.py`` proves it rather than
assuming it.

Admission control is three-tiered, cheapest first:

1. **Cache fast path** — a query whose ``(user, k)`` is in the LRU
   cache resolves immediately (no queue slot, no batch, no shedding),
   via :meth:`ServingIndex.cached_top_k`.
2. **SLO governor** — when the recent latency window burns the
   configured budget (:class:`SheddingGovernor`), new misses shed to
   the TF-IDF degraded path (``reason="slo_burn"``) instead of piling
   onto a queue that is already too slow. Shedding stops by itself
   once the window ages out.
3. **Bounded queue** — a full admission queue sheds the overflow
   (``reason="queue_full"``) rather than growing without bound.

Every shed is counted (``serve.shed{reason=...}``) and logged as an
``obs.event`` carrying the request's trace id; each flush is a
``serve.batch.flush`` span carrying the batch ``size`` and ``wait_max``,
the oldest request's queue wait in seconds. ``health()``
reports the attached scheduler's queue depth, in-flight batches,
lingered batches and shed rate, and turns unhealthy when the queue
saturates.

Deterministic testing: pass ``start=False`` plus a manually advanced
``clock`` callable and drive flushes explicitly with
:meth:`BatchScheduler.pump` — the flush policy becomes a pure function
of the clock, with no background thread racing the assertions.

While any scheduler is live, numpy's bundled OpenBLAS runs on one
thread: each scheduler takes a :mod:`repro.utils.blas` hold for its
life, as training does for its epochs, so the first hold pins the count
and the last :meth:`BatchScheduler.close` restores the previous one.
"""

from __future__ import annotations

import contextlib
import threading
import time
from collections import deque
from typing import Callable, Sequence

from repro import obs
from repro.data.schema import Paper
from repro.serve.index import BatchQueryResult, ServingIndex
from repro.utils.blas import blas_threads, pin_blas, release_blas


class SheddingGovernor:
    """Sliding-window latency burn detector driving load-shedding.

    Tracks whether recent request latencies burn the SLO budget: each
    recorded sample is flagged against *threshold* (defaulting to the
    serving query p99 objective, 250ms), and :meth:`burning` trips once
    more than ``budget`` of the samples inside the trailing ``window``
    seconds are over it — with at least ``min_samples`` of evidence, so
    one slow cold-start query cannot shed traffic on its own. Recovery
    is passive: samples age out of the window and shedding stops.

    Thread-safe; the *clock* is injectable, so a manually advanced clock
    makes burn and recovery deterministic under test.
    """

    def __init__(self, threshold: float = 0.25, window: float = 5.0,
                 budget: float = 0.05, min_samples: int = 20,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if threshold <= 0:
            raise ValueError(f"threshold must be > 0, got {threshold}")
        if window <= 0:
            raise ValueError(f"window must be > 0, got {window}")
        if not 0.0 <= budget < 1.0:
            raise ValueError(f"budget must be in [0, 1), got {budget}")
        if min_samples < 1:
            raise ValueError(f"min_samples must be >= 1, got {min_samples}")
        self.threshold = float(threshold)
        self.window = float(window)
        self.budget = float(budget)
        self.min_samples = int(min_samples)
        self._clock = clock
        self._samples: "deque[tuple[float, bool]]" = deque()
        self._lock = threading.Lock()

    def record(self, latency: float) -> None:
        """Feed one served-request latency (seconds) into the window."""
        now = self._clock()
        with self._lock:
            self._samples.append((now, latency > self.threshold))
            self._prune(now)

    def burning(self) -> bool:
        """True while the trailing window exceeds the over-budget rate."""
        now = self._clock()
        with self._lock:
            self._prune(now)
            if len(self._samples) < self.min_samples:
                return False
            over = sum(1 for _, slow in self._samples if slow)
            return over / len(self._samples) > self.budget

    def _prune(self, now: float) -> None:
        while self._samples and self._samples[0][0] < now - self.window:
            self._samples.popleft()


class Ticket:
    """One admitted request: a future resolved by a batch flush.

    Created by :meth:`BatchScheduler.submit`; :meth:`result` blocks the
    submitting thread until the batch carrying the request flushes (or
    the request resolves immediately — cache fast path, shed, or
    validation error).
    """

    __slots__ = ("user", "k", "enqueued", "event", "ids", "scores",
                 "pool_version", "cache", "degraded_reason", "shed",
                 "shed_reason", "error")

    def __init__(self, user: "str | Sequence[Paper]", k: int,
                 enqueued: float) -> None:
        self.user = user
        self.k = k
        self.enqueued = enqueued
        self.event = threading.Event()
        self.ids: list[str] = []
        self.scores = None
        self.pool_version = -1
        self.cache = "miss"
        self.degraded_reason: str | None = None
        self.shed = False
        self.shed_reason: str | None = None
        self.error: Exception | None = None

    @property
    def done(self) -> bool:
        """True once the request has resolved (successfully or not)."""
        return self.event.is_set()

    def result(self, timeout: float | None = None) -> "Ticket":
        """Wait for resolution; re-raise a per-request failure.

        Returns ``self`` so callers can read ``ids`` / ``scores`` /
        ``pool_version`` / ``cache`` in one expression. Raises
        :class:`TimeoutError` when *timeout* elapses first, or the
        stored per-request error (unknown user, bad ``k``, injected
        batch failure) when there is one.
        """
        if not self.event.wait(timeout):
            raise TimeoutError(
                f"request for user {self.user!r} did not resolve "
                f"within {timeout}s")
        if self.error is not None:
            raise self.error
        return self

    def _resolve(self, res: BatchQueryResult) -> None:
        self.ids = res.ids
        self.scores = res.scores
        self.pool_version = res.pool_version
        self.cache = res.cache
        self.degraded_reason = res.degraded_reason
        self.error = res.error
        self.event.set()

    def _fail(self, exc: Exception) -> None:
        self.error = exc
        self.event.set()


class BatchScheduler:
    """Threaded micro-batching front end for a :class:`ServingIndex`.

    Parameters
    ----------
    index:
        The serving index to batch over. The scheduler attaches itself
        (:meth:`ServingIndex.attach_scheduler`) so ``health()`` reports
        its state, and detaches on :meth:`close`.
    max_batch:
        Requests per flush; a batch this full flushes immediately.
    max_wait_ms:
        Ceiling on how long a request that queued behind a running
        batch waits for co-riders: its batch flushes once the oldest
        request has waited this long. A request admitted while no
        batch is queued or in flight does not wait at all.
    queue_depth:
        Bound on admitted-but-unflushed requests; overflow sheds to the
        TF-IDF degraded path (``reason="queue_full"``).
    governor:
        The :class:`SheddingGovernor` deciding SLO-burn shedding; a
        default one (250ms threshold, 5s window) is built when omitted.
    clock:
        Injectable monotonic time source (shared with the governor only
        if the caller wires it into both).
    start:
        When True (default) a daemon flusher thread drains the queue.
        ``start=False`` runs in *manual* mode for deterministic tests:
        nothing flushes until :meth:`pump` is called.
    """

    def __init__(self, index: ServingIndex, *, max_batch: int = 8,
                 max_wait_ms: float = 2.0, queue_depth: int = 64,
                 governor: SheddingGovernor | None = None,
                 clock: Callable[[], float] = time.monotonic,
                 start: bool = True) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_wait_ms < 0:
            raise ValueError(f"max_wait_ms must be >= 0, got {max_wait_ms}")
        if queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {queue_depth}")
        self._index = index
        self.max_batch = int(max_batch)
        self.max_wait = float(max_wait_ms) / 1000.0
        self.queue_depth = int(queue_depth)
        self.governor = governor if governor is not None else \
            SheddingGovernor(clock=clock)
        self._clock = clock
        self._queue: "deque[Ticket]" = deque()
        self._cv = threading.Condition()
        self._stats_lock = threading.Lock()
        self._closed = False
        self._stopping = False
        self._quiesced = False
        self._in_flight = 0
        #: True while the queue's head was admitted to an idle scheduler
        #: (nothing queued, no batch in flight): its batch is due now.
        self._idle_head = False
        self._submitted = 0
        self._batches = 0
        self._lingered = 0
        self._fast_hits = 0
        self._shed_count = 0
        self._shed_by_reason: dict[str, int] = {}
        index.attach_scheduler(self)
        pin_blas()
        self._thread: threading.Thread | None = None
        if start:
            self._thread = threading.Thread(
                target=self._run, name="repro-serve-scheduler", daemon=True)
            self._thread.start()

    # ------------------------------------------------------------------
    # Client API
    # ------------------------------------------------------------------
    def submit(self, user: "str | Sequence[Paper]", k: int = 10) -> Ticket:
        """Admit one query; returns a :class:`Ticket` future.

        Resolution order: LRU-cache hits resolve immediately without a
        queue slot; then the SLO governor may shed
        (``reason="slo_burn"``); then a full queue sheds
        (``reason="queue_full"``); otherwise the request queues for the
        next batch flush.
        """
        if self._closed:
            raise RuntimeError("scheduler is closed")
        hit = self._index.cached_top_k(user, k)
        if hit is not None:
            ticket = Ticket(user, k, self._clock())
            with self._stats_lock:
                self._submitted += 1
                self._fast_hits += 1
            ticket._resolve(hit)
            return ticket
        with self._stats_lock:
            self._submitted += 1
        if self.governor.burning():
            return self._shed(user, k, "slo_burn")
        with self._cv:
            # A quiesce barrier (hot swap in progress) parks new misses
            # here until the barrier lifts: the request is neither
            # failed nor shed, it just answers against whichever index
            # state wins the swap.
            while self._quiesced and not self._closed:
                self._cv.wait(timeout=0.05)
            # Re-checked under the lock: a submit racing close() must
            # not enqueue a ticket after the flusher drained and exited
            # — that ticket would never resolve.
            if self._closed:
                raise RuntimeError("scheduler is closed")
            if len(self._queue) < self.queue_depth:
                ticket = Ticket(user, k, self._clock())
                # Bare int read: a batch taken off the queue is counted
                # under this lock; one ending late only makes it linger.
                if not self._queue and self._in_flight == 0:
                    self._idle_head = True
                self._queue.append(ticket)
                # All waiters: a submit parked by an earlier quiesce
                # may be waiting too, and the flusher must not miss it.
                self._cv.notify_all()
                return ticket
        # Shed outside the condition lock: the TF-IDF fallback rank is
        # real work and must not block admissions or the flusher.
        return self._shed(user, k, "queue_full")

    def query(self, user: "str | Sequence[Paper]", k: int = 10) -> list[str]:
        """Blocking drop-in for :meth:`ServingIndex.top_k`."""
        return self.submit(user, k).result().ids

    # ------------------------------------------------------------------
    # Shedding
    # ------------------------------------------------------------------
    def _shed(self, user: "str | Sequence[Paper]", k: int,
              reason: str) -> Ticket:
        ticket = Ticket(user, k, self._clock())
        with self._stats_lock:
            self._shed_count += 1
            self._shed_by_reason[reason] = \
                self._shed_by_reason.get(reason, 0) + 1
        try:
            # A request span (joining any enclosing trace) so the shed
            # event — and the fallback answer's spans — carry a trace id
            # a capture can join back to the individual occurrence.
            with obs.request("serve.shed", reason=reason):
                obs.count("serve.shed", reason=reason)
                obs.event("serve.shed", reason=reason)
                res = self._index.shed_rank(user, k)
        except (KeyError, ValueError) as exc:
            ticket._fail(exc)
            return ticket
        ticket.shed = True
        ticket.shed_reason = reason
        ticket._resolve(res)
        # Shed latencies deliberately do NOT feed the governor: the
        # fallback is fast, and counting it would end a burn episode
        # before the *model* path has demonstrably recovered.
        return ticket

    # ------------------------------------------------------------------
    # Flushing
    # ------------------------------------------------------------------
    def _run(self) -> None:
        while True:
            batch = self._wait_for_batch()
            if batch is None:
                return
            self._execute(batch)

    def _wait_for_batch(self) -> "list[Ticket] | None":
        with self._cv:
            while self._queue or not self._stopping:
                if not self._queue:
                    # Idle: submit, close and quiesce all notify.
                    self._cv.wait()
                    continue
                wait = self._due_in_locked()
                if wait <= 0:
                    return self._take_locked()
                self._cv.wait(timeout=max(wait, 1e-4))
            return None

    def _due_in_locked(self) -> float:
        """Seconds until the queue's batch is due (<= 0: flush now): when
        its head arrived idle, or it is full, stopping or quiesced, or its
        oldest request waited max_wait."""
        if (self._idle_head or len(self._queue) >= self.max_batch
                or self._stopping or self._quiesced):
            return 0.0
        return self.max_wait - (self._clock() - self._queue[0].enqueued)

    def _take_locked(self) -> list[Ticket]:
        batch = []
        while self._queue and len(batch) < self.max_batch:
            batch.append(self._queue.popleft())
        if batch:
            # Counted in flight while the queue lock is still held, so
            # a quiesce barrier can never observe "queue empty, nothing
            # in flight" in the gap between a batch being taken off the
            # queue and _execute starting on it.
            with self._stats_lock:
                self._in_flight += 1
                if not self._idle_head:
                    self._lingered += 1
            # Requests left in the queue now wait behind this batch.
            self._idle_head = False
        return batch

    def pump(self) -> int:
        """Manual-mode flush: run one due batch, return its size.

        Takes a batch only when the flush policy says one is due — its
        first request was admitted while the scheduler was idle, the
        queue holds ``max_batch`` requests, the oldest has waited
        ``max_wait_ms``, or the scheduler is draining — so tests on a
        manual clock exercise the real policy, not a test-only shortcut.
        A pumped batch runs inline, so a pump that empties the queue
        leaves the scheduler idle. Returns 0 when nothing is due.
        """
        with self._cv:
            if not self._queue or self._due_in_locked() > 0:
                return 0
            batch = self._take_locked()
        self._execute(batch)
        return len(batch)

    def _execute(self, batch: "list[Ticket]") -> None:
        # _in_flight was incremented in _take_locked (under _cv), so the
        # batch is visible to a quiesce barrier for its whole lifetime.
        try:
            with obs.trace("serve.batch.flush", size=len(batch),
                           wait_max=self._clock() - batch[0].enqueued):
                results = self._index.batch_top_k(
                    [(t.user, t.k) for t in batch])
        except Exception as exc:  # the flusher must never die
            for ticket in batch:
                ticket._fail(exc)
        else:
            done = self._clock()
            for ticket, res in zip(batch, results):
                latency = done - ticket.enqueued
                if res.error is None:
                    self.governor.record(latency)
                    obs.observe_quantile("serve.query.latency", latency,
                                         cache=res.cache)
                ticket._resolve(res)
        finally:
            with self._stats_lock:
                self._in_flight -= 1
                self._batches += 1

    # ------------------------------------------------------------------
    # Introspection and lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """JSON-ready scheduler state (feeds ``health()``).

        ``lingered_batches`` counts the batches that waited for
        co-riders: those whose first request queued behind a running
        batch rather than arriving idle.
        """
        with self._cv:
            depth = len(self._queue)
        with self._stats_lock:
            submitted = self._submitted
            shed = self._shed_count
            by_reason = dict(self._shed_by_reason)
            in_flight = self._in_flight
            batches = self._batches
            lingered = self._lingered
            fast_hits = self._fast_hits
        return {
            "queue_depth": depth,
            "queue_capacity": self.queue_depth,
            "in_flight": in_flight,
            "submitted": submitted,
            "batches": batches,
            "lingered_batches": lingered,
            "cache_fast_hits": fast_hits,
            "shed": shed,
            "shed_by_reason": by_reason,
            "shed_rate": (shed / submitted) if submitted else 0.0,
            "shedding": self.governor.burning(),
            "quiesced": self._quiesced,
            "max_batch": self.max_batch,
            "max_wait_ms": self.max_wait * 1000.0,
            "blas_threads": blas_threads(),
        }

    @contextlib.contextmanager
    def quiesce(self, timeout: float = 30.0):
        """Drain barrier: no request is mid-batch while the body runs.

        :meth:`ServingIndex.batch_top_k` snapshots everything it scores
        against (matrix, ids, fallback) under the serving lock, so a
        swap mid-batch cannot tear an answer; it only leaves that batch
        answering for the old state, uncached. The barrier makes a swap
        clean instead: no batch straddles the cutover, and admitted
        requests answer against the old state before it starts.

        On entry: new cache-missing submits park (un-failed, un-shed)
        until the barrier lifts; the flusher drains the already-admitted
        queue immediately (a quiesce makes every queued request "due");
        the barrier then waits until the queue is empty and no batch is
        in flight. In manual mode (``start=False``) the queue is drained
        inline. Cache hits and governor sheds keep flowing throughout —
        they never read the internals a swap replaces mid-computation.

        Raises :class:`TimeoutError` when the drain does not settle
        within *timeout* seconds (the barrier is lifted first).
        """
        with self._cv:
            self._quiesced = True
            self._cv.notify_all()
        try:
            if self._thread is None:
                while True:
                    with self._cv:
                        batch = self._take_locked()
                    if not batch:
                        break
                    self._execute(batch)
            deadline = time.monotonic() + timeout
            while True:
                with self._cv:
                    empty = not self._queue
                # Bare int read on purpose: taking _stats_lock here
                # while polling under the barrier would order-invert
                # against _take_locked's _cv -> _stats_lock.
                if empty and self._in_flight == 0:
                    break
                if time.monotonic() > deadline:
                    raise TimeoutError(
                        f"scheduler did not quiesce within {timeout}s "
                        f"(queue={len(self._queue)}, "
                        f"in_flight={self._in_flight})")
                time.sleep(0.001)
            yield self
        finally:
            with self._cv:
                self._quiesced = False
                self._cv.notify_all()

    def close(self, drain: bool = True) -> None:
        """Stop accepting work and settle every admitted request.

        ``drain=True`` (default) flushes the remaining queue through
        the index; ``drain=False`` fails queued tickets with
        :class:`RuntimeError` instead. Idempotent. Detaches from the
        index either way, and drops this scheduler's hold on
        single-threaded BLAS: the last live scheduler to close restores
        the previous thread count.
        """
        with self._cv:
            already = self._closed
            self._closed = True
            self._stopping = True
            rejected: list[Ticket] = []
            if not drain:
                rejected = list(self._queue)
                self._queue.clear()
            self._cv.notify_all()
        for ticket in rejected:
            ticket._fail(RuntimeError("scheduler closed before flush"))
        if already:
            return
        if self._thread is not None:
            self._thread.join(timeout=30.0)
        else:
            while self.pump():
                pass
        self._index.detach_scheduler(self)
        release_blas()

    def __enter__(self) -> "BatchScheduler":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

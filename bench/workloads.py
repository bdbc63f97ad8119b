"""The four benchmark workloads and the run that drives one of them.

Every workload goes through the same steps, which :func:`run` drives:

``setup``    bring the system to its first answer (timed: ``setup_s``);
``prepare``  compute reference answers before timing starts;
``measure``  run generated requests and time each one;
``recover``  restart from durable state (workloads that write a log);
``verify``   check the answers; a wrong answer counts as a failure.

A traced run (``--trace 1``) sets up once with the tracing wrappers
installed, measures the first half of the requests untraced and the
second half traced, and reports per-layer metrics instead of the
end-to-end ones.
"""

from __future__ import annotations

import faulthandler
import gc
import os
import queue
import resource
import shutil
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

from bench import inputs as gen
from bench import params
from bench.fixture import build_task, ensure_fixture, load_task, warmup
from bench.stats import median, quantile
from bench.tracing import (NullRecorder, Recorder, SpanIndex, layer_metrics,
                           unattributed_pct)

from repro import obs
from repro.analysis.metrics import ndcg_at_k
from repro.data import load_acm
from repro.experiments.protocol import evaluate_recommender
from repro.serve.index import ServingIndex
from repro.serve.scheduler import BatchScheduler, SheddingGovernor
from repro.serve.wal import WriteAheadLog

#: End-to-end metrics every workload reports: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "p50_ms": "ms",
    "throughput_per_s": "1/s",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
    "quality": "ratio",
}

#: Longest any single wait inside a workload may block.
WAIT_TIMEOUT_S = 120.0

#: Longest a run may take once its fixture exists: this many seconds,
#: or this many per second of ``--seconds`` when that is longer.
RUN_TIMEOUT_S = (170.0, 15.0)

NULL = NullRecorder()


@dataclass
class Window:
    """What one measurement window observed."""

    latencies: list[float] = field(default_factory=list)
    by_kind: dict[str, list[float]] = field(default_factory=dict)
    wall_s: float = 0.0
    cpu_s: float = 0.0
    ok: int = 0
    errors: list[str] = field(default_factory=list)
    #: Per-layer inputs measured outside spans (traced windows only).
    layer: dict = field(default_factory=dict)

    def record(self, kind: str, latency: float, error: str | None = None,
               good: bool = True) -> None:
        """Count one op; only an op without error that is *good* (in an
        open loop: answered by the model within its limit) counts in
        ``ok`` and so in ``throughput_per_s``."""
        self.latencies.append(latency)
        self.by_kind.setdefault(kind, []).append(latency)
        if error is not None:
            self.errors.append(error)
        elif good:
            self.ok += 1


@dataclass
class Checks:
    """Outcome of the post-run correctness checks."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    quality: float = 0.0
    detail: dict[str, dict] = field(default_factory=dict)

    def expect(self, condition: bool, message: str) -> None:
        self.attempted += 1
        if not condition:
            self.failures.append(message)

    def note(self, name: str, value: float, unit: str) -> None:
        self.detail[name] = {"value": float(value), "unit": unit}


def _ms(values: list[float], q: float) -> float:
    return quantile(values, q) * 1e3


def _timed_window(window: Window, body) -> Window:
    cpu, wall = time.process_time(), time.monotonic()
    body()
    window.wall_s = time.monotonic() - wall
    window.cpu_s = time.process_time() - cpu
    return window


# ----------------------------------------------------------------------
# train
# ----------------------------------------------------------------------
class Train:
    """Fit the pipeline and write a servable artifact (the warmup path)."""

    name = "train"

    def __init__(self, root: Path, scratch: Path) -> None:
        self.scratch = scratch
        self.task = None
        self.fits: list[tuple[Path, float]] = []

    def inputs(self, seed: int, seconds: float) -> gen.Inputs:
        return gen.train_inputs(seed, seconds)

    def release(self) -> None:
        self.task = None

    def setup(self, recorder) -> None:
        with recorder.span("data.task"):
            corpus = load_acm(scale=params.TRAIN["scale"])
            self.task = build_task(corpus, params.TRAIN)

    def prepare(self) -> None:
        pass

    def measure(self, requests, recorder) -> Window:
        # Fits are timed one by one; the nDCG evaluation between them is
        # a check, so it stays out of the latency, CPU and wall totals.
        window = Window()
        for request in requests:
            path = self.scratch / f"fit-{len(self.fits)}"
            cpu, start = time.process_time(), time.monotonic()
            with recorder.request(len(self.fits)), recorder.span("bench.op"):
                recommender = warmup(self.task, request.seed, path)
            latency = time.monotonic() - start
            window.cpu_s += time.process_time() - cpu
            window.wall_s += latency
            window.record("fit", latency)
            k = params.NDCG_AT["train"]
            ndcg = evaluate_recommender(recommender, self.task, ks=(k,),
                                        fit=False)[f"ndcg@{k}"]
            self.fits.append((path, ndcg))
        return window

    def recover(self, recorder) -> None:
        pass

    def verify(self, windows: list[Window]) -> Checks:
        checks = Checks()
        for path, ndcg in self.fits:
            index = ServingIndex.from_artifact(path,
                                               papers=self.task.new_papers,
                                               index="ivf")
            checks.expect(not index.degraded, f"{path.name} does not load")
            checks.expect(index.ann is not None,
                          f"{path.name}: saved IVF quantizer not adopted")
            checks.expect(0.0 < ndcg <= 1.0, f"{path.name}: nDCG@20 {ndcg}")
        checks.quality = median([ndcg for _, ndcg in self.fits])
        fits = [x for w in windows for x in w.by_kind.get("fit", [])]
        checks.note("fit_s", median(fits), "s")
        checks.note("slowest_fit_s", max(fits), "s")
        checks.note("ndcg_at_20", checks.quality, "ratio")
        checks.note("train_papers", len(self.task.train_papers), "count")
        return checks

    def layer_extra(self, window: Window) -> dict:
        sizes = [f.stat().st_size for path, _ in self.fits
                 for f in path.rglob("*") if f.is_file()]
        return {"artifact_mb": sum(sizes) / 1e6 / max(1, len(self.fits))}

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# Serving workloads
# ----------------------------------------------------------------------
class _Serving:
    """Shared by the workloads that serve the cached fixture artifact."""

    def __init__(self, root: Path, scratch: Path) -> None:
        self.scratch = scratch
        fixture = ensure_fixture(root)
        self.artifact = fixture / "artifact"
        self.task = load_task(fixture)
        self.users = [u.author_id for u in self.task.users]
        self.relevant = {u.author_id: set(u.relevant_ids)
                         for u in self.task.users}
        self.pool_ids = {p.id for p in self.task.new_papers}
        self.index: ServingIndex | None = None

    def _load(self, **kwargs) -> ServingIndex:
        return ServingIndex.from_artifact(self.artifact,
                                          papers=self.task.new_papers,
                                          **kwargs)

    def _register(self, index: ServingIndex) -> None:
        for user in self.task.users:
            index.register_user(user.author_id, list(user.train_papers))

    def _warm_ingest(self, index: ServingIndex) -> None:
        """One ingest before timing: the first one builds the ingest-time
        TF-IDF vocabulary (hundreds of ms, once per process)."""
        index.add_paper(gen.clone_paper(self.task.train_papers[0],
                                        "warmup", 0))

    def _answers(self, index: ServingIndex, k: int) -> dict[str, list[str]]:
        return {user: index.top_k(user, k=k) for user in self.users}

    def _ndcg(self, answers: dict[str, list[str]]) -> float:
        """Mean nDCG of the answers against held-out citations.

        Ingested clones are skipped, so the score depends on how the
        model ranks the real new papers and not on which training
        papers this seed happened to clone.
        """
        k = params.NDCG_AT["serving"]
        return sum(ndcg_at_k([p for p in answers[u] if p in self.pool_ids],
                             self.relevant[u], k)
                   for u in self.users) / len(self.users)

    def prepare(self) -> None:
        pass

    def recover(self, recorder) -> None:
        pass

    def layer_extra(self, window: Window) -> dict:
        sizes = [f.stat().st_size for f in self.artifact.rglob("*")
                 if f.is_file()]
        return {"artifact_mb": sum(sizes) / 1e6, **window.layer}

    def _cache_counters(self) -> tuple[int, int]:
        return self.index.cache_hits, self.index.cache_misses

    def _cache_layer(self, window: Window, before: tuple[int, int]) -> None:
        hits = self.index.cache_hits - before[0]
        misses = self.index.cache_misses - before[1]
        window.layer["rank_computations"] = misses
        window.layer["cache_hit_ratio"] = (hits / (hits + misses)
                                           if hits + misses else 0.0)


class RankClosed(_Serving):
    """Back-to-back exact top-K with the cache defeated."""

    name = "rank_closed"

    def inputs(self, seed: int, seconds: float) -> gen.Inputs:
        return gen.rank_closed_inputs(self.users, seed, seconds)

    def release(self) -> None:
        self.index = None

    def setup(self, recorder) -> None:
        spec = params.RANK_CLOSED
        index = self._load(index=spec["index"], cache_size=spec["cache_size"])
        self._register(index)
        index.top_k(self.users[0], k=spec["k"])
        self.index = index

    def prepare(self) -> None:
        self.oracle = self._answers(self.index, params.RANK_CLOSED["k"])

    def measure(self, requests, recorder) -> Window:
        index, oracle, k = self.index, self.oracle, params.RANK_CLOSED["k"]
        window = Window()
        results: list[tuple[float, str | None]] = []

        def body() -> None:
            for i, request in enumerate(requests):
                user = request.user
                start = time.monotonic()
                try:
                    with recorder.request(i), recorder.span("bench.op"):
                        ids = index.top_k(user, k=k)
                except Exception as exc:  # recorded as a failure
                    error = f"{user}: {exc!r}"
                else:
                    error = None if ids == oracle[user] else \
                        f"{user}: answer differs from the serial oracle"
                results.append((time.monotonic() - start, error))

        before = self._cache_counters()
        _timed_window(window, body)
        for latency, error in results:
            window.record("query", latency, error)
        self._cache_layer(window, before)
        return window

    def verify(self, windows: list[Window]) -> Checks:
        checks = Checks()
        checks.quality = self._ndcg(self.oracle)
        queries = [x for w in windows for x in w.by_kind.get("query", [])]
        wall = sum(w.wall_s for w in windows)
        checks.note("qps", len(queries) / wall, "1/s")
        checks.note("query_p50_ms", _ms(queries, 0.5), "ms")
        checks.note("query_p95_ms", _ms(queries, 0.95), "ms")
        checks.note("query_p99_ms", _ms(queries, 0.99), "ms")
        checks.note("rank_computations",
                    sum(w.layer.get("rank_computations", 0)
                        for w in windows), "count")
        checks.note("ndcg_at_10", checks.quality, "ratio")
        return checks

    def close(self) -> None:
        self.index = None


class _Durable(_Serving):
    """Serving with a write-ahead log: restart replays it, and the
    restarted index must answer exactly like the live one did."""

    wal_path: Path

    def _new_wal(self) -> WriteAheadLog:
        self.wal_path = self.scratch / f"ingest-{time.monotonic_ns()}.wal"
        return WriteAheadLog(self.wal_path)

    def recover(self, recorder) -> None:
        spec = self.spec
        self.live = self._answers(self.index, spec["k"])
        self.live_pool = self.index.num_papers
        self.wal_mb = self.wal_path.stat().st_size / 1e6
        self.release()
        gc.collect()
        # Restart in the daemon's order: load, register, then replay.
        # Registering draws from the model's neighbourhood sampler, so
        # replaying first would give different answers than the live
        # index (which registered before any ingest).
        start = time.monotonic()
        recovered = self._load(index=spec["index"], nprobe=spec["nprobe"])
        self._register(recovered)
        recovered.attach_wal(WriteAheadLog(self.wal_path))
        self.recovery_s = time.monotonic() - start
        self.recovered = recovered

    def _verify_recovery(self, checks: Checks) -> None:
        k = self.spec["k"]
        recovered = self.recovered
        checks.expect(not recovered.degraded, "restart came up degraded")
        checks.expect(recovered.num_papers == self.live_pool,
                      f"restart pool {recovered.num_papers} != live "
                      f"{self.live_pool}")
        for user in self.users:
            checks.expect(recovered.top_k(user, k=k) == self.live[user],
                          f"{user}: restarted answer differs from live")
        recovered.set_nprobe(recovered.num_papers)  # full probe == exact
        exact = self._answers(recovered, k)
        recall = sum(len(set(self.live[u]) & set(exact[u])) / k
                     for u in self.users) / len(self.users)
        checks.quality = self._ndcg(self.live)
        checks.note("recovery_s", self.recovery_s, "s")
        checks.note("recall_at_10", recall, "ratio")
        checks.note("ndcg_at_10", checks.quality, "ratio")
        checks.note("wal_records", self.live_pool - len(self.task.new_papers),
                    "count")

    def layer_extra(self, window: Window) -> dict:
        return {**super().layer_extra(window), "wal_mb": self.wal_mb}


def record_open_loop(window: Window, done, spec: dict) -> None:
    """Record open-loop completions ``(i, kind, due, finished, error,
    shed)``. A shed answer or one later than its limit (from the due
    time) is not an error, but it is not good either, so
    ``throughput_per_s`` is goodput."""
    limits = {"query": spec["query_limit_ms"] / 1e3,
              "probe": spec["query_limit_ms"] / 1e3,
              "ingest": spec["ingest_limit_ms"] / 1e3}
    for _, kind, due, finished, error, shed in done:
        latency = finished - due
        window.record(kind, latency, error,
                      good=not shed and latency <= limits[kind])


class ServeOpen(_Durable):
    """The daemon's configuration under an open-loop schedule."""

    name = "serve_open"
    spec = params.SERVE_OPEN

    def __init__(self, root: Path, scratch: Path) -> None:
        super().__init__(root, scratch)
        self.scheduler: BatchScheduler | None = None
        self.flight = None

    def inputs(self, seed: int, seconds: float) -> gen.Inputs:
        return gen.serve_open_inputs(
            self.users, [len(u.train_papers) for u in self.task.users],
            self.task.train_papers, seed, seconds)

    def release(self) -> None:
        if self.scheduler is not None:
            self.scheduler.close()
            self.scheduler = None
        if self.index is not None and self.index.wal is not None:
            self.index.wal.close()
        self.index = None

    def setup(self, recorder) -> None:
        spec = self.spec
        obs.configure(enabled=True, reset=True)
        self.flight = obs.get_flight_recorder()
        self.flight.arm(self.scratch / "postmortems")
        index = self._load(index=spec["index"], nprobe=spec["nprobe"],
                           cache_size=spec["cache_size"])
        self._register(index)
        index.attach_wal(self._new_wal())
        self.scheduler = BatchScheduler(
            index, max_batch=spec["max_batch"],
            max_wait_ms=spec["max_wait_ms"], queue_depth=spec["queue_depth"],
            governor=SheddingGovernor(threshold=spec["shed_threshold_s"]))
        self.index = index
        # Warm every path the mix takes: a query, a probe (its first call
        # fits the fallback TF-IDF vocabulary) and an ingest. Left to
        # the window, these once-per-process costs stall the lock for
        # 300-400 ms and trip the shedding governor.
        probe = gen.clone_paper(self.task.train_papers[0], "warmup", 1)
        for user in (self.users[0], [probe]):
            self.scheduler.submit(user, k=spec["k"]).result(WAIT_TIMEOUT_S)
        self._warm_ingest(index)

    def measure(self, requests, recorder) -> Window:
        """One submitting thread sends each request at its due time and
        stamps completions while it waits for the next; one ingest
        thread applies ingests in arrival order. Latency runs from the
        due time, so a stall also delays everything queued behind it."""
        spec, index, scheduler = self.spec, self.index, self.scheduler
        window = Window()
        done: list[tuple[int, str, float, float, str | None, bool]] = []
        lateness: list[float] = []
        tickets: list[tuple[int, float, object]] = []
        ingests: queue.SimpleQueue = queue.SimpleQueue()

        def ingest_worker() -> None:
            while (item := ingests.get()) is not None:
                i, due, paper = item
                start = time.monotonic()
                recorder.add("bench.ingest_wait", due, start, request=i)
                error = None
                try:
                    with recorder.request(i), recorder.span("bench.op"):
                        index.add_paper(paper)
                except Exception as exc:  # recorded as a failure
                    error = f"ingest {paper.id}: {exc!r}"
                done.append((i, "ingest", due, time.monotonic(), error,
                             False))

        # Batches resolve tickets in admission order, so waiting on the
        # oldest outstanding ticket stamps every completion on time.
        outstanding: deque = deque()

        def finish(i: int, kind: str, due: float, ticket) -> None:
            error = (None if ticket.error is None
                     else f"{kind} {i}: {ticket.error!r}")
            done.append((i, kind, due, time.monotonic(), error, ticket.shed))

        def settle(deadline: float, drain: bool = False) -> None:
            """Stamp completions until *deadline* (or, draining, until
            nothing is outstanding)."""
            while outstanding:
                ticket = outstanding[0][3]
                wait = deadline - time.monotonic()
                if not ticket.event.is_set() and (
                        wait <= 0 or not ticket.event.wait(wait)):
                    return
                finish(*outstanding.popleft())
            delay = deadline - time.monotonic()
            if delay > 0 and not drain:
                time.sleep(delay)

        def body() -> None:
            worker = threading.Thread(target=ingest_worker,
                                      name="bench-ingest")
            worker.start()
            origin = time.monotonic() + 0.05
            try:
                for i, request in enumerate(requests):
                    due = origin + request.due
                    settle(due)
                    sent = time.monotonic()
                    lateness.append(sent - due)
                    if request.kind == "ingest":
                        ingests.put((i, due, request.paper))
                        continue
                    recorder.add("bench.lateness", due, sent, request=i)
                    user = (request.user if request.kind == "query"
                            else [request.paper])
                    with recorder.request(i):
                        ticket = scheduler.submit(user, k=spec["k"])
                    tickets.append((i, due, ticket))
                    if ticket.event.is_set():  # cache hit or shed
                        finish(i, request.kind, due, ticket)
                    else:
                        outstanding.append((i, request.kind, due, ticket))
                settle(time.monotonic() + WAIT_TIMEOUT_S, drain=True)
            finally:
                ingests.put(None)
                worker.join(WAIT_TIMEOUT_S)
            if outstanding or worker.is_alive():
                raise RuntimeError("serve_open requests did not complete")

        before = scheduler.stats()
        cache_before = self._cache_counters()
        _timed_window(window, body)
        record_open_loop(window, done, spec)
        after = scheduler.stats()
        window.layer.update(
            shed=after["shed"] - before["shed"],
            fast_hits=after["cache_fast_hits"] - before["cache_fast_hits"],
            lateness_p99_ms=_ms(lateness, 0.99),
            intervals=[(due, finished, i)
                       for i, _, due, finished, _, _ in done],
            tickets=tickets)
        self._cache_layer(window, cache_before)
        return window

    def attribution(self, index: SpanIndex, window: Window):
        """Each request's interval and the waits measured outside spans.

        A queued query is covered by its admission span, the wait from
        enqueue to the start of the batch that answered it, and that
        batch's span (found as the first batch after the enqueue that
        carried the same user object)."""
        batches = sorted(index.spans("index.batch_top_k"),
                         key=lambda s: s.start)
        extra: dict[int, list[tuple[float, float]]] = {}
        waits = []
        for i, due, ticket in window.layer["tickets"]:
            if ticket.cache != "miss" or ticket.shed:
                continue
            for batch in batches:
                if (batch.start >= ticket.enqueued
                        and id(ticket.user) in batch.attrs["users"]):
                    extra[i] = [(ticket.enqueued, batch.start),
                                (batch.start, batch.end)]
                    waits.append(batch.start - ticket.enqueued)
                    break
        window.layer["wait_ms_p99"] = _ms(waits, 0.99)
        return extra

    def verify(self, windows: list[Window]) -> Checks:
        checks = Checks()
        self._verify_recovery(checks)
        requests = sum(len(w.latencies) for w in windows)
        slo_ok = sum(w.ok for w in windows)
        queries = [x for w in windows for x in w.by_kind.get("query", [])]
        probes = [x for w in windows for x in w.by_kind.get("probe", [])]
        ingests = [x for w in windows for x in w.by_kind.get("ingest", [])]
        checks.note("requests", requests, "count")
        checks.note("slo_ok_ratio", slo_ok / max(1, requests), "ratio")
        checks.note("query_p50_ms", _ms(queries, 0.5), "ms")
        checks.note("query_p99_ms", _ms(queries, 0.99), "ms")
        checks.note("probe_p50_ms", _ms(probes, 0.5), "ms")
        checks.note("ingest_p50_ms", _ms(ingests, 0.5), "ms")
        checks.note("ingest_p95_ms", _ms(ingests, 0.95), "ms")
        checks.note("shed", sum(w.layer["shed"] for w in windows), "count")
        checks.note("lateness_p99_ms",
                    max(w.layer["lateness_p99_ms"] for w in windows), "ms")
        return checks

    def close(self) -> None:
        self.release()
        self.recovered = None
        if self.flight is not None:
            self.flight.disarm()
        obs.configure(enabled=False, reset=True)


class IngestBulk(_Durable):
    """One client ingesting cold-start papers durably, then a restart."""

    name = "ingest_bulk"
    spec = params.INGEST_BULK

    def inputs(self, seed: int, seconds: float) -> gen.Inputs:
        return gen.ingest_bulk_inputs(self.task.train_papers, seed, seconds)

    def release(self) -> None:
        if self.index is not None and self.index.wal is not None:
            self.index.wal.close()
        self.index = None

    def setup(self, recorder) -> None:
        spec = self.spec
        index = self._load(index=spec["index"], nprobe=spec["nprobe"])
        self._register(index)
        index.attach_wal(self._new_wal())
        index.top_k(self.users[0], k=spec["k"])
        self._warm_ingest(index)
        self.index = index

    def measure(self, requests, recorder) -> Window:
        index = self.index
        window = Window()
        results = []

        def body() -> None:
            for i, request in enumerate(requests):
                start = time.monotonic()
                error = None
                try:
                    with recorder.request(i), recorder.span("bench.op"):
                        index.add_paper(request.paper)
                except Exception as exc:  # recorded as a failure
                    error = f"ingest {request.paper.id}: {exc!r}"
                results.append((time.monotonic() - start, error))

        _timed_window(window, body)
        for latency, error in results:
            window.record("ingest", latency, error)
        return window

    def verify(self, windows: list[Window]) -> Checks:
        checks = Checks()
        self._verify_recovery(checks)
        ingests = [x for w in windows for x in w.by_kind.get("ingest", [])]
        wall = sum(w.wall_s for w in windows)
        checks.note("ingest_per_s", len(ingests) / wall, "1/s")
        checks.note("ingest_p50_ms", _ms(ingests, 0.5), "ms")
        checks.note("ingest_p95_ms", _ms(ingests, 0.95), "ms")
        return checks

    def close(self) -> None:
        self.release()
        self.recovered = None


WORKLOADS = {cls.name: cls for cls in (Train, RankClosed, ServeOpen,
                                       IngestBulk)}


# ----------------------------------------------------------------------
# Driving one run
# ----------------------------------------------------------------------
def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _end_to_end(window: Window, setups: list[float], rss_mb: float,
                quality: float) -> dict[str, dict]:
    latencies = window.latencies
    values = {
        "setup_s": median(setups),
        "p50_ms": _ms(latencies, 0.5),
        "throughput_per_s": window.ok / window.wall_s,
        "cpu_ms_per_op": window.cpu_s / len(latencies) * 1e3,
        "peak_rss_mb": rss_mb,
        "quality": quality,
    }
    return {metric: {"value": float(values[metric]), "unit": unit}
            for metric, unit in END_TO_END.items()}


def _untraced(workload, requests) -> tuple[dict, list[Window], Checks]:
    setups = []
    for _ in range(params.SETUP_REPEATS):
        workload.release()
        gc.collect()
        start = time.monotonic()
        workload.setup(NULL)
        setups.append(time.monotonic() - start)
    workload.prepare()
    window = workload.measure(requests, NULL)
    rss_mb = peak_rss_mb()
    workload.recover(NULL)
    checks = workload.verify([window])
    metrics = _end_to_end(window, setups, rss_mb, checks.quality)
    return metrics, [window], checks


def _traced(workload, inputs: gen.Inputs) -> tuple[dict, list[Window], Checks]:
    recorder = Recorder()
    recorder.phase = "setup"
    recorder.install()
    try:
        workload.setup(recorder)
    finally:
        recorder.uninstall()
    workload.prepare()
    first, second = inputs.halves()
    untraced = workload.measure(first, NULL)
    recorder.phase = "window"
    recorder.install()
    try:
        traced = workload.measure(second, recorder)
        recorder.phase = "recovery"
        workload.recover(recorder)
    finally:
        recorder.uninstall()
    checks = workload.verify([untraced, traced])
    spans = SpanIndex(recorder.spans)
    if isinstance(workload, ServeOpen):
        extra = workload.attribution(spans, traced)
        requests = traced.layer["intervals"]
    else:
        extra = {}
        requests = [(s.start, s.end, s.request)
                    for s in spans.spans("bench.op")]
    layer = workload.layer_extra(traced)
    layer.update(
        requests=len(traced.latencies), obs_calls=recorder.obs_calls,
        trace_overhead_pct=100.0 * (median(traced.latencies)
                                    / median(untraced.latencies) - 1.0),
        unattributed_pct=unattributed_pct(spans, requests, extra))
    return layer_metrics(spans, layer), [untraced, traced], checks


def run(name: str, seed: int, seconds: float, trace: bool,
        root: Path) -> dict:
    """Run one workload; returns the result record (see run.py)."""
    scratch = root / "bench" / ".cache" / f"run-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    workload = WORKLOADS[name](root, scratch)
    # A hung run (a deadlock in the code under test) dumps every thread's
    # stack and exits non-zero instead of blocking the caller forever.
    faulthandler.dump_traceback_later(
        max(RUN_TIMEOUT_S[0], RUN_TIMEOUT_S[1] * seconds), exit=True)
    try:
        inputs = workload.inputs(seed, seconds)
        if trace:
            metrics, windows, checks = _traced(workload, inputs)
        else:
            metrics, windows, checks = _untraced(workload, inputs.requests)
    finally:
        faulthandler.cancel_dump_traceback_later()
        workload.close()
        shutil.rmtree(scratch, ignore_errors=True)
    errors = [e for w in windows for e in w.errors]
    attempted = sum(len(w.latencies) for w in windows) + checks.attempted
    failed = len(errors) + len(checks.failures)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "detail": checks.detail,
        "failures": (errors + checks.failures)[:20],
        "schedule_sha256": inputs.sha256(),
        "requests": len(inputs.requests),
    }

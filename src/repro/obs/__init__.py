"""repro.obs — tracing, metrics, and training telemetry.

Observability for the SEM -> NPRec pipeline. Off by default; when off,
every helper here is a cheap no-op (one attribute read, no allocation),
so the instrumented hot paths in the trainers, the de-fuzzing sampler,
the graph builder, and the recommender cost nothing measurable.

Typical capture::

    from repro import obs

    obs.configure(enabled=True, reset=True)
    recommender.fit(corpus, train, new)          # instrumented internally
    obs.write_jsonl("results/obs/run.jsonl")     # machine-readable capture
    totals = obs.runs.flatten(obs.runs.capture_run())  # span.<name>:total ...

Instrumenting code::

    with obs.trace("my.stage", size=len(items)) as span:
        ...
        span.set("hits", hits)
    obs.count("my.dropped", n_dropped, reason="threshold")
    obs.gauge("my.queue_depth", depth)

Each number is recorded once. A span is the one record of a stage's
duration (run snapshots carry its ``span.<name>:calls|total|mean``
aggregates) and of a per-call value, as a span attribute; counters and
gauges hold totals and levels; the only latency sketches are the two an
SLO judges (:func:`observe_quantile`).

The metric/span name vocabulary used by the library itself is documented
in ``docs/API.md`` (section "repro.obs").
"""

from __future__ import annotations

import time as _time

from repro.obs import config as _config
from repro.obs import flightrec, runs, server, slo, tracing
from repro.obs.config import (
    ObsState,
    configure,
    get_exemplars,
    get_registry,
    get_tracer,
    is_enabled,
)
from repro.obs.exemplars import Exemplar, ExemplarReservoir
from repro.obs.emitters import (
    events,
    prometheus_text,
    set_metric_help,
    write_jsonl,
)
from repro.obs.flightrec import (
    FlightRecorder,
    get_flight_recorder,
    process_snapshot,
)
from repro.obs.server import ObsServer
from repro.obs.metrics import Counter, Gauge, MetricsRegistry
from repro.obs.quantiles import DEFAULT_QUANTILES, P2Quantile, Quantile
from repro.obs.tracing import (
    SpanRecord,
    SpanStats,
    Tracer,
    current_trace_id,
    new_trace_id,
)

__all__ = [
    "configure", "is_enabled", "get_registry", "get_tracer",
    "get_exemplars", "ObsState",
    "trace", "request", "count", "gauge", "observe_quantile", "event",
    "current_trace_id", "new_trace_id",
    "Counter", "Gauge", "Quantile", "P2Quantile",
    "MetricsRegistry", "DEFAULT_QUANTILES",
    "Tracer", "SpanRecord", "SpanStats",
    "Exemplar", "ExemplarReservoir",
    "write_jsonl", "events", "prometheus_text", "set_metric_help",
    "FlightRecorder", "get_flight_recorder", "process_snapshot",
    "ObsServer",
    "runs", "slo", "flightrec", "server",
]


class _NoopSpan:
    """Inert span handed out while observability is disabled."""

    __slots__ = ()
    name = "<disabled>"
    duration = 0.0
    trace_id = None
    attrs: dict[str, object] = {}

    def set(self, key: str, value: object) -> None:
        """No-op."""


class _NoopContext:
    """Inert, reentrant context manager for the disabled fast path."""

    __slots__ = ()

    def __enter__(self) -> _NoopSpan:
        return NOOP_SPAN

    def __exit__(self, *exc_info: object) -> bool:
        return False


#: Shared singletons: ``trace`` returns the *same* object on every
#: disabled call, so the fast path allocates nothing.
NOOP_SPAN = _NoopSpan()
NOOP_CONTEXT = _NoopContext()


class _SpanContext:
    """Live context manager binding one span to the global tracer."""

    __slots__ = ("_name", "_attrs", "_record")

    def __init__(self, name: str, attrs: dict[str, object]) -> None:
        self._name = name
        self._attrs = attrs
        self._record: SpanRecord | None = None

    def __enter__(self) -> SpanRecord:
        self._record = _config._STATE.tracer.start(self._name, self._attrs)
        return self._record

    def __exit__(self, exc_type, exc, tb) -> bool:
        assert self._record is not None
        if exc_type is not None:
            # Error exits must always finish the span (tagged, and with
            # any leaked child spans unwound) so tracer open_depth never
            # leaks and the failed region stays visible in reports.
            self._record.set("error", exc_type.__name__)
            _config._STATE.tracer.unwind_to(self._record)
        else:
            _config._STATE.tracer.finish(self._record)
        return False


def trace(name: str, **attrs: object) -> _SpanContext | _NoopContext:
    """Context manager timing one named region (a *span*).

    Spans nest: a ``trace`` opened inside another becomes its child in
    the capture. The yielded span supports ``.set(key, value)`` for
    attaching attributes mid-flight. When observability is disabled this
    returns a shared no-op context and records nothing.
    """
    if not _config._STATE.enabled:
        return NOOP_CONTEXT
    return _SpanContext(name, attrs)


class _RequestContext:
    """Root span of one request: allocates and propagates a trace ID.

    Entering the context allocates a fresh ``trace_id``, binds it to the
    current execution context (:mod:`contextvars`, so every span and
    event recorded underneath inherits it — across the whole call
    stack, but never across threads), and asks the tracer to
    buffer the request's finished spans. On exit the collected span tree
    is offered to the exemplar reservoir, which keeps it if the request
    was among the slowest seen or errored.

    Nested requests *join* the enclosing trace instead of allocating a
    second ID: a ``serve.query`` request opened inside a client's own
    request context records its spans under the client's trace, and
    only the outermost context offers the (single, coherent) span tree
    to the reservoir.
    """

    __slots__ = ("_name", "_attrs", "_token", "_record", "_owns")

    def __init__(self, name: str, attrs: dict[str, object]) -> None:
        self._name = name
        self._attrs = attrs
        self._token = None
        self._record: SpanRecord | None = None
        self._owns = True

    def __enter__(self) -> SpanRecord:
        state = _config._STATE
        enclosing = tracing.current_trace_id()
        self._owns = enclosing is None
        trace_id = new_trace_id() if self._owns else enclosing
        self._token = tracing.bind_trace_id(trace_id)
        if self._owns:
            state.tracer.watch(trace_id)
        self._record = state.tracer.start(self._name, self._attrs)
        return self._record

    def __exit__(self, exc_type, exc, tb) -> bool:
        assert self._record is not None and self._token is not None
        state = _config._STATE
        record = self._record
        if exc_type is not None:
            record.set("error", exc_type.__name__)
            state.tracer.unwind_to(record)
        else:
            state.tracer.finish(record)
        tracing.unbind_trace_id(self._token)
        if not self._owns:
            # A joined (nested) request leaves the watch buffer and the
            # exemplar offer to the context that allocated the trace.
            return False
        spans = state.tracer.unwatch(record.trace_id)
        error = record.attrs.get("error")
        flightrec.get_flight_recorder().note_request(
            record.name, record.duration,
            str(error) if error is not None else None, record.trace_id)
        state.exemplars.offer(Exemplar(
            trace_id=record.trace_id, name=record.name,
            duration=record.duration,
            error=str(error) if error is not None else None,
            spans=tuple(s.snapshot() for s in sorted(spans,
                                                     key=lambda s: s.index)),
            attrs=dict(record.attrs)))
        return False


def request(name: str, **attrs: object) -> _RequestContext | _NoopContext:
    """Open a *request* span: a trace-ID-carrying root for one query.

    Like :func:`trace`, but additionally allocates a request trace ID,
    propagates it to the spans and :func:`event` lines recorded inside,
    and offers the request's full span tree to the exemplar reservoir on
    exit. The yielded span's ``trace_id`` attribute is the allocated ID.
    A ``request`` opened inside another request joins the enclosing
    trace (same ID, one reservoir offer by the outermost context). No-op
    when disabled.
    """
    if not _config._STATE.enabled:
        return NOOP_CONTEXT
    return _RequestContext(name, attrs)


def event(name: str, **fields: object) -> None:
    """Append one structured event to the bounded in-process event log.

    Events are the high-cardinality companion to counters: where
    ``count("serve.degraded", reason=...)`` aggregates, an event records
    the *individual occurrence* stamped with wall time and the current
    request's trace ID, so a degraded answer in a capture can be joined
    back to the exact request that produced it. No-op when disabled.
    """
    state = _config._STATE
    if state.enabled:
        state.events.append({
            "type": "event", "name": name, "time": _time.time(),
            "trace_id": tracing.current_trace_id(), **fields,
        })
        flightrec.get_flight_recorder().note_event(name, fields)


def count(name: str, amount: float = 1.0, **labels: str) -> None:
    """Increment the counter *name* (+labels) by *amount*; no-op when off."""
    state = _config._STATE
    if state.enabled:
        state.registry.counter(name, **labels).inc(amount)


def gauge(name: str, value: float, **labels: str) -> None:
    """Set the gauge *name* (+labels) to *value*; no-op when off."""
    state = _config._STATE
    if state.enabled:
        state.registry.gauge(name, **labels).set(value)


def observe_quantile(name: str, value: float, **labels: str) -> None:
    """Record *value* into the streaming-quantile family *name* (+labels).

    The P² sketch behind each child keeps p50/p90/p99 estimates in O(1)
    memory (see :mod:`repro.obs.quantiles`); no-op when observability is
    off. Spans own durations; a sketch is only for a latency whose tail
    an SLO judges (``serve.query.latency`` and ``serve.ingest.latency``,
    :func:`repro.obs.slo.default_serving_slos`). The request behind a
    slow sample is found through the exemplar reservoir, not the sketch.
    """
    state = _config._STATE
    if state.enabled:
        state.registry.quantile(name, **labels).observe(value)


def observe(name: str, value: float, **labels: str) -> None:
    """Retired histogram recorder: records nothing.

    Nothing in the library calls it. Like :func:`profile`, the name stays
    only because the benchmark's tracing recorder wraps it by name; delete
    them together.
    """


def profile(stage: str, **attrs: object) -> _NoopContext:
    """Retired allocation-profiling span: always the shared no-op context.

    Nothing in the library calls it. The name stays only because the
    benchmark's tracing recorder (``bench/tracing.py``, ``OBS_FUNCTIONS``)
    wraps it by name; delete the two together.
    """
    return NOOP_CONTEXT

"""repro.obs — tracing, metrics, and training telemetry.

Observability for the SEM -> NPRec pipeline. Off by default; when off,
every helper here is a cheap no-op (one attribute read, no allocation),
so the instrumented hot paths in the trainers, the de-fuzzing sampler,
the graph builder, and the recommender cost nothing measurable.

Typical capture::

    from repro import obs

    obs.configure(enabled=True, reset=True)
    recommender.fit(corpus, train, new)          # instrumented internally
    print(obs.console_summary())                 # human summary
    obs.write_jsonl("results/obs/run.jsonl")     # machine-readable capture

and later ``python -m repro.obs report results/obs/run.jsonl``.

Instrumenting code::

    with obs.trace("my.stage", size=len(items)) as span:
        ...
        span.set("hits", hits)
    obs.count("my.dropped", n_dropped, reason="threshold")
    obs.gauge("my.queue_depth", depth)
    obs.observe("my.batch_size", len(items))

A span is the one record of a stage's duration: run snapshots carry its
``span.<name>:calls|total|mean`` aggregates, so durations need no
histogram of their own.

The metric/span name vocabulary used by the library itself is documented
in ``docs/API.md`` (section "repro.obs").
"""

from __future__ import annotations

import functools
from typing import Callable, TypeVar

import time as _time

from repro.obs import config as _config
from repro.obs import profiling as _profiling
from repro.obs import flightrec, runs, server, slo, tracing
from repro.obs.config import (
    ObsState,
    configure,
    get_exemplars,
    get_registry,
    get_tracer,
    is_enabled,
    is_profiling,
)
from repro.obs.exemplars import Exemplar, ExemplarReservoir
from repro.obs.emitters import (
    console_summary,
    events,
    lint_exposition,
    prometheus_text,
    read_jsonl,
    render_exemplars,
    render_multi_report,
    render_report,
    set_metric_help,
    write_jsonl,
)
from repro.obs.flightrec import (
    FlightRecorder,
    get_flight_recorder,
    process_snapshot,
)
from repro.obs.server import ObsServer
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.quantiles import DEFAULT_QUANTILES, P2Quantile, Quantile
from repro.obs.tracing import (
    SpanRecord,
    SpanStats,
    Tracer,
    current_trace_id,
    new_trace_id,
)

__all__ = [
    "configure", "is_enabled", "is_profiling", "get_registry", "get_tracer",
    "get_exemplars", "ObsState",
    "trace", "traced", "request", "count", "gauge", "observe",
    "observe_quantile", "event", "profile",
    "current_trace_id", "new_trace_id",
    "Counter", "Gauge", "Histogram", "Quantile", "P2Quantile",
    "MetricsRegistry", "DEFAULT_BUCKETS", "DEFAULT_QUANTILES",
    "Tracer", "SpanRecord", "SpanStats",
    "Exemplar", "ExemplarReservoir",
    "write_jsonl", "read_jsonl", "events", "prometheus_text",
    "lint_exposition", "set_metric_help",
    "console_summary", "render_report", "render_multi_report",
    "render_exemplars",
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
    current execution context (:mod:`contextvars`, so every span, event,
    and metric exemplar recorded underneath inherits it — across the
    whole call stack, but never across threads), and asks the tracer to
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
    propagates it to everything recorded inside (spans, :func:`event`
    lines, histogram/quantile exemplars), and offers the request's full
    span tree to the exemplar reservoir on exit. The yielded span's
    ``trace_id`` attribute is the allocated ID. A ``request`` opened
    inside another request joins the enclosing trace (same ID, one
    reservoir offer by the outermost context). No-op when disabled.
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


_F = TypeVar("_F", bound=Callable)


def traced(name: str | None = None, **attrs: object) -> Callable[[_F], _F]:
    """Decorator form of :func:`trace`; defaults to the function's qualname."""

    def deco(fn: _F) -> _F:
        span_name = name or fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not _config._STATE.enabled:
                return fn(*args, **kwargs)
            with trace(span_name, **attrs):
                return fn(*args, **kwargs)

        return wrapper  # type: ignore[return-value]

    return deco


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


def observe(name: str, value: float, *, trace_id: str | None = None,
            **labels: str) -> None:
    """Record *value* into the histogram *name* (+labels); no-op when off.

    ``trace_id`` pins the max-observation exemplar to a specific request
    instead of the ambient context — needed when the sample (e.g. a
    request span's ``duration``) is only known *after* the request
    context has exited and unbound the ambient ID.
    """
    state = _config._STATE
    if state.enabled:
        state.registry.histogram(name, **labels).observe(
            value, trace_id=trace_id)


def observe_quantile(name: str, value: float, *,
                     trace_id: str | None = None, **labels: str) -> None:
    """Record *value* into the streaming-quantile family *name* (+labels).

    The P² sketch behind each child keeps p50/p90/p99 estimates in O(1)
    memory (see :mod:`repro.obs.quantiles`); no-op when observability is
    off. Spans own durations; a sketch is only for a latency whose tail
    an SLO judges (``serve.query.latency`` and ``serve.ingest.latency``,
    :func:`repro.obs.slo.default_serving_slos`). ``trace_id`` pins the
    exemplar to a specific request (see :func:`observe`).
    """
    state = _config._STATE
    if state.enabled:
        state.registry.quantile(name, **labels).observe(
            value, trace_id=trace_id)


def profile(stage: str, top_n: int = 5, **attrs: object):
    """Allocation-profiling span: ``trace`` plus tracemalloc deltas.

    Opens a span named ``profile.<stage>`` carrying ``alloc_net_kb``,
    ``alloc_peak_kb``, and the top-*top_n* allocation sites as span
    attributes, and records the same numbers into the
    ``profile.net_alloc_kb``/``profile.peak_alloc_kb`` histograms
    (labelled ``stage=...``). Requires *both* ``configure(enabled=True)``
    and ``configure(profiling=True)``; otherwise this is the same shared
    no-op context as a disabled :func:`trace`.
    """
    if not (_config._STATE.enabled and _config._STATE.profiling):
        return NOOP_CONTEXT
    return _profiling.ProfileContext(stage, top_n, attrs)

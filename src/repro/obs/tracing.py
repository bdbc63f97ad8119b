"""Span-based wall-clock tracer with request-level trace IDs.

A :class:`Tracer` records finished :class:`SpanRecord` objects, each
carrying its start offset (relative to the tracer's epoch), duration,
nesting depth, the index of its parent span, and — when the span was
opened inside a request context — the request's ``trace_id``, so
emitters can rebuild per-request call trees without the tracer holding
them. Spans nest through an explicit per-thread stack, so concurrent
serving threads (the batch scheduler's workers) each keep their own
well-formed span tree while appending into one shared, lock-protected
capture.

Trace IDs propagate through :data:`contextvars`: entering a request
context (:func:`repro.obs.request`) allocates an ID and binds it to the
current context, and every span and degradation event recorded
underneath — through ``recommend.rank``, the batch scorer, the
TF-IDF fallback — picks it up without any explicit plumbing. Context
variables are per-thread, so worker threads never see each other's IDs.

Call sites normally go through :func:`repro.obs.trace`, which routes to
the tracer only when observability is enabled.
"""

from __future__ import annotations

import contextvars
import itertools
import threading
import time
from dataclasses import dataclass, field

#: The trace ID bound to the current execution context (``None`` outside
#: any request). Context variables are copied per thread-of-control, so
#: concurrent requests never observe each other's IDs.
_TRACE_ID: contextvars.ContextVar[str | None] = contextvars.ContextVar(
    "repro_obs_trace_id", default=None)

#: Process-lifetime allocator behind :func:`new_trace_id` — never reset,
#: so IDs stay unique across tracer resets within one process.
_TRACE_COUNTER = itertools.count(1)


def new_trace_id() -> str:
    """Allocate a fresh, process-unique request trace ID."""
    # itertools.count.__next__ is atomic under the GIL, so concurrent
    # request entries never collide.
    return f"req-{next(_TRACE_COUNTER):08d}"


def current_trace_id() -> str | None:
    """The trace ID of the enclosing request context, if any."""
    return _TRACE_ID.get()


def bind_trace_id(trace_id: str | None) -> contextvars.Token:
    """Bind *trace_id* to the current context; returns the reset token."""
    return _TRACE_ID.set(trace_id)


def unbind_trace_id(token: contextvars.Token) -> None:
    """Restore the trace-ID binding captured by :func:`bind_trace_id`."""
    _TRACE_ID.reset(token)


@dataclass
class SpanRecord:
    """One finished (or in-flight) traced region.

    ``start`` is seconds since the owning tracer's epoch; ``duration`` is
    0.0 until the span finishes. ``parent`` is the ``index`` of the
    enclosing span, or ``None`` for roots. ``trace_id`` is the request
    the span belongs to (``None`` for spans outside any request).
    """

    name: str
    start: float
    index: int
    depth: int = 0
    parent: int | None = None
    duration: float = 0.0
    trace_id: str | None = None
    attrs: dict[str, object] = field(default_factory=dict)

    def set(self, key: str, value: object) -> None:
        """Attach one attribute (e.g. ``span.set("epoch", 3)``)."""
        self.attrs[key] = value

    def snapshot(self) -> dict[str, object]:
        """JSON-ready dump of this span."""
        return {
            "type": "span", "name": self.name, "index": self.index,
            "parent": self.parent, "depth": self.depth,
            "start": self.start, "duration": self.duration,
            "trace_id": self.trace_id,
            "attrs": dict(self.attrs),
        }


@dataclass(frozen=True)
class SpanStats:
    """Aggregate over every span sharing one name."""

    name: str
    calls: int
    total: float
    min: float
    max: float

    @property
    def mean(self) -> float:
        """Mean duration in seconds."""
        return self.total / self.calls if self.calls else 0.0


class Tracer:
    """Collects spans for one observability session.

    Thread-safe: each thread nests spans on its own stack (a span's
    parent is always in the same thread), while the finished-span list,
    the index counter, and the per-name aggregates share one lock.

    ``max_spans`` bounds the retained finished-span list — a sustained
    load run would otherwise grow it without limit. Aggregates
    (:meth:`aggregate`) are maintained incrementally and keep counting
    evicted spans; ``dropped_spans`` says how many fell off the front.
    """

    def __init__(self, max_spans: int | None = None) -> None:
        if max_spans is not None and max_spans < 1:
            raise ValueError(f"max_spans must be >= 1, got {max_spans}")
        self.epoch_wall = time.time()
        self._epoch_perf = time.perf_counter()
        self.spans: list[SpanRecord] = []
        self.max_spans = max_spans
        self.dropped_spans = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._counter = 0
        #: Spans started but not yet finished, across *all* threads —
        #: the per-thread stacks are thread-local, so reset() needs this
        #: global count to refuse while any thread is mid-span.
        self._open_total = 0
        #: thread ident -> that thread's open-span stack. The stacks are
        #: mutated lock-free by their owning threads; this registry only
        #: lets the flight recorder take a best-effort crash snapshot.
        self._open_stacks: dict[int, list[SpanRecord]] = {}
        #: name -> [calls, total, min, max], survives span eviction.
        self._agg: dict[str, list[float]] = {}
        #: trace_id -> finished spans, for traces someone is watching
        #: (request contexts collecting exemplar span trees).
        self._watched: dict[str, list[SpanRecord]] = {}

    @property
    def _stack(self) -> list[SpanRecord]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            with self._lock:
                self._open_stacks[threading.get_ident()] = stack
        return stack

    # ------------------------------------------------------------------
    def start(self, name: str, attrs: dict[str, object] | None = None) -> SpanRecord:
        """Open a span nested under the current thread's innermost one."""
        stack = self._stack
        with self._lock:
            index = self._counter
            self._counter += 1
            self._open_total += 1
        record = SpanRecord(
            name=name,
            start=time.perf_counter() - self._epoch_perf,
            index=index,
            depth=len(stack),
            parent=stack[-1].index if stack else None,
            trace_id=_TRACE_ID.get(),
            attrs=dict(attrs or {}),
        )
        stack.append(record)
        return record

    def finish(self, record: SpanRecord) -> SpanRecord:
        """Close *record*; it must be this thread's innermost open span."""
        stack = self._stack
        if not stack or stack[-1] is not record:
            raise RuntimeError(
                f"span nesting violated: finishing {record.name!r} but the "
                f"innermost open span is "
                f"{stack[-1].name if stack else None!r}"
            )
        stack.pop()
        record.duration = time.perf_counter() - self._epoch_perf - record.start
        with self._lock:
            self._open_total -= 1
            self.spans.append(record)
            if (self.max_spans is not None
                    and len(self.spans) > self.max_spans):
                excess = len(self.spans) - self.max_spans
                del self.spans[:excess]
                self.dropped_spans += excess
            agg = self._agg.get(record.name)
            if agg is None:
                self._agg[record.name] = [1, record.duration,
                                          record.duration, record.duration]
            else:
                agg[0] += 1
                agg[1] += record.duration
                agg[2] = min(agg[2], record.duration)
                agg[3] = max(agg[3], record.duration)
            if record.trace_id is not None:
                buffer = self._watched.get(record.trace_id)
                if buffer is not None:
                    buffer.append(record)
        return record

    def unwind_to(self, record: SpanRecord) -> SpanRecord:
        """Finish *record* even if descendants were left open.

        The error-path companion of :meth:`finish`: when an exception
        propagates out of a span whose children were opened with a bare
        :meth:`start` and never finished (an instrumented function that
        raised mid-flight), strict :meth:`finish` would itself raise and
        mask the original exception — and leave ``open_depth`` leaked,
        poisoning every later capture. Here the still-open descendants
        are closed innermost-first (tagged ``leaked=True``) before
        *record* is finished normally.
        """
        stack = self._stack
        if record not in stack:
            raise RuntimeError(
                f"cannot unwind to {record.name!r}: span is not open")
        while stack[-1] is not record:
            leaked = stack[-1]
            leaked.set("leaked", True)
            self.finish(leaked)
        return self.finish(record)

    # ------------------------------------------------------------------
    # Per-trace watch buffers (exemplar capture)
    # ------------------------------------------------------------------
    def watch(self, trace_id: str) -> None:
        """Start collecting the finished spans of *trace_id*."""
        with self._lock:
            self._watched.setdefault(trace_id, [])

    def unwatch(self, trace_id: str) -> list[SpanRecord]:
        """Stop watching *trace_id*; returns its spans in finish order."""
        with self._lock:
            return self._watched.pop(trace_id, [])

    # ------------------------------------------------------------------
    @property
    def open_depth(self) -> int:
        """How many spans the *current thread* has open."""
        return len(self._stack)

    def open_spans(self) -> dict[int, list[dict[str, object]]]:
        """Best-effort snapshot of every thread's open span stack.

        Maps thread ident to outermost-first span snapshots for every
        thread with at least one span currently open. The owning threads
        mutate their stacks without the lock, so a stack caught
        mid-mutation may be one span stale — acceptable for the flight
        recorder's postmortem bundles, which only need to say *where*
        each thread was when the process died.
        """
        with self._lock:
            stacks = {tid: list(stack)
                      for tid, stack in self._open_stacks.items() if stack}
        return {tid: [span.snapshot() for span in stack]
                for tid, stack in stacks.items()}

    def ordered(self) -> list[SpanRecord]:
        """Finished spans in start order (``spans`` is finish order)."""
        with self._lock:
            return sorted(self.spans, key=lambda s: s.index)

    def aggregate(self) -> dict[str, SpanStats]:
        """Per-name call counts and duration statistics, name-sorted.

        Incremental: includes spans evicted under ``max_spans``.
        """
        with self._lock:
            return {
                name: SpanStats(name=name, calls=int(agg[0]), total=agg[1],
                                min=agg[2], max=agg[3])
                for name, agg in sorted(self._agg.items())
            }

    def reset(self) -> None:
        """Drop all finished spans and restart the epoch.

        Refuses while *any* thread — not just the caller's — has open
        spans: those would otherwise finish into the cleared list with
        stale parent indexes and the new epoch, corrupting the capture.
        """
        with self._lock:
            if self._open_total:
                raise RuntimeError(
                    f"cannot reset tracer with {self._open_total} "
                    "open span(s)")
            self.spans.clear()
            self._agg.clear()
            self._watched.clear()
            self._counter = 0
            self.dropped_spans = 0
            self.epoch_wall = time.time()
            self._epoch_perf = time.perf_counter()

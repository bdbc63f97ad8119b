"""Process-wide observability state.

A single :class:`ObsState` holds the enabled flag, the metrics registry,
and the tracer. Observability is **off by default**: every instrumented
call site checks ``state.enabled`` first and returns immediately when it
is false, so the instrumentation costs one attribute read on the cold
path. :func:`configure` flips the flag and optionally resets the stores
between captured runs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.obs.exemplars import ExemplarReservoir
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer

#: Bound on the structured event log (degradation events and the like);
#: old events fall off the front under sustained load.
MAX_EVENTS = 4096


@dataclass
class ObsState:
    """The mutable observability singleton (one per process)."""

    enabled: bool
    registry: MetricsRegistry
    tracer: Tracer
    #: Request exemplars: span trees of the slowest / errored requests.
    exemplars: ExemplarReservoir = field(default_factory=ExemplarReservoir)
    #: Structured event log (`obs.event`): bounded, trace-ID-stamped.
    events: deque = field(default_factory=lambda: deque(maxlen=MAX_EVENTS))


_STATE = ObsState(enabled=False, registry=MetricsRegistry(), tracer=Tracer())


def configure(enabled: bool | None = None, *, max_spans: int | None = None,
              reset: bool = False) -> ObsState:
    """Adjust the global observability state; returns it.

    Parameters
    ----------
    enabled:
        ``True`` turns instrumentation on, ``False`` off; ``None`` leaves
        the flag unchanged (useful with ``reset=True``).
    max_spans:
        Bound the tracer's retained finished-span list (load runs would
        otherwise grow it without limit; span *aggregates* keep counting
        evicted spans). ``None`` leaves the current bound unchanged.
    reset:
        Clear all recorded metrics, spans, events, and exemplars first
        (fails if a span is still open — that indicates a leaked
        ``trace`` context).
    """
    if reset:
        _STATE.tracer.reset()
        _STATE.registry.reset()
        _STATE.exemplars.reset()
        _STATE.events.clear()
    if max_spans is not None:
        _STATE.tracer.max_spans = max_spans
    if enabled is not None:
        _STATE.enabled = bool(enabled)
    return _STATE


def is_enabled() -> bool:
    """Whether instrumented call sites currently record anything."""
    return _STATE.enabled


def get_registry() -> MetricsRegistry:
    """The process-wide metrics registry."""
    return _STATE.registry


def get_tracer() -> Tracer:
    """The process-wide tracer."""
    return _STATE.tracer


def get_exemplars() -> ExemplarReservoir:
    """The process-wide request-exemplar reservoir."""
    return _STATE.exemplars

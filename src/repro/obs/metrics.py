"""Label-aware metric primitives: counters, gauges, histograms.

The registry follows the Prometheus data model in miniature: a metric
*family* is identified by name and kind, and each distinct label set under
a family owns one child metric. Everything is plain Python with no
dependencies so the module imports in microseconds and can be pulled into
any layer of the library without cycles.

Metric names are dotted (``nprec.train.grad_steps``); the Prometheus
renderer in :mod:`repro.obs.emitters` maps dots to underscores.

Thread-safe: serving threads and scheduler workers update metrics
concurrently, so get-or-create in the registry holds a registry lock and
every child metric serialises its own read-modify-write updates (counter
increments, P² marker adjustments, histogram buckets) behind a per-child
lock. Snapshots take the same locks, so a capture written mid-run is
internally consistent per child.
"""

from __future__ import annotations

import math
import threading
from typing import Iterator

from repro.obs.quantiles import Quantile
from repro.obs.tracing import current_trace_id

#: Default histogram bucket upper bounds (seconds-flavoured, works for
#: latencies and for small unit-less values alike).
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0,
)

#: Canonical key for one label set: sorted (key, value) pairs.
LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, str]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing count (e.g. gradient steps, dropped pairs)."""

    kind = "counter"
    __slots__ = ("name", "labels", "value", "_lock")

    def __init__(self, name: str, labels: dict[str, str] | None = None) -> None:
        self.name = name
        self.labels = dict(labels or {})
        self.value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        """Add *amount* (must be >= 0) to the running total."""
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        with self._lock:
            self.value += amount

    def snapshot(self) -> dict[str, object]:
        """JSON-ready state of this child metric."""
        return {"value": self.value}


class Gauge:
    """Point-in-time value that can move both ways (e.g. node counts)."""

    kind = "gauge"
    __slots__ = ("name", "labels", "value", "_lock")

    def __init__(self, name: str, labels: dict[str, str] | None = None) -> None:
        self.name = name
        self.labels = dict(labels or {})
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        """Replace the current value."""
        with self._lock:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Shift the current value by *amount* (may be negative)."""
        with self._lock:
            self.value += amount

    def snapshot(self) -> dict[str, object]:
        """JSON-ready state of this child metric."""
        return {"value": self.value}


class Histogram:
    """Streaming distribution summary with Prometheus-style buckets.

    Tracks count, sum, min, max and per-bucket counts; ``bucket_counts``
    are *cumulative* (each bucket includes everything below its bound),
    matching the ``le`` semantics of the Prometheus text format.
    """

    kind = "histogram"
    __slots__ = ("name", "labels", "buckets", "bucket_counts", "count",
                 "sum", "min", "max", "exemplar", "_lock")

    def __init__(self, name: str, labels: dict[str, str] | None = None,
                 buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("buckets must be a non-empty ascending sequence")
        self.name = name
        self.labels = dict(labels or {})
        self.buckets = tuple(float(b) for b in buckets)
        self.bucket_counts = [0] * len(self.buckets)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        #: Trace-ID exemplar of the worst (max) observation recorded
        #: inside a request context — joins the p99 tail back to one
        #: concrete request's span tree in the same capture.
        self.exemplar: dict[str, object] | None = None
        self._lock = threading.Lock()

    def observe(self, value: float, *, trace_id: str | None = None) -> None:
        """Record one sample.

        ``trace_id`` overrides the ambient request context for the
        max-observation exemplar — call sites that record a request
        span's duration *after* its context has exited (and unbound the
        ambient ID) pass the span's own ``trace_id`` here.
        """
        value = float(value)
        with self._lock:
            self.count += 1
            self.sum += value
            self.min = min(self.min, value)
            if value >= self.max:
                self.max = value
                tid = trace_id if trace_id is not None else current_trace_id()
                if tid is not None:
                    self.exemplar = {"trace_id": tid, "value": value}
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    self.bucket_counts[i] += 1

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observations (0.0 when empty)."""
        return self.sum / self.count if self.count else 0.0

    def snapshot(self) -> dict[str, object]:
        """JSON-ready state of this child metric."""
        with self._lock:
            snap: dict[str, object] = {
                "count": self.count,
                "sum": self.sum,
                "min": self.min if self.count else None,
                "max": self.max if self.count else None,
                "buckets": [list(pair) for pair in zip(self.buckets,
                                                       self.bucket_counts)],
            }
            if self.exemplar is not None:
                snap["exemplar"] = dict(self.exemplar)
            return snap


#: Any concrete metric child.
Metric = Counter | Gauge | Histogram | Quantile


class _Family:
    """All children of one (name, kind) pair, keyed by label set."""

    __slots__ = ("name", "kind", "children")

    def __init__(self, name: str, kind: str) -> None:
        self.name = name
        self.kind = kind
        self.children: dict[LabelKey, Metric] = {}


class MetricsRegistry:
    """Owner of every metric family; one per observability session.

    ``counter``/``gauge``/``histogram`` are get-or-create: the first call
    with a given name fixes the kind, and later calls with a conflicting
    kind raise so a name can never silently mean two things.
    """

    def __init__(self) -> None:
        self._families: dict[str, _Family] = {}
        # Guards family/child get-or-create and structural reads: two
        # threads racing the first observation of one (name, labels)
        # must receive the *same* child, never two (one of which would
        # silently swallow a thread's observations).
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def _child(self, kind: str, name: str, labels: dict[str, str],
               factory) -> Metric:
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = _Family(name, kind)
                self._families[name] = family
            elif family.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as a {family.kind}, "
                    f"cannot re-register as a {kind}"
                )
            key = _label_key(labels)
            child = family.children.get(key)
            if child is None:
                child = factory()
                family.children[key] = child
            return child

    def counter(self, name: str, **labels: str) -> Counter:
        """Get or create the counter child for *name* + *labels*."""
        return self._child("counter", name, labels,
                           lambda: Counter(name, labels))

    def gauge(self, name: str, **labels: str) -> Gauge:
        """Get or create the gauge child for *name* + *labels*."""
        return self._child("gauge", name, labels,
                           lambda: Gauge(name, labels))

    def histogram(self, name: str, buckets: tuple[float, ...] = DEFAULT_BUCKETS,
                  **labels: str) -> Histogram:
        """Get or create the histogram child for *name* + *labels*."""
        return self._child("histogram", name, labels,
                           lambda: Histogram(name, labels, buckets))

    def quantile(self, name: str, **labels: str) -> Quantile:
        """Get or create the streaming-quantile child for *name* + *labels*."""
        return self._child("quantile", name, labels,
                           lambda: Quantile(name, labels))

    # ------------------------------------------------------------------
    def get(self, name: str, **labels: str) -> Metric | None:
        """Look up an existing child without creating it."""
        with self._lock:
            family = self._families.get(name)
            if family is None:
                return None
            return family.children.get(_label_key(labels))

    def family(self, name: str) -> list[Metric]:
        """Every child of family *name* (empty when unregistered)."""
        with self._lock:
            family = self._families.get(name)
            if family is None:
                return []
            return [family.children[key] for key in sorted(family.children)]

    def family_total(self, name: str) -> float:
        """Sum of a counter/gauge family's values across all label sets.

        SLO error budgets are defined over *families* (every
        ``serve.degraded`` reason counts against the budget), so the
        label breakdown is summed away here. Histogram/quantile families
        have no single value and raise.
        """
        total = 0.0
        for child in self.family(name):
            if not isinstance(child, (Counter, Gauge)):
                raise ValueError(
                    f"family_total over {name!r} needs counters/gauges, "
                    f"found a {child.kind}")
            total += child.value
        return total

    def collect(self) -> Iterator[Metric]:
        """All children, grouped by family, families in name order."""
        # Materialised under the lock so iteration never races a
        # concurrent registration (dict-changed-during-iteration).
        with self._lock:
            children = [self._families[name].children[key]
                        for name in sorted(self._families)
                        for key in sorted(self._families[name].children)]
        yield from children

    def snapshot(self) -> list[dict[str, object]]:
        """JSON-ready dump of every child metric."""
        return [
            {"type": "metric", "kind": metric.kind, "name": metric.name,
             "labels": dict(metric.labels), **metric.snapshot()}
            for metric in self.collect()
        ]

    def reset(self) -> None:
        """Drop every family (used between captured runs)."""
        with self._lock:
            self._families.clear()

    def __len__(self) -> int:
        with self._lock:
            return sum(len(f.children) for f in self._families.values())

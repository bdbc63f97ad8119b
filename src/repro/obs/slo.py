"""Declarative service-level objectives over the metrics registry.

Two SLO shapes cover the serving stack:

- :class:`LatencySLO` — "p99 of ``serve.query.latency`` stays under
  250ms". Evaluated against the :class:`~repro.obs.quantiles.Quantile`
  family of the same name; with several label sets the *worst* child is
  the one judged (an SLO met only on average is not met).
- :class:`ErrorRateSLO` — "``serve.degraded`` stays under 5% of
  ``serve.queries``". Counter families are summed across label sets
  (every degradation reason burns the same budget). Lifetime totals are
  judged by :meth:`ErrorRateSLO.evaluate`; :class:`SLOMonitor` instead
  samples the counters over a rolling window and reports the **burn
  rate** (observed windowed error rate / budget — 1.0 means the budget
  is being consumed exactly as fast as allowed).

SLOs with no data (metric never recorded, denominator still zero)
evaluate as ``ok`` with ``no_data=True`` — an idle service is not a
breached one.

A process-wide SLO registry (:func:`register_slo`) lets the serving
layer publish its objectives once and have ``ServingIndex.health()`` /
``python -m repro.serve health`` evaluate them without plumbing objects
through every call site.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro.obs import config
from repro.obs.metrics import Gauge, MetricsRegistry
from repro.obs.quantiles import Quantile


@dataclass(frozen=True)
class SLOStatus:
    """Outcome of evaluating one SLO once."""

    slo: str
    kind: str
    ok: bool
    observed: float | None
    target: float
    no_data: bool = False
    burn_rate: float | None = None
    detail: str = ""

    def snapshot(self) -> dict[str, object]:
        """JSON-ready dump (health reports, JSONL alert sink)."""
        return {
            "slo": self.slo, "kind": self.kind, "ok": self.ok,
            "observed": self.observed, "target": self.target,
            "no_data": self.no_data, "burn_rate": self.burn_rate,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class LatencySLO:
    """Quantile-of-latency objective over one Quantile metric family."""

    name: str
    metric: str
    quantile: float = 0.99
    threshold: float = 0.25
    description: str = ""
    kind = "latency"

    def __post_init__(self) -> None:
        if not 0.0 < self.quantile < 1.0:
            raise ValueError(f"quantile must be in (0, 1), got {self.quantile}")
        if self.threshold <= 0:
            raise ValueError(f"threshold must be > 0, got {self.threshold}")

    def evaluate(self, registry: MetricsRegistry | None = None) -> SLOStatus:
        """Judge the worst label-set child of the tracked quantile family."""
        registry = registry if registry is not None else config.get_registry()
        worst: float | None = None
        for child in registry.family(self.metric):
            if not isinstance(child, Quantile) or child.count == 0:
                continue
            if self.quantile in child.quantiles:
                estimate = child.estimate(self.quantile)
            else:
                # Fall back to the nearest tracked quantile at or above
                # the objective (conservative: never under-reports).
                higher = [q for q in child.quantiles if q >= self.quantile]
                estimate = child.estimate(min(higher) if higher
                                          else child.quantiles[-1])
            if estimate is not None and (worst is None or estimate > worst):
                worst = estimate
        if worst is None:
            return SLOStatus(self.name, self.kind, ok=True, observed=None,
                             target=self.threshold, no_data=True,
                             detail=f"no samples in {self.metric!r}")
        return SLOStatus(
            self.name, self.kind, ok=worst <= self.threshold, observed=worst,
            target=self.threshold,
            detail=(f"p{format(self.quantile * 100, 'g')} of {self.metric} = "
                    f"{worst:.4g}s vs target {self.threshold:.4g}s"))


@dataclass(frozen=True)
class ErrorRateSLO:
    """Error-budget objective: numerator/denominator counter families."""

    name: str
    numerator: str
    denominator: str
    budget: float = 0.05
    window: float = 300.0
    description: str = ""
    kind = "error_rate"

    def __post_init__(self) -> None:
        if not 0.0 < self.budget < 1.0:
            raise ValueError(f"budget must be in (0, 1), got {self.budget}")
        if self.window <= 0:
            raise ValueError(f"window must be > 0, got {self.window}")

    def totals(self, registry: MetricsRegistry | None = None) -> tuple[float, float]:
        """Current lifetime (numerator, denominator) family totals."""
        registry = registry if registry is not None else config.get_registry()
        return (registry.family_total(self.numerator),
                registry.family_total(self.denominator))

    def judge(self, errors: float, total: float) -> SLOStatus:
        """Status for an (errors, total) pair — windowed or lifetime."""
        if total <= 0:
            return SLOStatus(self.name, self.kind, ok=True, observed=None,
                             target=self.budget, no_data=True,
                             detail=f"no traffic in {self.denominator!r}")
        rate = errors / total
        return SLOStatus(
            self.name, self.kind, ok=rate <= self.budget, observed=rate,
            target=self.budget, burn_rate=rate / self.budget,
            detail=(f"{self.numerator}/{self.denominator} = "
                    f"{errors:g}/{total:g} = {rate:.4f} vs budget "
                    f"{self.budget:g} (burn rate {rate / self.budget:.2f})"))

    def evaluate(self, registry: MetricsRegistry | None = None) -> SLOStatus:
        """Judge the lifetime totals (no window; see :class:`SLOMonitor`)."""
        return self.judge(*self.totals(registry))


@dataclass(frozen=True)
class GaugeBoundSLO:
    """Upper-bound objective over one gauge metric family.

    "``serve.wal.lag`` stays under 10,000 records" — judged against the
    *largest* label-set child of the tracked gauge family (a bound met
    only on average is not met, matching :class:`LatencySLO`). A gauge
    that has never been set evaluates as ``ok`` with ``no_data=True``.
    """

    name: str
    metric: str
    bound: float
    description: str = ""
    kind = "gauge_bound"

    def __post_init__(self) -> None:
        if self.bound <= 0:
            raise ValueError(f"bound must be > 0, got {self.bound}")

    def evaluate(self, registry: MetricsRegistry | None = None) -> SLOStatus:
        """Judge the worst (largest) child of the tracked gauge family."""
        registry = registry if registry is not None else config.get_registry()
        worst: float | None = None
        for child in registry.family(self.metric):
            if not isinstance(child, Gauge):
                continue
            if worst is None or child.value > worst:
                worst = child.value
        if worst is None:
            return SLOStatus(self.name, self.kind, ok=True, observed=None,
                             target=self.bound, no_data=True,
                             detail=f"gauge {self.metric!r} never set")
        return SLOStatus(
            self.name, self.kind, ok=worst <= self.bound, observed=worst,
            target=self.bound, burn_rate=worst / self.bound,
            detail=(f"{self.metric} = {worst:g} vs bound {self.bound:g} "
                    f"(burn rate {worst / self.bound:.2f})"))


#: Anything evaluable as an SLO.
SLO = LatencySLO | ErrorRateSLO | GaugeBoundSLO


@dataclass
class _Sample:
    time: float
    errors: float
    total: float


class SLOMonitor:
    """Rolling-window evaluation of a set of SLOs.

    Each :meth:`check` call samples the registry once; error-rate SLOs
    are judged on the delta between the oldest in-window sample and now
    (true burn rate over the window), latency SLOs on the current sketch
    state. The clock is injectable so windowed behaviour is
    deterministically testable.
    """

    def __init__(self, slos: "list[SLO] | None" = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.slos: list[SLO] = list(slos) if slos is not None else []
        self._clock = clock
        self._history: dict[str, deque[_Sample]] = {}

    def check(self, registry: MetricsRegistry | None = None) -> list[SLOStatus]:
        """Evaluate every SLO once; return all statuses."""
        now = self._clock()
        statuses: list[SLOStatus] = []
        for slo in self.slos:
            if isinstance(slo, ErrorRateSLO):
                errors, total = slo.totals(registry)
                window = self._history.setdefault(slo.name, deque())
                window.append(_Sample(now, errors, total))
                while window and window[0].time < now - slo.window:
                    window.popleft()
                oldest = window[0]
                status = slo.judge(errors - oldest.errors,
                                   total - oldest.total)
            else:
                status = slo.evaluate(registry)
            statuses.append(status)
        return statuses


# ----------------------------------------------------------------------
# Process-wide SLO registry
# ----------------------------------------------------------------------
_REGISTERED: dict[str, SLO] = {}


def register_slo(slo: SLO, replace: bool = True) -> SLO:
    """Publish *slo* under its name; returns the registered instance.

    With ``replace=False`` an existing registration under the same name
    wins (used by library defaults so operator overrides stick).
    """
    if not replace and slo.name in _REGISTERED:
        return _REGISTERED[slo.name]
    _REGISTERED[slo.name] = slo
    return slo


def unregister_slo(name: str) -> None:
    """Remove one registration (missing names are ignored)."""
    _REGISTERED.pop(name, None)


def clear_slos() -> None:
    """Drop every registered SLO (test isolation)."""
    _REGISTERED.clear()


def registered_slos() -> list[SLO]:
    """Registered SLOs in name order."""
    return [_REGISTERED[name] for name in sorted(_REGISTERED)]


def evaluate_registered(registry: MetricsRegistry | None = None) -> list[SLOStatus]:
    """Evaluate every registered SLO against *registry* (default global)."""
    return [slo.evaluate(registry) for slo in registered_slos()]


def default_serving_slos() -> tuple[SLO, ...]:
    """The serving stack's built-in objectives.

    Registered (non-destructively) by :class:`repro.serve.index.ServingIndex`
    so ``health()`` and the ``serve health`` CLI always have something to
    report; thresholds are deliberately generous for laptop-scale runs.
    """
    return (
        LatencySLO("serve.query.p99", metric="serve.query.latency",
                   quantile=0.99, threshold=0.25,
                   description="top-K query p99 under 250ms"),
        LatencySLO("serve.ingest.p99", metric="serve.ingest.latency",
                   quantile=0.99, threshold=5.0,
                   description="cold-start ingestion p99 under 5s"),
        ErrorRateSLO("serve.error_budget", numerator="serve.degraded",
                     denominator="serve.queries", budget=0.05,
                     description="under 5% of queries degraded"),
    )


def wal_lag_slo(bound: int = 10_000) -> GaugeBoundSLO:
    """Compaction-lag objective for the serving write-ahead log.

    Registered (non-destructively) by
    :meth:`repro.serve.index.ServingIndex.attach_wal`: once the
    ``serve.wal.lag`` gauge crosses *bound* records, ``health()`` and
    ``python -m repro.serve health`` report a breach — the log has grown
    past the point where replay-on-restart is cheap, and the operator
    should run ``python -m repro.serve compact``.
    """
    return GaugeBoundSLO("serve.wal.lag", metric="serve.wal.lag",
                         bound=float(bound),
                         description=f"WAL under {bound} records "
                                     "since last compaction")

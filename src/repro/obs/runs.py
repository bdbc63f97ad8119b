"""Run registry: schema-versioned capture snapshots plus regression gating.

Every benchmark or training capture can be frozen into one JSON snapshot
(``results/obs/runs/<run_id>.json``) carrying the git SHA, free-form
metadata (seed, scale, ...), per-metric summaries, and per-span-name
duration aggregates. Two snapshots are comparable field by field:

- ``python -m repro.obs diff A B`` renders every shared metric's delta;
- ``python -m repro.obs check RUN --baseline FILE --tolerance T`` exits
  nonzero when a *gated* metric regressed beyond tolerance — the CI perf
  gate.

What gates: a metric key's direction is classified from its name.
Span totals and means, latency/duration keys, ANN scan fractions, and
failure-ish counters (degraded, dropped, faults, guard trips, ...)
regress upward;
accuracy/agreement/recall@K regress downward — the ANN recall gate
rides on this; everything else (structural gauges, throughput
counters whose "good" direction is ambiguous) is compared in ``diff``
but never fails ``check``. Timing keys get their own (far looser)
tolerance since wall-clock varies across machines; counter/gauge keys
are deterministic for a fixed seed and use the tight tolerance.
"""

from __future__ import annotations

import json
import pathlib
import re
import subprocess
import time
import uuid
from dataclasses import dataclass

from repro.obs import config
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer

#: Bump on any incompatible snapshot layout change.
SCHEMA_VERSION = 1

#: Metric-key fragments whose growth is a regression (latency,
#: failures) vs whose shrinkage is one (quality scores).
_LOWER_IS_BETTER = re.compile(
    r"latency|duration|seconds|degraded|dropped|skipped|underfilled|"
    r"failures|faults|guard\.trips|retries_exhausted|corrupt|rollbacks|"
    r"errors|error_rate|scan_fraction|[._]shed|torn_records|rolled_back|"
    r"wal\.lag")
_HIGHER_IS_BETTER = re.compile(r"accuracy|agreement|recall|achieved_qps|"
                               r"throughput")
#: Keys that measure wall-clock or machine-dependent rates and therefore
#: gate with the looser tolerance. Every ``span.`` key is a duration.
_TIMING = re.compile(r"^span\.|latency|duration|seconds|qps|throughput")


def git_sha() -> str | None:
    """Current commit SHA, or ``None`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10, cwd=pathlib.Path(__file__).resolve().parent)
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def capture_run(run_id: str | None = None,
                meta: dict[str, object] | None = None,
                registry: MetricsRegistry | None = None,
                tracer: Tracer | None = None) -> dict[str, object]:
    """Freeze the live capture into one JSON-ready run snapshot."""
    registry = registry if registry is not None else config.get_registry()
    tracer = tracer if tracer is not None else config.get_tracer()
    if run_id is None:
        run_id = (time.strftime("run-%Y%m%d-%H%M%S")
                  + "-" + uuid.uuid4().hex[:8])
    spans = {
        name: {"calls": stats.calls, "total": stats.total,
               "mean": stats.mean, "max": stats.max}
        for name, stats in tracer.aggregate().items()
    }
    return {
        "schema_version": SCHEMA_VERSION,
        "run_id": run_id,
        "created": time.time(),
        "git_sha": git_sha(),
        "meta": dict(meta or {}),
        "metrics": registry.snapshot(),
        "spans": spans,
    }


def write_run(directory: "str | pathlib.Path",
              run_id: str | None = None,
              meta: dict[str, object] | None = None,
              registry: MetricsRegistry | None = None,
              tracer: Tracer | None = None) -> pathlib.Path:
    """Capture and persist a snapshot under ``<directory>/<run_id>.json``."""
    snapshot = capture_run(run_id, meta, registry, tracer)
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{snapshot['run_id']}.json"
    path.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def load_run(path: "str | pathlib.Path") -> dict[str, object]:
    """Parse and schema-check a snapshot written by :func:`write_run`."""
    path = pathlib.Path(path)
    try:
        snapshot = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not a valid run snapshot: {exc}") from None
    if not isinstance(snapshot, dict) or "schema_version" not in snapshot:
        raise ValueError(f"{path}: missing schema_version — not a run snapshot")
    version = snapshot["schema_version"]
    if version != SCHEMA_VERSION:
        raise ValueError(f"{path}: snapshot schema v{version} is not "
                         f"supported (expected v{SCHEMA_VERSION})")
    return snapshot


# ----------------------------------------------------------------------
# Flattening and comparison
# ----------------------------------------------------------------------
def _metric_key(event: dict[str, object], fld: str) -> str:
    labels = event.get("labels") or {}
    label_str = ("{" + ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
                 + "}") if labels else ""
    return f"{event['name']}{label_str}:{fld}"


def flatten(snapshot: dict[str, object]) -> dict[str, float]:
    """One scalar per comparable quantity in a run snapshot.

    Counters/gauges contribute ``name{labels}:value``; quantiles
    contribute ``:count``, ``:mean`` and ``:p50``-style estimate keys;
    span aggregates contribute ``span.<name>:calls|total|mean``.
    """
    flat: dict[str, float] = {}
    for event in snapshot.get("metrics", []):
        kind = event.get("kind")
        if kind in ("counter", "gauge"):
            flat[_metric_key(event, "value")] = float(event["value"])
        elif kind == "quantile":
            count = int(event["count"])
            flat[_metric_key(event, "count")] = float(count)
            if count:
                flat[_metric_key(event, "mean")] = float(event["sum"]) / count
                for q, estimate in (event.get("quantiles") or {}).items():
                    if estimate is not None:
                        key = _metric_key(event,
                                          f"p{format(float(q) * 100, 'g')}")
                        flat[key] = float(estimate)
    for name, stats in (snapshot.get("spans") or {}).items():
        flat[f"span.{name}:calls"] = float(stats["calls"])
        flat[f"span.{name}:total"] = float(stats["total"])
        flat[f"span.{name}:mean"] = float(stats["mean"])
    return flat


def classify(key: str) -> str | None:
    """``"lower"``/``"higher"``-is-better, or ``None`` (not gated)."""
    if key.endswith((":count", ":calls")):
        # Observation/call volume is workload, not quality — a run that
        # answered more queries did not regress.
        return None
    if key.startswith("span.") or _LOWER_IS_BETTER.search(key):
        # A span's total/mean is the stage's wall clock.
        return "lower"
    if _HIGHER_IS_BETTER.search(key):
        return "higher"
    return None


def is_timing(key: str) -> bool:
    """Whether *key* measures wall clock (loose-tolerance gated)."""
    return bool(_TIMING.search(key))


@dataclass(frozen=True)
class Delta:
    """One metric key compared across two snapshots."""

    key: str
    baseline: float | None
    current: float | None
    direction: str | None  # "lower"/"higher"-is-better, None = ungated

    @property
    def change(self) -> float | None:
        """Relative change vs baseline (None when not computable)."""
        if self.baseline is None or self.current is None:
            return None
        if self.baseline == 0:
            return None if self.current == 0 else float("inf")
        return (self.current - self.baseline) / abs(self.baseline)

    def regression(self, tolerance: float, timing_tolerance: float) -> bool:
        """Did this key get *worse* beyond its applicable tolerance?"""
        if self.direction is None or self.baseline is None \
                or self.current is None:
            return False
        budget = timing_tolerance if is_timing(self.key) else tolerance
        worse = (self.current - self.baseline if self.direction == "lower"
                 else self.baseline - self.current)
        if worse <= 0:
            return False
        if self.baseline == 0:
            # From exactly zero any worsening is real (counters of
            # failures); timing keys never have an exact-zero baseline.
            return True
        return worse / abs(self.baseline) > budget


def diff_runs(baseline: dict[str, object],
              current: dict[str, object]) -> list[Delta]:
    """Per-key deltas over the union of both snapshots' flattened keys."""
    flat_base = flatten(baseline)
    flat_cur = flatten(current)
    return [
        Delta(key, flat_base.get(key), flat_cur.get(key), classify(key))
        for key in sorted(set(flat_base) | set(flat_cur))
    ]


def check_runs(baseline: dict[str, object], current: dict[str, object],
               tolerance: float = 0.1,
               timing_tolerance: float = 5.0) -> list[Delta]:
    """The deltas that regressed beyond tolerance (empty == gate passes)."""
    return [d for d in diff_runs(baseline, current)
            if d.regression(tolerance, timing_tolerance)]


def render_diff(deltas: list[Delta], only_changed: bool = False) -> str:
    """Fixed-width table of per-key deltas (``diff`` CLI output)."""
    rows: list[tuple[str, str, str, str, str]] = []
    for delta in deltas:
        if only_changed and delta.baseline == delta.current:
            continue
        fmt = lambda v: "-" if v is None else f"{v:.6g}"
        change = delta.change
        if change is None:
            change_str = "-" if delta.baseline is not None else "new"
        else:
            change_str = f"{change * 100:+.1f}%"
        marker = {"lower": "v", "higher": "^"}.get(delta.direction, " ")
        rows.append((delta.key, fmt(delta.baseline), fmt(delta.current),
                     change_str, marker))
    if not rows:
        return "(no metrics to compare)"
    widths = [max(len(r[i]) for r in rows) for i in range(4)]
    header = (f"{'metric'.ljust(widths[0])}  {'baseline'.rjust(widths[1])}  "
              f"{'current'.rjust(widths[2])}  {'change'.rjust(widths[3])}")
    lines = [header, "-" * len(header)]
    for key, base, cur, change, marker in rows:
        lines.append(f"{key.ljust(widths[0])}  {base.rjust(widths[1])}  "
                     f"{cur.rjust(widths[2])}  {change.rjust(widths[3])}  "
                     f"{marker}")
    lines.append("")
    lines.append("(v = lower is better, ^ = higher is better, "
                 "blank = informational)")
    return "\n".join(lines)

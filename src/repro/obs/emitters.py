"""Exporters for captured observability data.

Two output formats, both derived from the same registry + tracer pair:

- :func:`write_jsonl` — one JSON object per line (a ``meta`` header,
  then spans in start order, metric snapshots, events and exemplars);
  benchmarks write it and CI uploads it.
- :func:`prometheus_text` — the Prometheus text exposition format that
  the ops plane's ``GET /metrics`` serves.
"""

from __future__ import annotations

import json
import math
import pathlib
import re

from repro.obs import config
from repro.obs.metrics import Counter, Gauge, MetricsRegistry
from repro.obs.tracing import Tracer

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str) -> str:
    """Map a dotted metric name to a legal Prometheus metric name."""
    sanitized = _NAME_RE.sub("_", name)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return "repro_" + sanitized


def _escape_label(value: object) -> str:
    # Prometheus label values escape backslash, double quote, and (per
    # the exposition-format spec) line feeds — a value containing a raw
    # newline would otherwise split the sample line in two.
    return (str(value).replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _prom_labels(labels: dict[str, str], extra: dict[str, str] | None = None) -> str:
    merged = {**labels, **(extra or {})}
    if not merged:
        return ""
    inner = ",".join(f'{_NAME_RE.sub("_", k)}="{_escape_label(v)}"'
                     for k, v in sorted(merged.items()))
    return "{" + inner + "}"


def _prom_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    return repr(float(value)) if value % 1 else str(int(value))


#: Operator-facing help text for dotted metric names; families without
#: an entry get a generated default naming the source metric and kind.
_HELP_TEXTS: dict[str, str] = {}


def set_metric_help(name: str, text: str) -> None:
    """Register the ``# HELP`` text emitted for the dotted metric *name*."""
    _HELP_TEXTS[name] = text


def _prom_help(dotted: str, kind: str) -> str:
    # HELP text escapes backslash and line feed (but NOT double quote —
    # help lines are unquoted in the exposition format).
    text = _HELP_TEXTS.get(dotted) or f"repro metric {dotted} ({kind})"
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def prometheus_text(registry: MetricsRegistry | None = None) -> str:
    """Render every metric in the Prometheus text exposition format.

    Each family is announced by exactly one ``# HELP`` line (registered
    via :func:`set_metric_help`, or a generated default) followed by
    exactly one ``# TYPE`` line, then its samples.
    """
    registry = registry if registry is not None else config.get_registry()
    lines: list[str] = []
    seen_types: set[str] = set()
    for metric in registry.collect():
        name = _prom_name(metric.name)
        if name not in seen_types:
            # Prometheus has no native "quantile" kind; the Quantile
            # family maps onto its summary type.
            kind = "summary" if metric.kind == "quantile" else metric.kind
            lines.append(f"# HELP {name} {_prom_help(metric.name, kind)}")
            lines.append(f"# TYPE {name} {kind}")
            seen_types.add(name)
        if isinstance(metric, (Counter, Gauge)):
            lines.append(f"{name}{_prom_labels(metric.labels)} "
                         f"{_prom_value(metric.value)}")
        else:  # a Quantile: one sample per tracked quantile
            for q, estimate in metric.estimates().items():
                value = "NaN" if estimate is None else _prom_value(estimate)
                lines.append(
                    f"{name}"
                    f"{_prom_labels(metric.labels, {'quantile': format(q, 'g')})}"
                    f" {value}")
            lines.append(f"{name}_sum{_prom_labels(metric.labels)} "
                         f"{_prom_value(metric.sum)}")
            lines.append(f"{name}_count{_prom_labels(metric.labels)} "
                         f"{metric.count}")
    return "\n".join(lines) + ("\n" if lines else "")


# ----------------------------------------------------------------------
# JSON lines
# ----------------------------------------------------------------------
def events(registry: MetricsRegistry | None = None,
           tracer: Tracer | None = None,
           meta: dict[str, object] | None = None) -> list[dict[str, object]]:
    """The capture as a list of JSON-ready event dicts.

    Line order: one ``meta`` header, spans in start order, metric
    snapshots, structured event-log lines (``type: "event"``), then
    retained request exemplars (``type: "exemplar"``, full span trees).
    When *registry*/*tracer* are passed explicitly (offline renders of
    foreign state) the global event log and exemplar reservoir are
    skipped — they only describe the live global capture.
    """
    offline = registry is not None or tracer is not None
    registry = registry if registry is not None else config.get_registry()
    tracer = tracer if tracer is not None else config.get_tracer()
    event_log = [] if offline else list(config._STATE.events)
    exemplars = ([] if offline
                 else config.get_exemplars().snapshot())
    header: dict[str, object] = {
        "type": "meta",
        "epoch_wall": tracer.epoch_wall,
        "spans": len(tracer.spans),
        "metrics": len(registry),
        "events": len(event_log),
        "exemplars": len(exemplars),
    }
    if tracer.dropped_spans:
        header["dropped_spans"] = tracer.dropped_spans
    if meta:
        header.update(meta)
    out: list[dict[str, object]] = [header]
    out.extend(span.snapshot() for span in tracer.ordered())
    out.extend(registry.snapshot())
    out.extend(event_log)
    out.extend(exemplars)
    return out


def write_jsonl(path: str | pathlib.Path,
                registry: MetricsRegistry | None = None,
                tracer: Tracer | None = None,
                meta: dict[str, object] | None = None) -> pathlib.Path:
    """Write the capture to *path* as JSON lines; returns the path."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [json.dumps(event, sort_keys=True)
             for event in events(registry, tracer, meta)]
    path.write_text("\n".join(lines) + "\n")
    return path

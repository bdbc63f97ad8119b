"""Test helpers shared across test packages.

- :class:`FakeClock` replaces ``time.monotonic`` wherever a component
  takes an injectable ``clock`` callable
  (:class:`repro.obs.slo.SLOMonitor`,
  :class:`repro.serve.scheduler.SheddingGovernor`, ...), making windowed
  behaviour (burn-rate windows, shedding windows, sample eviction)
  deterministic.
- :func:`lint_exposition` checks the structure of a Prometheus text
  exposition, as :func:`repro.obs.prometheus_text` and the ops plane's
  ``GET /metrics`` produce it.
"""

from __future__ import annotations

import math
import re
import threading


class FakeClock:
    """A manually-advanced monotonic clock.

    Thread-safe, because the code it stands in for is threaded: serving
    threads read the clock while the test advances it (``advance``
    doubles as an injectable ``sleep``, keeping pacing and timing on one
    time source).

    Parameters
    ----------
    start:
        Initial reading.
    tick:
        Seconds the clock auto-advances *after* each call — a cheap way
        to simulate time passing "by itself" in code that polls the
        clock in a loop. Defaults to 0.0 (fully manual).
    """

    def __init__(self, start: float = 0.0, tick: float = 0.0) -> None:
        if tick < 0:
            raise ValueError(f"tick must be >= 0, got {tick}")
        self.now = float(start)
        self.tick = float(tick)
        self.calls = 0
        self._lock = threading.Lock()

    def __call__(self) -> float:
        with self._lock:
            self.calls += 1
            reading = self.now
            self.now += self.tick
            return reading

    def advance(self, seconds: float) -> None:
        """Move the clock forward by *seconds* (must be >= 0)."""
        if seconds < 0:
            raise ValueError(f"cannot advance by {seconds} (negative)")
        with self._lock:
            self.now += seconds


#: One sample line: name, optional {labels}, one space, value.
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>(?:[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\\n]|\\.)*\",?)*)\})?"
    r" (?P<value>[^ ]+)$")
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\\n]|\\.)*)"')
_VALUE_RE = re.compile(r"^(NaN|[+-]Inf|[+-]?\d+(\.\d+)?([eE][+-]?\d+)?)$")


def _parse_le(raw: str) -> float:
    return math.inf if raw == "+Inf" else float(raw)


def lint_exposition(text: str) -> list[str]:
    """Structural lint of a Prometheus text exposition; returns problems.

    Checks the invariants a scraper relies on: every family announced by
    exactly one ``# HELP`` then exactly one ``# TYPE`` before any of its
    samples; sample lines well-formed (legal metric/label names, quoted
    and escape-valid label values, parseable value); samples grouped
    under their family (``_bucket``/``_sum``/``_count`` suffixes allowed
    for histograms and summaries); histogram buckets in increasing
    ``le`` order with cumulative counts, a ``+Inf`` bucket, and a
    ``_count`` equal to it. An empty list means the text is scrape-clean
    — the contract ``GET /metrics`` and the golden-file test hold
    :func:`repro.obs.prometheus_text` to.
    """
    problems: list[str] = []
    helped: set[str] = set()
    typed: dict[str, str] = {}
    sampled: set[str] = set()
    current: str | None = None
    # Per-histogram-child bucket state, keyed by the sorted label string
    # (minus ``le``): [last_le, last_count, saw_inf, inf_count].
    buckets: dict[str, list] = {}

    def _family_of(name: str) -> str:
        kind_of = typed.get(current or "", "")
        if kind_of in ("histogram", "summary"):
            for suffix in ("_bucket", "_sum", "_count"):
                if name == (current or "") + suffix:
                    return current  # type: ignore[return-value]
        return name

    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line:
            problems.append(f"line {lineno}: blank line in exposition")
            continue
        if line.startswith("# HELP "):
            parts = line.split(" ", 3)
            if len(parts) < 4 or not parts[3]:
                problems.append(f"line {lineno}: HELP without text")
                continue
            name = parts[2]
            if name in helped:
                problems.append(f"line {lineno}: duplicate HELP for {name}")
            if name in typed or name in sampled:
                problems.append(
                    f"line {lineno}: HELP for {name} after its TYPE/samples")
            helped.add(name)
            current = name
        elif line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4:
                problems.append(f"line {lineno}: malformed TYPE line")
                continue
            name, kind = parts[2], parts[3]
            if kind not in ("counter", "gauge", "histogram", "summary",
                            "untyped"):
                problems.append(f"line {lineno}: unknown kind {kind!r}")
            if name in typed:
                problems.append(f"line {lineno}: duplicate TYPE for {name}")
            if name not in helped:
                problems.append(f"line {lineno}: TYPE for {name} without HELP")
            if name in sampled:
                problems.append(
                    f"line {lineno}: TYPE for {name} after its samples")
            typed[name] = kind
            current = name
        elif line.startswith("#"):
            problems.append(f"line {lineno}: unexpected comment {line!r}")
        else:
            match = _SAMPLE_RE.match(line)
            if match is None:
                problems.append(f"line {lineno}: malformed sample {line!r}")
                continue
            name = match.group("name")
            raw_labels = match.group("labels") or ""
            labels = dict(_LABEL_RE.findall(raw_labels))
            if not _VALUE_RE.match(match.group("value")):
                problems.append(
                    f"line {lineno}: unparseable value {match.group('value')!r}")
            family = _family_of(name)
            if family not in typed:
                problems.append(f"line {lineno}: sample {name} without TYPE")
            elif family != current:
                problems.append(
                    f"line {lineno}: sample {name} outside its family block")
            sampled.add(family)
            if (typed.get(family) == "histogram"
                    and name == family + "_bucket"):
                if "le" not in labels:
                    problems.append(f"line {lineno}: bucket without le label")
                    continue
                child = ",".join(f"{k}={v}" for k, v in sorted(labels.items())
                                 if k != "le")
                le = _parse_le(labels["le"])
                count = float(match.group("value"))
                state = buckets.setdefault(family + "{" + child + "}",
                                           [-math.inf, 0.0, False, 0.0])
                if le <= state[0]:
                    problems.append(
                        f"line {lineno}: bucket le={labels['le']} out of order")
                if count < state[1]:
                    problems.append(
                        f"line {lineno}: bucket counts not cumulative")
                state[0], state[1] = le, count
                if le == math.inf:
                    state[2], state[3] = True, count
            elif (typed.get(family) == "histogram"
                    and name == family + "_count"):
                child = ",".join(f"{k}={v}"
                                 for k, v in sorted(labels.items()))
                state = buckets.get(family + "{" + child + "}")
                if state is None or not state[2]:
                    problems.append(
                        f"line {lineno}: histogram {family} missing +Inf "
                        "bucket before _count")
                elif float(match.group("value")) != state[3]:
                    problems.append(
                        f"line {lineno}: {family}_count != +Inf bucket count")
    for name in helped:
        if name not in typed:
            problems.append(f"family {name}: HELP without TYPE")
    return problems

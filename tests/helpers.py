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
_VALUE_RE = re.compile(r"^(NaN|[+-]Inf|[+-]?\d+(\.\d+)?([eE][+-]?\d+)?)$")


def lint_exposition(text: str) -> list[str]:
    """Structural lint of a Prometheus text exposition; returns problems.

    Checks the invariants a scraper relies on: every family announced by
    exactly one ``# HELP`` then exactly one ``# TYPE`` before any of its
    samples; sample lines well-formed (legal metric/label names, quoted
    and escape-valid label values, parseable value); samples grouped
    under their family (``_sum``/``_count`` suffixes allowed for
    summaries). An empty list means the text is scrape-clean
    — the contract ``GET /metrics`` and the golden-file test hold
    :func:`repro.obs.prometheus_text` to.
    """
    problems: list[str] = []
    helped: set[str] = set()
    typed: dict[str, str] = {}
    sampled: set[str] = set()
    current: str | None = None

    def _family_of(name: str) -> str:
        if typed.get(current or "") == "summary":
            for suffix in ("_sum", "_count"):
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
            if kind not in ("counter", "gauge", "summary", "untyped"):
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
    for name in helped:
        if name not in typed:
            problems.append(f"family {name}: HELP without TYPE")
    return problems

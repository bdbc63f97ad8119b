"""Test doubles for time-dependent observability code.

:class:`FakeClock` replaces ``time.monotonic`` wherever a component
takes an injectable ``clock`` callable (:class:`repro.obs.slo.SLOMonitor`,
:class:`repro.serve.scheduler.SheddingGovernor`, ...), making windowed
behaviour — burn-rate windows, shedding windows, sample eviction —
deterministic. It used to be copy-pasted per test module; this is the
one shared implementation.
"""

from __future__ import annotations

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

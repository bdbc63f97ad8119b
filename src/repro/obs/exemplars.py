"""Bounded reservoir of request exemplars (full span trees).

Aggregates answer "how slow is p99" but not "what did the slow request
*do*". The :class:`ExemplarReservoir` closes that gap: every finished
request context (:func:`repro.obs.request`) offers its complete span
tree here, and the reservoir retains

- the **slowest N** successful requests (min-heap keyed by root
  duration, so a new offer evicts the fastest of the current keepers in
  O(log N)), and
- the **most recent M errored** requests (bounded deque — errors are
  rare enough that recency beats duration as the retention key, and a
  bound still holds under an error storm).

Everything retained is JSON-ready: exemplars ride along in the JSONL
capture (``{"type": "exemplar", ...}`` lines) and the ops plane's
``GET /exemplars`` route. Each exemplar carries
the ``trace_id`` of its originating request, joining it back to the
span/metric/event lines of the same capture.

Thread-safe: request contexts finish on concurrent serving threads.
"""

from __future__ import annotations

import heapq
import threading
from collections import deque
from dataclasses import dataclass, field

#: Defaults sized for a load run: enough exemplars to see the shape of
#: the tail without the capture ballooning.
DEFAULT_SLOW_CAPACITY = 8
DEFAULT_ERROR_CAPACITY = 16


@dataclass(frozen=True)
class Exemplar:
    """One retained request: identity, outcome, and its full span tree."""

    trace_id: str
    name: str
    duration: float
    error: str | None = None
    #: JSON-ready span snapshots (finish order), the request root included.
    spans: tuple[dict, ...] = ()
    attrs: dict[str, object] = field(default_factory=dict)

    @property
    def reason(self) -> str:
        """Why the reservoir kept this exemplar: ``slow`` or ``error``."""
        return "error" if self.error is not None else "slow"

    def snapshot(self) -> dict[str, object]:
        """JSON-ready dump, shaped like the other capture event lines."""
        return {
            "type": "exemplar", "reason": self.reason,
            "trace_id": self.trace_id, "name": self.name,
            "duration": self.duration, "error": self.error,
            "attrs": dict(self.attrs),
            "spans": [dict(s) for s in self.spans],
        }


class ExemplarReservoir:
    """Retains the slowest-N and latest-M-errored request exemplars."""

    def __init__(self, slow_capacity: int = DEFAULT_SLOW_CAPACITY,
                 error_capacity: int = DEFAULT_ERROR_CAPACITY) -> None:
        if slow_capacity < 1:
            raise ValueError(f"slow_capacity must be >= 1, got {slow_capacity}")
        if error_capacity < 1:
            raise ValueError(
                f"error_capacity must be >= 1, got {error_capacity}")
        self.slow_capacity = slow_capacity
        self.error_capacity = error_capacity
        self.offered = 0
        self._lock = threading.Lock()
        #: (duration, tiebreak, exemplar) min-heap — root holds the
        #: fastest keeper, i.e. the next eviction candidate.
        self._slow: list[tuple[float, int, Exemplar]] = []
        self._errors: deque[Exemplar] = deque(maxlen=error_capacity)
        self._tiebreak = 0

    def offer(self, exemplar: Exemplar) -> bool:
        """Consider *exemplar* for retention; True when it was kept."""
        with self._lock:
            self.offered += 1
            if exemplar.error is not None:
                self._errors.append(exemplar)  # deque evicts the oldest
                return True
            self._tiebreak += 1
            entry = (exemplar.duration, self._tiebreak, exemplar)
            if len(self._slow) < self.slow_capacity:
                heapq.heappush(self._slow, entry)
                return True
            if exemplar.duration > self._slow[0][0]:
                heapq.heapreplace(self._slow, entry)
                return True
            return False

    # ------------------------------------------------------------------
    def slowest(self) -> list[Exemplar]:
        """Retained slow exemplars, slowest first."""
        with self._lock:
            return [e for _, _, e in sorted(self._slow, reverse=True)]

    def errored(self) -> list[Exemplar]:
        """Retained errored exemplars, most recent first."""
        with self._lock:
            return list(reversed(self._errors))

    def __len__(self) -> int:
        with self._lock:
            return len(self._slow) + len(self._errors)

    def snapshot(self) -> list[dict[str, object]]:
        """JSON-ready dump: errors first (most recent first), then slow."""
        return ([e.snapshot() for e in self.errored()]
                + [e.snapshot() for e in self.slowest()])

    def reset(self) -> None:
        """Drop every retained exemplar (used between captured runs)."""
        with self._lock:
            self._slow.clear()
            self._errors.clear()
            self.offered = 0
            self._tiebreak = 0

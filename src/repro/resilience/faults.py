"""Deterministic fault injection for exercising recovery paths.

A :class:`FaultPlan` maps *fault sites* — named hook points placed on the
failure-prone edges of the pipeline (data IO, artifact verification, SEM
embedding, trainer batch steps, serving queries and ingestion) — to a
firing probability and a private RNG seed. Call sites invoke
:func:`maybe_fail`; when the active plan's per-site uniform draw lands
under the probability, a typed :class:`~repro.errors.InjectedFault` is
raised. Everything is deterministic: the same plan and the same sequence
of calls produce the same faults, so every recovery path in the library
(retry, degradation, checkpoint rollback) is testable in CI.

Plans come from three places::

    # 1. the environment (chaos CI): REPRO_FAULTS=site:prob:seed,...
    REPRO_FAULTS="data.load_corpus:0.05:7,artifact.verify:0.05:11"

    # 2. programmatically, installed for a scope
    with faults.inject("serve.query:1.0"):
        ...

    # 3. permanently for the process
    faults.install(FaultPlan.parse("trainer.batch:0.01:3"))

No plan (the default) makes :func:`maybe_fail` a near-free no-op.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from repro import obs
from repro.errors import InjectedFault

#: Environment variable read by :func:`active` on first use.
ENV_VAR = "REPRO_FAULTS"

#: Sites hooked by the library itself, with the failure they emulate.
KNOWN_SITES: dict[str, str] = {
    "data.load_corpus": "transient read error while loading a corpus JSON",
    "artifact.verify": "manifest verification failure on a model artifact",
    "artifact.load": "deserialisation failure while rebuilding a pipeline",
    "sem.embed": "failure computing a paper's subspace embedding",
    "trainer.batch": "failure inside one optimisation batch step",
    "serve.query": "failure answering a top-K serving query",
    "serve.ingest": "failure ingesting a new paper into the serving pool",
    "serve.wal.append": "crash before the write-ahead log records an ingest",
    "serve.wal.replay": "transient failure reapplying one recovered record",
    "serve.swap.load": "failure loading a candidate artifact for hot swap",
    "snapshot.swap": "crash between a snapshot swap's two renames",
}


@dataclass(frozen=True)
class FaultRule:
    """One site's firing rule: probability per call, private RNG seed."""

    site: str
    probability: float
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.site:
            raise ValueError("fault site must be a non-empty string")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"fault probability must be in [0, 1], got {self.probability}")


class FaultPlan:
    """A set of :class:`FaultRule`\\ s with per-site deterministic RNGs.

    The k-th :func:`maybe_fail` call at a site draws the k-th uniform
    variate of that site's private PCG64 stream, so whether a given call
    fires depends only on the rule's seed and the call's ordinal — not on
    any global RNG state.
    """

    def __init__(self, rules: Iterable[FaultRule] = ()) -> None:
        self.rules: dict[str, FaultRule] = {}
        for rule in rules:
            if rule.site in self.rules:
                raise ValueError(f"duplicate fault rule for site {rule.site!r}")
            self.rules[rule.site] = rule
        self._rngs = {site: np.random.default_rng(rule.seed)
                      for site, rule in self.rules.items()}
        #: site -> number of draws taken so far.
        self.draws: dict[str, int] = {site: 0 for site in self.rules}
        #: site -> number of faults actually fired.
        self.fired: dict[str, int] = {site: 0 for site in self.rules}

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Build a plan from ``"site:prob[:seed],site:prob[:seed],..."``.

        The seed defaults to 0. Whitespace around entries is ignored and
        empty entries are skipped, so trailing commas are harmless.
        """
        rules = []
        for chunk in spec.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            parts = chunk.split(":")
            if len(parts) not in (2, 3):
                raise ValueError(
                    f"bad fault spec {chunk!r}: expected site:prob[:seed]")
            site = parts[0].strip()
            try:
                probability = float(parts[1])
                seed = int(parts[2]) if len(parts) == 3 else 0
            except ValueError as exc:
                raise ValueError(f"bad fault spec {chunk!r}: {exc}") from exc
            rules.append(FaultRule(site, probability, seed))
        return cls(rules)

    @classmethod
    def from_env(cls, environ: dict | None = None) -> "FaultPlan | None":
        """The plan described by :data:`ENV_VAR`, or ``None`` if unset."""
        spec = (environ if environ is not None else os.environ).get(ENV_VAR)
        if not spec:
            return None
        return cls.parse(spec)

    def should_fail(self, site: str) -> bool:
        """Draw once for *site*; True when the injected fault fires."""
        rule = self.rules.get(site)
        if rule is None:
            return False
        draw = float(self._rngs[site].random())
        self.draws[site] += 1
        if draw < rule.probability:
            self.fired[site] += 1
            return True
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        body = ", ".join(f"{r.site}:{r.probability}:{r.seed}"
                         for r in self.rules.values())
        return f"FaultPlan({body})"


#: Sentinel meaning "environment not consulted yet".
_UNSET = object()
_ACTIVE: "FaultPlan | None | object" = _UNSET


def install(plan: "FaultPlan | str | None") -> "FaultPlan | None":
    """Make *plan* (or a spec string) the process-wide active plan."""
    global _ACTIVE
    if isinstance(plan, str):
        plan = FaultPlan.parse(plan)
    _ACTIVE = plan
    return plan


def clear() -> None:
    """Deactivate fault injection (the environment is *not* re-read)."""
    global _ACTIVE
    _ACTIVE = None


def active() -> "FaultPlan | None":
    """The currently active plan, lazily loading :data:`ENV_VAR` once."""
    global _ACTIVE
    if _ACTIVE is _UNSET:
        _ACTIVE = FaultPlan.from_env()
    return _ACTIVE  # type: ignore[return-value]


@contextmanager
def inject(plan: "FaultPlan | str | None") -> Iterator["FaultPlan | None"]:
    """Context manager scoping *plan* as the active plan.

    The previous plan (including "unset, read the environment later") is
    restored on exit, so tests can inject faults without leaking state.
    """
    global _ACTIVE
    previous = _ACTIVE
    try:
        yield install(plan)
    finally:
        _ACTIVE = previous


def maybe_fail(site: str) -> None:
    """Raise :class:`InjectedFault` when the active plan fires at *site*.

    This is the hook the library places on its failure-prone edges; with
    no active plan it costs one global read and one dict miss.
    """
    plan = active()
    if plan is None or not plan.rules:
        return
    if plan.should_fail(site):
        draw = plan.draws[site] - 1
        obs.count("resilience.faults.injected", site=site)
        # Black-box the firing while the spans are still open: by the
        # time the fault is caught the stack has unwound, so this entry
        # is the postmortem's only record of where the crash hit.
        obs.get_flight_recorder().note_fault(site, draw)
        raise InjectedFault(
            f"injected fault at site {site!r} (draw #{draw})",
            site=site, draw=draw)

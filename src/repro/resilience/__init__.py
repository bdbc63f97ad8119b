"""repro.resilience — fault injection, checkpoints, guards, and retry.

The fault-tolerance layer of the pipeline. Five cooperating pieces:

- :mod:`repro.resilience.faults` — a deterministic fault-injection
  harness (``REPRO_FAULTS=site:prob:seed,...``) whose
  :func:`~repro.resilience.faults.maybe_fail` hooks sit at corpus load,
  artifact verify/load, SEM embedding, trainer batch steps, and serving
  query/ingest sites, raising typed
  :class:`~repro.errors.InjectedFault` errors reproducibly;
- :mod:`repro.resilience.staging` — the one crash-atomic snapshot
  writer (stage, checksum, fsync, rename) and manifest verifier, shared
  by serving artifacts and checkpoints;
- :mod:`repro.resilience.checkpoint` — staged, sha256-manifested
  per-epoch training checkpoints with keep-last-N retention and
  **bit-identical** resume;
- :mod:`repro.resilience.guards` — NaN/Inf and divergence detection
  raising :class:`~repro.errors.NumericalError`, plus the bounded
  rollback/LR-halving recovery policy trainers apply on a trip;
- :mod:`repro.resilience.retry` — a deterministic exponential-backoff
  retry decorator raising :class:`~repro.errors.RetryExhaustedError`
  with a full attempt log, used by data IO and the serving layer before
  degrading.

See docs/API.md (section "repro.resilience") for the fault-site table
and the on-disk checkpoint layout.
"""

from repro.errors import InjectedFault, NumericalError, RetryExhaustedError
from repro.resilience.checkpoint import (
    CHECKPOINT_SCHEMA_VERSION,
    CheckpointManager,
    TrainState,
)
from repro.resilience.faults import (
    ENV_VAR,
    KNOWN_SITES,
    FaultPlan,
    FaultRule,
    active,
    clear,
    inject,
    install,
    maybe_fail,
)
from repro.resilience.guards import GuardPolicy, NumericGuard
from repro.resilience.retry import Backoff, RetryAttempt, retry

__all__ = [
    # faults
    "FaultPlan", "FaultRule", "maybe_fail", "inject", "install", "clear",
    "active", "KNOWN_SITES", "ENV_VAR",
    # checkpoints
    "CheckpointManager", "TrainState", "CHECKPOINT_SCHEMA_VERSION",
    # guards
    "NumericGuard", "GuardPolicy",
    # retry
    "retry", "Backoff", "RetryAttempt",
    # errors (re-exported for convenience)
    "InjectedFault", "NumericalError", "RetryExhaustedError",
]

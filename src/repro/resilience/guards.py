"""Numeric guards: NaN/Inf detection, divergence bounds, rollback policy.

A :class:`NumericGuard` sits inside a trainer's epoch loop and turns
silent numeric corruption into typed, recoverable failures:

- :meth:`~NumericGuard.check_loss` / :meth:`~NumericGuard.check_gradients`
  raise :class:`~repro.errors.NumericalError` the moment a batch loss or
  any parameter gradient goes non-finite — before the bad update is
  applied anywhere downstream;
- :meth:`~NumericGuard.check_epoch` raises when the epoch loss exceeds
  ``divergence_factor`` times the best (rolling minimum) epoch loss seen;
- the rollback half — :meth:`~NumericGuard.admit_rollback` and
  :meth:`~NumericGuard.decay_lr` — lets the trainer restore the last good
  state, halve the learning rate, and retry, a bounded number of times.

Every trip and recovery action is counted under ``resilience.guard.*``
so chaos runs are observable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro import obs
from repro.errors import NumericalError
from repro.nn.optim import Optimizer
from repro.nn.tensor import Tensor


@dataclass(frozen=True)
class GuardPolicy:
    """Tunable thresholds for :class:`NumericGuard`.

    Parameters
    ----------
    divergence_factor:
        An epoch loss above ``factor * best_epoch_loss`` counts as
        divergence. Generous by default — early epochs are noisy.
    max_rollbacks:
        Total rollback-and-retry attempts allowed per training run.
    lr_backoff:
        Multiplier applied to the learning rate on each rollback.
    min_lr:
        Floor under the decayed learning rate.
    check_gradients:
        Whether per-batch gradient finiteness is checked (the loss check
        is always on; the gradient sweep costs one ``isfinite`` pass per
        parameter per batch).
    """

    divergence_factor: float = 25.0
    max_rollbacks: int = 2
    lr_backoff: float = 0.5
    min_lr: float = 1e-7
    check_gradients: bool = True

    def __post_init__(self) -> None:
        if self.divergence_factor <= 1.0:
            raise ValueError(
                f"divergence_factor must be > 1, got {self.divergence_factor}")
        if self.max_rollbacks < 0:
            raise ValueError(
                f"max_rollbacks must be >= 0, got {self.max_rollbacks}")
        if not 0.0 < self.lr_backoff < 1.0:
            raise ValueError(
                f"lr_backoff must be in (0, 1), got {self.lr_backoff}")


class NumericGuard:
    """Stateful guard for one training run (do not share across runs)."""

    def __init__(self, policy: GuardPolicy | None = None) -> None:
        self.policy = policy or GuardPolicy()
        self.best_loss = math.inf
        self.rollbacks_used = 0

    # ------------------------------------------------------------------
    # Detection
    # ------------------------------------------------------------------
    def check_loss(self, value: float, where: str) -> float:
        """Pass *value* through, raising on NaN/Inf."""
        if not math.isfinite(value):
            obs.count("resilience.guard.trips", kind="nonfinite_loss")
            obs.get_flight_recorder().trip("guard_nonfinite_loss")
            raise NumericalError(f"non-finite loss {value!r} at {where}")
        return value

    def check_gradients(self, params: Iterable[Tensor], where: str) -> None:
        """Raise when any parameter gradient contains NaN/Inf."""
        if not self.policy.check_gradients:
            return
        for i, param in enumerate(params):
            if param.grad is not None and not np.isfinite(param.grad).all():
                obs.count("resilience.guard.trips", kind="nonfinite_grad")
                obs.get_flight_recorder().trip("guard_nonfinite_grad")
                raise NumericalError(
                    f"non-finite gradient in parameter #{i} "
                    f"(shape {param.grad.shape}) at {where}")

    def check_step(self, loss: float, params: Iterable[Tensor],
                   where: str) -> None:
        """Per-batch :meth:`check_loss` then :meth:`check_gradients`."""
        self.check_loss(loss, where)
        self.check_gradients(params, where)

    def check_epoch(self, mean_loss: float, epoch: int) -> None:
        """End-of-epoch check: finiteness plus the divergence bound."""
        self.check_loss(mean_loss, f"epoch {epoch} mean loss")
        if (math.isfinite(self.best_loss)
                and mean_loss > self.policy.divergence_factor * self.best_loss):
            obs.count("resilience.guard.trips", kind="divergence")
            obs.get_flight_recorder().trip("guard_divergence")
            raise NumericalError(
                f"divergence at epoch {epoch}: loss {mean_loss:.6g} exceeds "
                f"{self.policy.divergence_factor:g} x best "
                f"{self.best_loss:.6g}")
        self.best_loss = min(self.best_loss, mean_loss)

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def admit_rollback(self) -> bool:
        """Whether one more rollback-and-retry is within budget."""
        if self.rollbacks_used >= self.policy.max_rollbacks:
            obs.count("resilience.guard.retries_exhausted")
            return False
        self.rollbacks_used += 1
        obs.count("resilience.guard.rollbacks")
        return True

    def decay_lr(self, optimizer: Optimizer) -> float:
        """Halve (by ``lr_backoff``) the optimiser LR; returns the new LR."""
        optimizer.lr = max(optimizer.lr * self.policy.lr_backoff,
                           self.policy.min_lr)
        obs.count("resilience.guard.lr_decays")
        return optimizer.lr

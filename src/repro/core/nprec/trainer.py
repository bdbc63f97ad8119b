"""Training loop for :class:`~repro.core.nprec.model.NPRecModel` (Eq. 23)."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro import obs
from repro.core.nprec.model import NPRecModel
from repro.core.nprec.sampling import TrainingPair
from repro.nn import Adam, binary_cross_entropy_with_logits, l2_regularization
from repro.resilience import faults
from repro.resilience.checkpoint import (
    CheckpointLike, GuardLike, resilience_options, run_epochs)


@dataclass
class NPRecTrainHistory:
    """Per-epoch loss/accuracy of the pair classifier."""

    losses: list[float] = field(default_factory=list)
    accuracies: list[float] = field(default_factory=list)


class NPRecTrainer:
    """Optimises the pair-correlation objective of Eq. 23.

    Cross-entropy over positive/negative pairs plus L2 regularisation,
    mini-batched Adam.

    Resilience (both optional, zero-cost when unset): *checkpoint* (a
    directory or :class:`~repro.resilience.checkpoint.CheckpointManager`)
    snapshots every completed epoch, and ``train(pairs, resume=True)``
    continues from the newest snapshot **bit-identically**; *guard*
    (``True``, a :class:`~repro.resilience.guards.GuardPolicy` or a
    :class:`~repro.resilience.guards.NumericGuard`) rolls a NaN/Inf or
    diverging epoch back, decays the learning rate and retries. Both are
    :func:`~repro.resilience.checkpoint.run_epochs`.
    """

    def __init__(self, model: NPRecModel, lr: float = 5e-3, reg: float = 1e-6,
                 epochs: int = 3, batch_size: int = 64,
                 seed: int | np.random.Generator | None = 0,
                 checkpoint: CheckpointLike = None,
                 guard: GuardLike = None) -> None:
        if epochs < 1 or batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        self.model = model
        self.reg = reg
        self.epochs = epochs
        self.batch_size = batch_size
        self._seed = seed
        self.optimizer = Adam(model.parameters(), lr=lr)
        self.checkpoint, self.guard = resilience_options(checkpoint, guard)

    def train(self, pairs: Sequence[TrainingPair],
              resume: bool = False) -> NPRecTrainHistory:
        """Fit on *pairs*; returns per-epoch diagnostics.

        With ``resume=True`` (requires *checkpoint*) training restarts
        from the newest intact snapshot: restored weights, optimiser
        moments, shuffle-RNG state, and history make the continued run
        byte-identical to one that never stopped; one past ``epochs``
        raises :class:`ValueError`.
        """
        pairs = list(pairs)
        if not pairs:
            raise ValueError("no training pairs")
        with obs.trace("nprec.train", epochs=self.epochs, pairs=len(pairs)):
            return run_epochs(
                lambda epoch, order: self._run_epoch(pairs, order, epoch),
                NPRecTrainHistory(), module=self.model,
                optimizer=self.optimizer, epochs=self.epochs,
                n_examples=len(pairs), seed=self._seed,
                checkpoint=self.checkpoint, guard=self.guard, resume=resume)

    # ------------------------------------------------------------------
    def _run_epoch(self, pairs: list[TrainingPair], order: np.ndarray,
                   epoch: int) -> tuple[float, float]:
        """One pass over *pairs* in *order*. The epoch span carries the
        seconds spent in the forward pass and loss (``forward_s``),
        ``backward_s``, the optimiser step (``step_s``), and the rest of
        its duration (``other_s``: batch assembly, guard checks and
        bookkeeping)."""
        epoch_loss = 0.0
        correct = 0
        forward_s = backward_s = step_s = 0.0
        with obs.trace("nprec.train.epoch", epoch=epoch) as span:
            started = time.perf_counter()
            for start in range(0, len(order), self.batch_size):
                faults.maybe_fail("trainer.batch")
                batch = [pairs[i] for i in order[start:start + self.batch_size]]
                citing = [p.citing for p in batch]
                cited = [p.cited for p in batch]
                labels = np.array([p.label for p in batch])
                self.optimizer.zero_grad()
                before_forward = time.perf_counter()
                logits = self.model.score_pairs(citing, cited)
                loss = binary_cross_entropy_with_logits(logits, labels)
                if self.reg > 0:
                    loss = loss + l2_regularization(self.optimizer.params, self.reg)
                before_backward = time.perf_counter()
                loss.backward()
                after_backward = time.perf_counter()
                if self.guard is not None:
                    self.guard.check_step(
                        loss.item(), self.optimizer.params,
                        f"nprec epoch {epoch}, batch offset {start}")
                before_step = time.perf_counter()
                self.optimizer.step()
                step_s += time.perf_counter() - before_step
                forward_s += before_backward - before_forward
                backward_s += after_backward - before_backward
                epoch_loss += loss.item() * len(batch)
                correct += int((((logits.data > 0).astype(float)) == labels).sum())
                obs.count("nprec.train.grad_steps")
            mean_loss = epoch_loss / len(pairs)
            accuracy = correct / len(pairs)
            span.set("loss", mean_loss)
            span.set("accuracy", accuracy)
            span.set("forward_s", forward_s)
            span.set("backward_s", backward_s)
            span.set("step_s", step_s)
            span.set("other_s", time.perf_counter() - started - forward_s
                     - backward_s - step_s)
        return mean_loss, accuracy

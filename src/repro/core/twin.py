"""Twin-network contrastive fine-tuning (Sec. III-B/D, Eqs. 13-14).

The twin network applies the *same* :class:`SubspaceEmbeddingNetwork` to
the anchor and both comparison papers of each annotated triplet and
optimises the hinge ranking loss of Eq. 14:

``max(0, D^k(p, q') - D^k(p, q) + eps) + lambda ||theta||^2``

where (p, q) is the pair the expert rules marked *more different*, so the
learned distance must exceed the less-different pair's distance by at
least the margin. The paper's default distance is the negative inner
product ``D^k(p, q) = -c_p^k . c_q^k``; Euclidean and cosine variants are
provided for the ablation the paper mentions as "other choices".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro import obs
from repro.core.annotation import Triplet
from repro.core.subspace_model import SubspaceEmbeddingNetwork
from repro.nn import Adam, Tensor, l2_regularization
from repro.resilience import faults
from repro.resilience.checkpoint import (
    CheckpointLike, GuardLike, resilience_options, run_epochs)

#: Supported D^k implementations.
DISTANCE_FUNCTIONS = ("neg_dot", "euclidean", "cosine")


def pair_distance(a: Tensor, b: Tensor, kind: str = "neg_dot") -> Tensor:
    """Differentiable distance between subspace embedding vectors.

    Reduces over the last axis: two ``(d,)`` vectors give a scalar, two
    ``(n, d)`` row stacks give the ``(n,)`` row-wise distances.
    """
    if kind == "neg_dot":
        return -(a * b).sum(axis=-1)
    if kind == "euclidean":
        diff = a - b
        return ((diff * diff).sum(axis=-1) + 1e-12) ** 0.5
    if kind == "cosine":
        norm_a = ((a * a).sum(axis=-1) + 1e-12) ** 0.5
        norm_b = ((b * b).sum(axis=-1) + 1e-12) ** 0.5
        return 1.0 - (a * b).sum(axis=-1) / (norm_a * norm_b)
    raise ValueError(f"unknown distance {kind!r}; choose from {DISTANCE_FUNCTIONS}")


@dataclass
class TrainHistory:
    """Per-epoch training diagnostics."""

    losses: list[float] = field(default_factory=list)
    violation_rates: list[float] = field(default_factory=list)


class TwinNetworkTrainer:
    """Optimises a :class:`SubspaceEmbeddingNetwork` on annotated triplets.

    Parameters
    ----------
    network:
        The shared-weight subspace embedding network (both twin arms).
    distance:
        One of :data:`DISTANCE_FUNCTIONS`.
    margin:
        The epsilon slack of Eq. 14.
    reg:
        L2 regularisation coefficient lambda.
    lr, epochs, batch_size, seed:
        Optimisation hyperparameters.
    checkpoint, guard:
        Optional per-epoch snapshots for ``train(..., resume=True)`` and
        NaN/divergence rollback, as in
        :class:`~repro.core.nprec.trainer.NPRecTrainer`; both trainers run
        :func:`~repro.resilience.checkpoint.run_epochs`.
    """

    def __init__(self, network: SubspaceEmbeddingNetwork, distance: str = "neg_dot",
                 margin: float = 0.5, reg: float = 1e-6, lr: float = 1e-3,
                 epochs: int = 5, batch_size: int = 16,
                 seed: int | np.random.Generator | None = 0,
                 checkpoint: CheckpointLike = None,
                 guard: GuardLike = None) -> None:
        if distance not in DISTANCE_FUNCTIONS:
            raise ValueError(f"unknown distance {distance!r}; choose from {DISTANCE_FUNCTIONS}")
        if margin < 0:
            raise ValueError(f"margin must be >= 0, got {margin}")
        if epochs < 1 or batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        self.network = network
        self.distance = distance
        self.margin = margin
        self.reg = reg
        self.epochs = epochs
        self.batch_size = batch_size
        self._seed = seed
        self.optimizer = Adam(network.parameters(), lr=lr)
        self.checkpoint, self.guard = resilience_options(checkpoint, guard)

    # ------------------------------------------------------------------
    def _distances(self, triplets: Sequence[Triplet],
                   encoded: Mapping[str, tuple[np.ndarray, Sequence[int]]]
                   ) -> tuple[Tensor, Tensor]:
        """``(D^k(p, q), D^k(p, q'))`` of every triplet, each ``(n,)``.

        The triplets' distinct papers embed in one batched forward; each
        triplet's anchor, positive and negative rows are gathered by
        (paper row, subspace) index.
        """
        rows = {pid: row for row, pid in enumerate(dict.fromkeys(
            pid for t in triplets for pid in (t.anchor, t.positive, t.negative)))}
        embeddings = self.network.forward_batch([encoded[pid] for pid in rows])
        subspaces = np.array([t.subspace for t in triplets])

        def gather(ids) -> Tensor:
            return embeddings[np.array([rows[pid] for pid in ids]), subspaces]

        anchor = gather(t.anchor for t in triplets)
        positive = gather(t.positive for t in triplets)
        negative = gather(t.negative for t in triplets)
        return (pair_distance(anchor, positive, self.distance),
                pair_distance(anchor, negative, self.distance))

    def train(self, triplets: Sequence[Triplet],
              encoded: Mapping[str, tuple[np.ndarray, Sequence[int]]],
              resume: bool = False) -> TrainHistory:
        """Run the contrastive optimisation; returns per-epoch diagnostics.

        Parameters
        ----------
        triplets:
            Output of :func:`repro.core.annotation.annotate_triplets`.
        encoded:
            ``paper id -> (sentence matrix, labels)`` cache; must cover
            every id mentioned by the triplets.
        resume:
            Continue from the newest checkpoint snapshot (requires the
            trainer's *checkpoint* option); the resumed run's history and
            final weights are bit-identical to an uninterrupted one; one
            past ``epochs`` raises :class:`ValueError`.
        """
        triplets = list(triplets)
        if not triplets:
            raise ValueError("no triplets to train on")
        missing = {t.anchor for t in triplets} | {t.positive for t in triplets} \
            | {t.negative for t in triplets}
        missing -= set(encoded)
        if missing:
            raise KeyError(f"encoded cache missing {len(missing)} papers, "
                           f"e.g. {sorted(missing)[:3]}")
        with obs.trace("sem.twin.train", epochs=self.epochs,
                       triplets=len(triplets), distance=self.distance):
            return run_epochs(
                lambda epoch, order: self._run_epoch(triplets, encoded, order,
                                                     epoch),
                TrainHistory(), module=self.network, optimizer=self.optimizer,
                epochs=self.epochs, n_examples=len(triplets), seed=self._seed,
                checkpoint=self.checkpoint, guard=self.guard, resume=resume)

    # ------------------------------------------------------------------
    def _run_epoch(self, triplets: list[Triplet],
                   encoded: Mapping[str, tuple[np.ndarray, Sequence[int]]],
                   order: np.ndarray, epoch: int) -> tuple[float, float]:
        epoch_loss = 0.0
        violations = 0
        with obs.trace("sem.twin.train.epoch", epoch=epoch) as span:
            for start in range(0, len(order), self.batch_size):
                faults.maybe_fail("trainer.batch")
                batch = [triplets[i] for i in order[start:start + self.batch_size]]
                self.optimizer.zero_grad()
                d_pos, d_neg = self._distances(batch, encoded)
                # Eq. 14: positive pair must be farther by >= margin.
                loss = (d_neg - d_pos + self.margin).clip_min(0.0).mean()
                violations += int((d_pos.data <= d_neg.data).sum())
                if self.reg > 0:
                    loss = loss + l2_regularization(self.optimizer.params, self.reg)
                loss.backward()
                if self.guard is not None:
                    self.guard.check_step(
                        loss.item(), self.optimizer.params,
                        f"twin epoch {epoch}, batch offset {start}")
                self.optimizer.step()
                epoch_loss += loss.item() * len(batch)
                obs.count("sem.twin.grad_steps")
            mean_loss = epoch_loss / len(triplets)
            # Rule agreement: triplets whose learned ordering matches
            # the expert-rule annotation (complement of violations).
            agreement = 1.0 - violations / len(triplets)
            span.set("hinge_loss", mean_loss)
            span.set("rule_agreement", agreement)
        return mean_loss, violations / len(triplets)

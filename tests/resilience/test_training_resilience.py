"""Trainer-level resilience: bit-identical resume and guarded rollback.

The resume tests are the contract at the heart of repro.resilience: a
run that is killed and resumed from its newest checkpoint must produce
*exactly* the history and weights of a run that never stopped — float
equality, not approx. Both trainers run the same epoch protocol
(:func:`repro.resilience.checkpoint.run_epochs`), so each contract test
runs on both: parametrised over the ``harness`` fixture, or, for the two
cheap error-path checks, looping over both trainers in one test.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

import repro.core.nprec.trainer as nprec_trainer_mod
import repro.core.twin as twin_mod
from repro.core.annotation import annotate_triplets
from repro.core.nprec import NPRecModel, NPRecTrainer, build_training_pairs
from repro.core.rules import ExpertRuleSet
from repro.core.subspace_model import SubspaceEmbeddingNetwork
from repro.core.twin import TwinNetworkTrainer
from repro.data import load_acm, load_scopus
from repro.errors import InjectedFault
from repro.graph import build_academic_network
from repro.resilience import faults
from repro.resilience.checkpoint import CheckpointManager
from repro.resilience.guards import GuardPolicy, NumericGuard
from repro.text import SentenceEncoder

EPOCHS = 4


def _fault_seed(probability: float, lo: int, hi: int) -> int:
    """A rule seed whose first firing draw lands in ``[lo, hi)``."""
    for seed in range(500):
        rng = np.random.default_rng(seed)
        for draw in range(hi):
            if rng.random() < probability:
                break
        else:
            continue
        if lo <= draw < hi:
            return seed
    raise RuntimeError("no suitable fault seed in range")  # pragma: no cover


# ----------------------------------------------------------------------
# One harness per trainer: how to build it, train it, read its weights,
# and which module-level name its per-batch loss is looked up through.
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def nprec_setup():
    corpus = load_acm(scale=0.2, seed=11)
    train, new = corpus.split_by_year(2014)
    everyone = list(train) + list(new)
    graph = build_academic_network(corpus, papers=everyone,
                                   citation_whitelist={p.id for p in train})
    rng = np.random.default_rng(0)
    text = {p.id: rng.normal(size=12) for p in everyone}
    pairs = build_training_pairs(train, strategy="citation",
                                 negative_ratio=2, max_positives=24, seed=0)

    def make_trainer(**kwargs):
        model = NPRecModel(graph, text, dim=8, neighbor_k=4, depth=2, seed=0)
        defaults = dict(lr=1e-2, epochs=EPOCHS, batch_size=32, seed=0)
        defaults.update(kwargs)
        return NPRecTrainer(model, **defaults)

    return SimpleNamespace(
        make=make_trainer,
        train=lambda trainer, **kwargs: trainer.train(pairs, **kwargs),
        weights=lambda trainer: trainer.model,
        n_batches=math.ceil(len(pairs) / 32),
        loss_site=(nprec_trainer_mod, "binary_cross_entropy_with_logits"))


@pytest.fixture(scope="module")
def twin_setup():
    papers = load_scopus(scale=0.15, seed=5).papers[:40]
    encoder = SentenceEncoder(dim=16)
    rules = ExpertRuleSet(encoder).fit(papers, n_pairs=30, seed=0)
    triplets = annotate_triplets(papers, rules, n_triplets=20, min_gap=0.1,
                                 seed=0)
    encoded = {}
    for paper in papers:
        H = encoder.encode(paper.abstract)
        labels = list(paper.sentence_labels)[:H.shape[0]]
        encoded[paper.id] = (H[:len(labels)], labels)

    def make_trainer(**kwargs):
        network = SubspaceEmbeddingNetwork(in_dim=16, hidden_dims=(24,),
                                           out_dim=8, rng=0)
        defaults = dict(distance="euclidean", lr=2e-3, epochs=EPOCHS,
                        batch_size=8, seed=0)
        defaults.update(kwargs)
        return TwinNetworkTrainer(network, **defaults)

    return SimpleNamespace(
        make=make_trainer,
        train=lambda trainer, **kwargs: trainer.train(triplets, encoded,
                                                      **kwargs),
        weights=lambda trainer: trainer.network,
        n_batches=math.ceil(len(triplets) / 8),
        loss_site=(twin_mod, "pair_distance"))


@pytest.fixture(params=["nprec", "twin"])
def harness(request):
    return request.getfixturevalue(f"{request.param}_setup")


def _assert_same_run(left, left_history, right, right_history):
    """Float-equal history columns and weights."""
    assert vars(left_history) == vars(right_history)
    left_state, right_state = left.state_dict(), right.state_dict()
    assert set(left_state) == set(right_state)
    for name, value in left_state.items():
        assert np.array_equal(value, right_state[name]), name


# ----------------------------------------------------------------------
# Bit-identical resume
# ----------------------------------------------------------------------
class TestResumeBitIdentity:
    def test_killed_run_resumes_bit_identically(self, harness, tmp_path):
        baseline_trainer = harness.make()
        baseline = harness.train(baseline_trainer)

        seed = _fault_seed(0.25, lo=harness.n_batches,
                           hi=EPOCHS * harness.n_batches)
        trainer = harness.make(checkpoint=tmp_path / "ckpt")
        with faults.inject(f"trainer.batch:0.25:{seed}"):
            with pytest.raises(InjectedFault):
                harness.train(trainer)
        # At least one epoch completed before the kill ...
        saved = CheckpointManager(tmp_path / "ckpt").epochs()
        assert saved and max(saved) < EPOCHS
        # ... and the resumed run matches the uninterrupted one exactly.
        history = harness.train(trainer, resume=True)
        _assert_same_run(harness.weights(trainer), history,
                         harness.weights(baseline_trainer), baseline)

    def test_fresh_trainer_resumes_bit_identically(self, harness, tmp_path):
        """Resume across a 'process boundary': a brand-new trainer picks
        up a previous trainer's checkpoints and lands on the same bits."""
        baseline_trainer = harness.make()
        baseline = harness.train(baseline_trainer)

        harness.train(harness.make(epochs=2, checkpoint=tmp_path / "ckpt"))

        second = harness.make(checkpoint=tmp_path / "ckpt")
        history = harness.train(second, resume=True)
        _assert_same_run(harness.weights(second), history,
                         harness.weights(baseline_trainer), baseline)

    @pytest.mark.parametrize("point", range(4, 8))
    def test_crash_inside_a_snapshot_save_resumes_bit_identically(
            self, harness, tmp_path, crash_at, point):
        """A kill at each write or rename of the second epoch's snapshot
        (events 4-7; the first epoch's save is events 0-3)."""
        baseline_trainer = harness.make()
        baseline = harness.train(baseline_trainer)

        with crash_at(point) as run:
            harness.train(harness.make(checkpoint=tmp_path / "ckpt"))
        assert run.crashed and len(run.events) == point + 1

        resumed = harness.make(checkpoint=tmp_path / "ckpt")
        history = harness.train(resumed, resume=True)
        _assert_same_run(harness.weights(resumed), history,
                         harness.weights(baseline_trainer), baseline)

    def test_resume_requires_checkpoint(self, nprec_setup, twin_setup):
        for harness in (nprec_setup, twin_setup):
            with pytest.raises(ValueError, match="resume=True requires"):
                harness.train(harness.make(), resume=True)

    def test_resume_past_epochs_raises(self, harness, tmp_path):
        harness.train(harness.make(checkpoint=tmp_path / "ckpt"))
        shorter = harness.make(epochs=2, checkpoint=tmp_path / "ckpt")
        with pytest.raises(ValueError,
                           match=f"holds {EPOCHS} completed epochs.*epochs=2"):
            harness.train(shorter, resume=True)

    def test_resume_with_no_snapshots_trains_from_scratch(self, twin_setup,
                                                          tmp_path):
        baseline = twin_setup.train(twin_setup.make())
        trainer = twin_setup.make(checkpoint=tmp_path / "empty")
        history = twin_setup.train(trainer, resume=True)
        assert history.losses == baseline.losses

    def test_every_epoch_snapshotted_and_keep_last_prunes(self, twin_setup,
                                                          tmp_path):
        manager = CheckpointManager(tmp_path / "ckpt", keep_last=2)
        twin_setup.train(twin_setup.make(epochs=3, checkpoint=manager))
        assert manager.epochs() == [2, 3]


# ----------------------------------------------------------------------
# Guard trips and rollback inside the epoch loop
# ----------------------------------------------------------------------
class TestGuardedTraining:
    def test_nan_loss_rolls_back_and_recovers(self, harness, monkeypatch):
        module, name = harness.loss_site
        original = getattr(module, name)
        calls = {"n": 0}

        def poisoned(*args):
            calls["n"] += 1
            loss = original(*args)
            return loss * float("nan") if calls["n"] == 1 else loss

        monkeypatch.setattr(module, name, poisoned)
        trainer = harness.make(epochs=2, guard=True)
        initial_lr = trainer.optimizer.lr
        history = harness.train(trainer)

        # The poisoned first batch tripped the guard, the epoch was
        # retried from its start, and training still completed in full.
        assert len(history.losses) == 2
        assert all(math.isfinite(x) for x in history.losses)
        assert trainer.guard.rollbacks_used == 1
        assert trainer.optimizer.lr == pytest.approx(initial_lr * 0.5)

    def test_persistent_fault_exhausts_rollback_budget(self, twin_setup):
        trainer = twin_setup.make(guard=GuardPolicy(max_rollbacks=2))
        with faults.inject("trainer.batch:1.0"):
            with pytest.raises(InjectedFault):
                twin_setup.train(trainer)
        assert trainer.guard.rollbacks_used == 2

    def test_fault_without_guard_propagates(self, nprec_setup, twin_setup):
        for harness in (nprec_setup, twin_setup):
            with faults.inject("trainer.batch:1.0"):
                with pytest.raises(InjectedFault):
                    harness.train(harness.make())

    def test_guard_accepts_policy_and_bool(self, twin_setup):
        make_trainer = twin_setup.make
        assert isinstance(make_trainer(guard=True).guard, NumericGuard)
        custom = make_trainer(guard=GuardPolicy(max_rollbacks=5)).guard
        assert custom.policy.max_rollbacks == 5
        assert make_trainer(guard=None).guard is None
        assert make_trainer(guard=False).guard is None

    def test_guarded_run_matches_unguarded_when_quiet(self, harness):
        """With no trips, the guard must not change a single bit."""
        plain_trainer = harness.make(epochs=2)
        plain = harness.train(plain_trainer)
        guarded_trainer = harness.make(epochs=2, guard=True)
        guarded = harness.train(guarded_trainer)
        assert guarded_trainer.guard.rollbacks_used == 0
        _assert_same_run(harness.weights(guarded_trainer), guarded,
                         harness.weights(plain_trainer), plain)

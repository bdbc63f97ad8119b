"""CheckpointManager: atomic saves, integrity checks, retention, resume."""

import json

import numpy as np
import pytest

from repro import obs
from repro.errors import ArtifactError
from repro.nn import Adam, Linear
from repro.resilience.checkpoint import (
    CHECKPOINT_SCHEMA_VERSION,
    CheckpointManager,
    TrainState,
)


def _training_setup(seed: int = 0):
    """A tiny module + optimiser with non-trivial Adam moments."""
    module = Linear(4, 3, rng=seed)
    optimizer = Adam(module.parameters(), lr=1e-3)
    rng = np.random.default_rng(seed)
    for param in optimizer.params:
        param.grad = rng.normal(size=param.data.shape)
    optimizer.step()
    return module, optimizer, rng


def _capture(epoch: int = 1, seed: int = 0) -> tuple:
    module, optimizer, rng = _training_setup(seed)
    order = rng.permutation(10)
    history = {"losses": [0.5, 0.25], "accuracies": [0.6, 0.8]}
    state = TrainState.capture(epoch, module, optimizer, rng, order, history)
    return state, module, optimizer, rng, order, history


class TestTrainState:
    def test_capture_is_a_deep_copy(self):
        state, module, optimizer, rng, order, history = _capture()
        module.weight.data += 1.0
        order[:] = 0
        history["losses"].append(99.0)
        rng.random()
        assert not np.array_equal(state.model_state["weight"],
                                  module.state_dict()["weight"])
        assert not np.array_equal(state.order, order)
        assert state.history["losses"] == [0.5, 0.25]
        assert state.rng_state != rng.bit_generator.state

    def test_restore_round_trips_everything(self):
        state, module, optimizer, rng, order, history = _capture()
        reference = np.random.default_rng(0)
        reference.bit_generator.state = state.rng_state
        expected_draw = reference.random()

        # Trash the live objects, then restore.
        for param in module.parameters():
            param.data[:] = -1.0
        optimizer.lr = 99.0
        order[:] = 0
        history["losses"].clear()
        state.restore(module, optimizer, rng, order, history)

        assert np.array_equal(module.state_dict()["weight"],
                              state.model_state["weight"])
        assert optimizer.lr == state.optimizer_state["lr"]
        assert np.array_equal(order, state.order)
        assert history["losses"] == [0.5, 0.25]
        assert rng.random() == expected_draw

    def test_restore_rejects_mismatched_order_shape(self):
        state, module, optimizer, rng, _, history = _capture()
        with pytest.raises(ArtifactError, match="training examples"):
            state.restore(module, optimizer, rng, np.arange(7), history)


class TestCheckpointManager:
    def test_save_load_round_trip_is_exact(self, tmp_path):
        state = _capture(epoch=3)[0]
        manager = CheckpointManager(tmp_path)
        slot = manager.save(state)
        assert slot.name == "epoch-0003"

        loaded = manager.load(3)
        assert loaded.epoch == 3
        for name, value in state.model_state.items():
            assert np.array_equal(loaded.model_state[name], value)
        assert loaded.optimizer_state["t"] == state.optimizer_state["t"]
        assert loaded.optimizer_state["lr"] == state.optimizer_state["lr"]
        for key in ("m", "v"):
            for got, want in zip(loaded.optimizer_state[key],
                                 state.optimizer_state[key]):
                assert np.array_equal(got, want)
        assert loaded.rng_state == state.rng_state
        assert np.array_equal(loaded.order, state.order)
        assert loaded.history == state.history

    def test_retention_keeps_newest(self, tmp_path, obs_enabled):
        manager = CheckpointManager(tmp_path, keep_last=2)
        for epoch in range(1, 5):
            manager.save(_capture(epoch=epoch)[0])
        assert manager.epochs() == [3, 4]
        pruned = obs.get_registry().get("resilience.checkpoint.pruned")
        assert pruned is not None and pruned.value == 2

    def test_latest_skips_corrupt_snapshot(self, tmp_path, obs_enabled):
        manager = CheckpointManager(tmp_path)
        manager.save(_capture(epoch=1)[0])
        manager.save(_capture(epoch=2)[0])
        # Flip bytes in the newest snapshot's payload.
        payload = tmp_path / "epoch-0002" / "state.npz"
        payload.write_bytes(b"garbage" + payload.read_bytes()[7:])
        state = manager.latest()
        assert state is not None and state.epoch == 1
        corrupt = obs.get_registry().get("resilience.checkpoint.corrupt")
        assert corrupt is not None and corrupt.value == 1

    def test_latest_on_empty_directory(self, tmp_path):
        assert CheckpointManager(tmp_path / "nothing").latest() is None

    def test_load_rejects_schema_mismatch(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save(_capture(epoch=1)[0])
        manifest_path = tmp_path / "epoch-0001" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["schema_version"] = CHECKPOINT_SCHEMA_VERSION + 1
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ArtifactError, match="schema version"):
            manager.load(1)

    def test_load_rejects_missing_manifest(self, tmp_path):
        with pytest.raises(ArtifactError, match="manifest"):
            CheckpointManager(tmp_path).load(5)

    def test_leftover_tmp_dir_is_invisible(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save(_capture(epoch=1)[0])
        (tmp_path / ".epoch-0002.staging").mkdir()  # a crashed save
        assert manager.epochs() == [1]
        assert manager.latest().epoch == 1

    def test_resave_same_epoch_overwrites(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save(_capture(epoch=1, seed=0)[0])
        replacement = _capture(epoch=1, seed=7)[0]
        manager.save(replacement)
        assert manager.epochs() == [1]
        assert np.array_equal(manager.load(1).model_state["weight"],
                              replacement.model_state["weight"])

    def test_crash_during_rename_preserves_previous_snapshots(
            self, tmp_path, monkeypatch):
        """A kill at the atomic-rename instant loses nothing already saved."""
        manager = CheckpointManager(tmp_path)
        manager.save(_capture(epoch=1)[0])

        import repro.resilience.staging as staging_mod

        def crash(src, dst):
            raise OSError("simulated crash during rename")

        monkeypatch.setattr(staging_mod.os, "replace", crash)
        with pytest.raises(OSError, match="simulated crash"):
            manager.save(_capture(epoch=2)[0])
        monkeypatch.undo()

        # Only the hidden staging dir was left behind; resume still works.
        assert manager.epochs() == [1]
        state = manager.latest()
        assert state is not None and state.epoch == 1

    @pytest.mark.parametrize("epoch", [2, 1], ids=["next", "resave"])
    def test_crash_anywhere_in_save_keeps_a_whole_snapshot(
            self, tmp_path, crash_at, epoch):
        """A kill at any write or rename of a save leaves latest() on the
        previous snapshot or the new one, for a new slot and a re-save."""
        previous = _capture(epoch=1, seed=0)[0]
        new = _capture(epoch=epoch, seed=7)[0]
        point = 0
        while True:
            manager = CheckpointManager(tmp_path / str(point))
            manager.save(previous)
            with crash_at(point) as run:
                manager.save(new)
            state = CheckpointManager(manager.root).latest()
            weights = state.model_state["weight"]
            if not run.crashed:
                assert np.array_equal(weights, new.model_state["weight"])
                break
            assert any(np.array_equal(weights, s.model_state["weight"])
                       for s in (previous, new)), run.events[-1]
            point += 1
        assert point == len(run.events) >= 4

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointManager(tmp_path, keep_last=0)

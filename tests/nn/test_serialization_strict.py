"""Strict, atomic weight loading: mismatches never partially mutate.

The serving artifact store leans on ``load_module`` / ``load_state_dict``
being all-or-nothing — a half-written model would rank, just wrongly.
These tests pin the contract: validation happens before any assignment,
errors name the offending archive and parameters, and a failed load
leaves every parameter bit-identical to its pre-load value.
"""

import numpy as np
import pytest

from repro.nn import Linear, Sequential, load_module


def _snapshot(module):
    return {name: tensor.data.copy()
            for name, tensor in module.named_parameters()}


def _assert_unchanged(module, snapshot):
    current = dict(module.named_parameters())
    assert set(current) == set(snapshot)
    for name, tensor in current.items():
        np.testing.assert_array_equal(tensor.data, snapshot[name],
                                      err_msg=f"parameter {name} mutated")


@pytest.fixture
def model():
    return Sequential(Linear(4, 3, rng=0), Linear(3, 2, rng=1))


class TestLoadModuleStrict:
    def test_round_trip_is_exact(self, model, tmp_path):
        path = tmp_path / "weights.npz"
        np.savez(path, **model.state_dict())
        twin = Sequential(Linear(4, 3, rng=99), Linear(3, 2, rng=98))
        load_module(twin, path)
        for name, tensor in twin.named_parameters():
            np.testing.assert_array_equal(
                tensor.data, dict(model.named_parameters())[name].data)

    def test_wrong_shape_names_path_and_leaves_module_untouched(
            self, model, tmp_path):
        path = tmp_path / "weights.npz"
        np.savez(path, **Sequential(Linear(5, 3, rng=0),
                                    Linear(3, 2, rng=1)).state_dict())
        before = _snapshot(model)
        with pytest.raises(ValueError) as excinfo:
            load_module(model, path)
        message = str(excinfo.value)
        assert "weights.npz" in message
        assert "Sequential" in message
        assert "steps.0.weight" in message
        _assert_unchanged(model, before)

    def test_missing_and_unexpected_keys_raise_keyerror(self, model,
                                                        tmp_path):
        path = tmp_path / "weights.npz"
        state = model.state_dict()
        state["rogue.weight"] = state.pop("steps.0.weight")
        np.savez(path, **state)
        before = _snapshot(model)
        with pytest.raises(KeyError) as excinfo:
            load_module(model, path)
        message = str(excinfo.value)
        assert "steps.0.weight" in message  # missing
        assert "rogue.weight" in message    # unexpected
        assert "weights.npz" in message
        _assert_unchanged(model, before)


class TestLoadStateDictAtomic:
    def test_late_shape_mismatch_modifies_nothing(self, model):
        """The early-sorted parameter matches; a later one does not.

        A naive assign-as-you-validate loop would overwrite the early
        parameter before discovering the bad one — the load must stage
        everything first.
        """
        state = model.state_dict()
        state["steps.0.weight"] = state["steps.0.weight"] + 1.0  # valid
        state["steps.1.weight"] = np.zeros((7, 7))               # invalid
        before = _snapshot(model)
        with pytest.raises(ValueError, match="no parameters were modified"):
            model.load_state_dict(state)
        _assert_unchanged(model, before)

    def test_loaded_arrays_are_copies(self, model):
        state = model.state_dict()
        model.load_state_dict(state)
        state["steps.0.weight"][:] = 123.0
        assert not np.any(
            dict(model.named_parameters())["steps.0.weight"].data == 123.0)

    def test_valid_load_applies_every_parameter(self, model):
        state = {name: value + 0.5 for name, value in
                 model.state_dict().items()}
        model.load_state_dict(state)
        for name, tensor in model.named_parameters():
            np.testing.assert_array_equal(tensor.data, state[name])

"""Tests for Module reflection, Linear/MLP/Embedding layers, serialization."""

import numpy as np
import pytest

from repro.nn import (
    MLP,
    Embedding,
    Linear,
    Module,
    Sequential,
    Tensor,
    load_module,
)


class TestLinear:
    def test_forward_shape(self):
        layer = Linear(4, 3, rng=0)
        out = layer(Tensor(np.ones((5, 4))))
        assert out.shape == (5, 3)

    def test_no_bias(self):
        layer = Linear(4, 3, bias=False, rng=0)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_bad_dims(self):
        with pytest.raises(ValueError):
            Linear(0, 3)

    def test_gradient_flows_to_weight_and_bias(self):
        layer = Linear(2, 2, rng=0)
        out = layer(Tensor(np.ones((3, 2)))).sum()
        out.backward()
        assert layer.weight.grad is not None
        assert layer.bias.grad is not None

    def test_deterministic_init(self):
        a = Linear(4, 3, rng=42)
        b = Linear(4, 3, rng=42)
        np.testing.assert_array_equal(a.weight.data, b.weight.data)


class TestMLP:
    def test_stack_depth(self):
        mlp = MLP([8, 4, 2], rng=0)
        out = mlp(Tensor(np.ones((3, 8))))
        assert out.shape == (3, 2)
        # tanh squashes to (-1, 1)
        assert np.all(np.abs(out.data) < 1.0)

    def test_no_final_activation(self):
        mlp = MLP([2, 2], activation="relu", final_activation=False, rng=0)
        x = Tensor(np.array([[10.0, 10.0]]))
        out = mlp(x)
        # without activation output can exceed relu/tanh bounds in magnitude
        assert out.shape == (1, 2)

    def test_requires_two_sizes(self):
        with pytest.raises(ValueError):
            MLP([4])

    def test_unknown_activation(self):
        with pytest.raises(ValueError):
            MLP([2, 2], activation="gelu")

    def test_parameter_count(self):
        mlp = MLP([3, 5, 2], rng=0)
        n = sum(p.size for p in mlp.parameters())
        assert n == (3 * 5 + 5) + (5 * 2 + 2)


class TestEmbedding:
    def test_lookup(self):
        emb = Embedding(10, 4, rng=0)
        out = emb(np.array([1, 1, 3]))
        assert out.shape == (3, 4)
        np.testing.assert_array_equal(out.data[0], out.data[1])

    def test_out_of_range(self):
        emb = Embedding(4, 2, rng=0)
        with pytest.raises(IndexError):
            emb(np.array([4]))
        with pytest.raises(IndexError):
            emb(np.array([-1]))

    def test_gradient_scatter(self):
        emb = Embedding(5, 2, rng=0)
        out = emb(np.array([2, 2])).sum()
        out.backward()
        np.testing.assert_allclose(emb.weight.grad[2], [2.0, 2.0])
        np.testing.assert_allclose(emb.weight.grad[0], [0.0, 0.0])


class TestModuleReflection:
    def test_nested_parameters(self):
        class Net(Module):
            def __init__(self):
                self.a = Linear(2, 2, rng=0)
                self.b = Sequential(Linear(2, 3, rng=1), Linear(3, 1, rng=2))

            def forward(self, x):
                return self.b(self.a(x))

        net = Net()
        names = [n for n, _ in net.named_parameters()]
        assert "a.weight" in names
        assert "b.steps.0.weight" in names
        assert len(net.parameters()) == 6

    def test_state_dict_roundtrip(self, tmp_path):
        net = MLP([3, 4, 2], rng=0)
        state = net.state_dict()
        other = MLP([3, 4, 2], rng=99)
        other.load_state_dict(state)
        x = Tensor(np.ones((2, 3)))
        np.testing.assert_allclose(net(x).data, other(x).data)

    def test_state_dict_strict(self):
        net = MLP([3, 4, 2], rng=0)
        state = net.state_dict()
        state.pop(next(iter(state)))
        with pytest.raises(KeyError):
            MLP([3, 4, 2], rng=0).load_state_dict(state)

    def test_state_dict_shape_mismatch(self):
        net = Linear(2, 2, rng=0)
        bad = {name: np.zeros((9, 9)) for name in net.state_dict()}
        with pytest.raises(ValueError):
            net.load_state_dict(bad)

    def test_save_load_npz(self, tmp_path):
        net = MLP([3, 4, 2], rng=0)
        path = tmp_path / "model.npz"
        np.savez(path, **net.state_dict())
        other = MLP([3, 4, 2], rng=7)
        load_module(other, path)
        x = Tensor(np.ones((1, 3)))
        np.testing.assert_allclose(net(x).data, other(x).data)

    def test_zero_grad(self):
        net = Linear(2, 2, rng=0)
        net(Tensor(np.ones((1, 2)))).sum().backward()
        assert net.weight.grad is not None
        net.zero_grad()
        assert net.weight.grad is None

"""Unit and gradient-check tests for the autograd Tensor engine."""

import gc
import weakref

import numpy as np
import pytest

import repro.nn.tensor as tensor_module
from repro.errors import ShapeError
from repro.nn import SGD, Adam, Tensor, as_tensor, concat, parameter, stack


def numeric_grad(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference numerical gradient of scalar fn at x."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = grad.reshape(-1)
    x_flat = x.reshape(-1)
    for i in range(x_flat.size):
        orig = x_flat[i]
        x_flat[i] = orig + eps
        hi = fn(x)
        x_flat[i] = orig - eps
        lo = fn(x)
        x_flat[i] = orig
        flat[i] = (hi - lo) / (2 * eps)
    return grad


def check_gradient(build, x0: np.ndarray, atol: float = 1e-5) -> None:
    """Assert autograd gradient matches numerical gradient of `build`."""
    t = parameter(x0.copy())
    out = build(t)
    out.backward()
    expected = numeric_grad(lambda arr: float(build(Tensor(arr)).data), x0.copy())
    np.testing.assert_allclose(t.grad, expected, atol=atol)


class TestBasicOps:
    def test_add_values(self):
        assert (Tensor([1.0, 2.0]) + Tensor([3.0, 4.0])).data.tolist() == [4.0, 6.0]

    def test_scalar_promotion(self):
        assert (Tensor([1.0]) + 2).data.tolist() == [3.0]
        assert (2 * Tensor([3.0])).data.tolist() == [6.0]
        assert (1 - Tensor([0.25])).data.tolist() == [0.75]
        assert (1 / Tensor([4.0])).data.tolist() == [0.25]

    def test_item_scalar_only(self):
        assert Tensor(5.0).item() == 5.0
        with pytest.raises(ShapeError):
            Tensor([1.0, 2.0]).item()

    def test_backward_requires_scalar(self):
        p = parameter([1.0, 2.0])
        with pytest.raises(ShapeError):
            (p * 2).backward()

    def test_backward_on_constant_raises(self):
        with pytest.raises(RuntimeError):
            Tensor(3.0).backward()


class TestGradients:
    def test_add_mul(self):
        check_gradient(lambda t: ((t * 3.0 + 1.0) * t).sum(), np.array([1.0, -2.0, 0.5]))

    def test_div(self):
        check_gradient(lambda t: (t / 2.0 + 3.0 / t).sum(), np.array([1.0, 2.0, -1.5]))

    def test_pow(self):
        check_gradient(lambda t: (t**3).sum(), np.array([1.0, -2.0, 0.5]))

    def test_exp_log(self):
        check_gradient(lambda t: (t.exp() + (t + 3.0).log()).sum(), np.array([0.1, 0.5, -0.2]))

    def test_tanh_sigmoid_relu(self):
        x = np.array([-1.0, 0.3, 2.0])
        check_gradient(lambda t: t.tanh().sum(), x)
        check_gradient(lambda t: t.sigmoid().sum(), x)
        check_gradient(lambda t: t.relu().sum(), np.array([-1.0, 0.3, 2.0]))

    def test_abs_clip_min(self):
        check_gradient(lambda t: t.abs().sum(), np.array([-1.0, 0.5, 2.0]))
        check_gradient(lambda t: t.clip_min(0.0).sum(), np.array([-1.0, 0.5, 2.0]))

    def test_matmul_2d(self):
        a0 = np.arange(6, dtype=np.float64).reshape(2, 3) / 3.0
        b = Tensor(np.arange(12, dtype=np.float64).reshape(3, 4) / 5.0)
        check_gradient(lambda t: (t @ b).sum(), a0)

    def test_matmul_grad_right(self):
        a = Tensor(np.arange(6, dtype=np.float64).reshape(2, 3))
        b0 = np.arange(12, dtype=np.float64).reshape(3, 4) / 7.0
        p = parameter(b0.copy())
        (a @ p).sum().backward()
        expected = numeric_grad(lambda arr: float((a.data @ arr).sum()), b0.copy())
        np.testing.assert_allclose(p.grad, expected, atol=1e-5)

    def test_vec_matmul(self):
        w = Tensor(np.arange(6, dtype=np.float64).reshape(2, 3))
        check_gradient(lambda t: (t @ w).sum(), np.array([0.5, -1.0]))

    def test_transpose(self):
        check_gradient(lambda t: (t.T @ Tensor(np.ones((2, 2)))).sum(),
                       np.arange(4, dtype=np.float64).reshape(2, 2))

    def test_reshape(self):
        check_gradient(lambda t: (t.reshape(3, 2) * 2.0).sum(),
                       np.arange(6, dtype=np.float64).reshape(2, 3))

    def test_getitem_gather_accumulates(self):
        p = parameter(np.ones((4, 2)))
        out = p[np.array([0, 0, 2])].sum()
        out.backward()
        np.testing.assert_allclose(p.grad, [[2, 2], [0, 0], [1, 1], [0, 0]])

    def test_sum_axis_keepdims(self):
        x = np.arange(6, dtype=np.float64).reshape(2, 3)
        check_gradient(lambda t: (t.sum(axis=0) ** 2).sum(), x.copy())
        check_gradient(lambda t: (t.sum(axis=1, keepdims=True) * t).sum(), x.copy())

    def test_mean(self):
        check_gradient(lambda t: (t.mean(axis=1) ** 2).sum(),
                       np.arange(6, dtype=np.float64).reshape(2, 3))

    def test_max(self):
        check_gradient(lambda t: t.max(), np.array([1.0, 5.0, 3.0]))

    def test_broadcast_add_bias(self):
        b0 = np.array([0.5, -0.5])
        x = Tensor(np.ones((3, 2)))
        p = parameter(b0.copy())
        ((x + p) ** 2).sum().backward()
        expected = numeric_grad(lambda arr: float(((x.data + arr) ** 2).sum()), b0.copy())
        np.testing.assert_allclose(p.grad, expected, atol=1e-5)

    def test_diamond_graph_accumulation(self):
        # y = x*x used twice downstream: gradient must accumulate once per path.
        p = parameter([2.0])
        y = p * p
        z = (y + y).sum()
        z.backward()
        np.testing.assert_allclose(p.grad, [8.0])

    def test_grad_accumulates_across_backward_calls(self):
        p = parameter([1.0])
        (p * 2.0).sum().backward()
        (p * 2.0).sum().backward()
        np.testing.assert_allclose(p.grad, [4.0])
        p.zero_grad()
        assert p.grad is None


class _AddAtSpy:
    """Stands in for the ``np`` module of :mod:`repro.nn.tensor` and
    counts ``np.add.at`` calls; everything else is plain numpy."""

    def __init__(self):
        self.calls = 0
        self.add = self

    def at(self, *args):
        self.calls += 1
        np.add.at(*args)

    def __getattr__(self, name):
        return getattr(np, name)


def _getitem_grad(index, monkeypatch, shape=(5, 4, 3)):
    """Gradient of ``(p[index] * w).sum()`` and the number of np.add.at
    calls its backward made, plus the np.add.at reference gradient."""
    rng = np.random.default_rng(0)
    p = parameter(rng.normal(size=shape))
    weights = rng.normal(size=p.data[index].shape)
    spy = _AddAtSpy()
    monkeypatch.setattr(tensor_module, "np", spy)
    (p[index] * Tensor(weights)).sum().backward()
    monkeypatch.undo()
    reference = np.zeros(shape)
    np.add.at(reference, index, weights)
    return p.grad, reference, spy.calls


class TestGetitemBackward:
    @pytest.mark.parametrize("index", [
        2,
        -1,
        slice(0, 5, 2),
        slice(None, None, -2),
        (slice(1, 4), slice(None, 2)),
        (1, slice(None), -2),
        (slice(None), 3),
    ], ids=["int", "neg-int", "step-slice", "neg-step-slice",
            "slice-tuple", "mixed-int-slice", "slice-then-int"])
    def test_basic_index_matches_add_at(self, index, monkeypatch):
        grad, reference, calls = _getitem_grad(index, monkeypatch)
        np.testing.assert_array_equal(grad, reference)
        assert calls == 0

    def test_duplicate_index_array_accumulates(self, monkeypatch):
        index = np.array([0, 3, 0, 0, 3])
        grad, reference, calls = _getitem_grad(index, monkeypatch)
        np.testing.assert_array_equal(grad, reference)
        assert calls == 1
        assert not np.array_equal(grad[0], np.zeros((4, 3)))

    def test_duplicates_inside_a_tuple_index(self, monkeypatch):
        index = (np.array([1, 1, 2]), slice(None), 0)
        grad, reference, calls = _getitem_grad(index, monkeypatch)
        np.testing.assert_array_equal(grad, reference)
        assert calls == 1

    @pytest.mark.parametrize("index", [True, (1, True)], ids=["bool", "int-bool"])
    def test_bool_index_takes_add_at(self, index, monkeypatch):
        grad, reference, calls = _getitem_grad(index, monkeypatch)
        np.testing.assert_array_equal(grad, reference)
        assert calls == 1


class TestGradOwnership:
    def test_seed_array_is_copied(self):
        p = parameter(np.ones(3))
        out = p * 2.0
        seed = np.array([1.0, 2.0, 3.0])
        out.backward(seed)
        seed[:] = 100.0
        np.testing.assert_array_equal(out.grad, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(p.grad, [2.0, 4.0, 6.0])

    def test_self_add_matches_finite_differences(self):
        check_gradient(lambda t: ((t + t) ** 2).sum(), np.array([0.5, -1.5, 2.0]))

    def test_mul_plus_self_matches_finite_differences(self):
        b = np.array([3.0, -2.0, 0.25])
        check_gradient(lambda t: ((t * Tensor(b) + t) ** 2).sum(),
                       np.array([0.5, -1.5, 2.0]))
        x0 = np.array([0.5, -1.5, 2.0])
        a = parameter(x0.copy())
        bp = parameter(b.copy())
        ((a * bp + a) ** 2).sum().backward()
        expected = numeric_grad(
            lambda arr: float(((x0 * arr + x0) ** 2).sum()), b.copy())
        np.testing.assert_allclose(bp.grad, expected, atol=1e-5)

    def test_shared_gradient_survives_sibling_accumulation(self):
        a = parameter(np.array([1.0, 2.0]))
        b = parameter(np.array([3.0, 4.0]))
        (a + b).sum().backward()
        # Both leaves received the same upstream array by reference.
        assert a.grad is b.grad
        before = a.grad.copy()
        (b * 5.0).sum().backward()
        np.testing.assert_array_equal(a.grad, before)
        np.testing.assert_array_equal(b.grad, [6.0, 6.0])

    def test_shared_gradient_survives_sibling_optimizer_steps(self):
        a = parameter(np.array([1.0, 2.0]))
        b = parameter(np.array([3.0, 4.0]))
        (a + b).sum().backward()
        SGD([b], lr=0.5, momentum=0.5, weight_decay=0.1).step()
        np.testing.assert_array_equal(a.grad, [1.0, 1.0])
        Adam([b], lr=0.5, weight_decay=0.1).step()
        np.testing.assert_array_equal(a.grad, [1.0, 1.0])


class TestGraphFreedAtBackward:
    def test_intermediate_dies_without_the_cyclic_collector(self):
        p = parameter(np.array([1.0, -2.0, 3.0]))
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            hidden = (p * 2.0).tanh()
            alive = weakref.ref(hidden)
            loss = (hidden * hidden).sum()
            del hidden
            assert alive() is not None  # the loss's graph still holds it
            loss.backward()
            assert alive() is None
        finally:
            if was_enabled:
                gc.enable()
        expected = 2 * np.tanh(2 * p.data) * (1 - np.tanh(2 * p.data) ** 2) * 2
        np.testing.assert_allclose(p.grad, expected)

    def test_second_backward_through_a_freed_graph_raises(self):
        p = parameter(np.array([1.0, 2.0]))
        loss = (p * p).sum()
        loss.backward()
        with pytest.raises(RuntimeError, match="freed"):
            loss.backward()
        np.testing.assert_allclose(p.grad, [2.0, 4.0])

    def test_shared_subgraph_used_by_a_later_graph_raises(self):
        p = parameter(np.array([3.0]))
        shared = p * 2.0
        (shared * 1.0).sum().backward()
        with pytest.raises(RuntimeError, match="freed"):
            (shared * 5.0).sum().backward()

    def test_leaves_keep_their_gradient_and_stay_trainable(self):
        p = parameter(np.array([1.0]))
        (p * 3.0).sum().backward()
        (p * 3.0).sum().backward()
        np.testing.assert_allclose(p.grad, [6.0])
        assert p.requires_grad and p._backward_fn is None


class TestConcatStack:
    def test_concat_values_and_grads(self):
        a = parameter([1.0, 2.0])
        b = parameter([3.0])
        out = concat([a, b]) * Tensor([1.0, 10.0, 100.0])
        out.sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 10.0])
        np.testing.assert_allclose(b.grad, [100.0])

    def test_concat_axis1(self):
        a = parameter(np.ones((2, 2)))
        b = parameter(np.ones((2, 3)))
        out = concat([a, b], axis=1)
        assert out.shape == (2, 5)
        out.sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 2)))

    def test_concat_empty_raises(self):
        with pytest.raises(ValueError):
            concat([])

    def test_stack(self):
        a = parameter([1.0, 2.0])
        b = parameter([3.0, 4.0])
        out = stack([a, b], axis=0)
        assert out.shape == (2, 2)
        (out * Tensor([[1.0, 2.0], [3.0, 4.0]])).sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 2.0])
        np.testing.assert_allclose(b.grad, [3.0, 4.0])

    def test_stack_empty_raises(self):
        with pytest.raises(ValueError):
            stack([])


def test_as_tensor_passthrough():
    t = Tensor([1.0])
    assert as_tensor(t) is t
    assert as_tensor([1.0, 2.0]).shape == (2,)

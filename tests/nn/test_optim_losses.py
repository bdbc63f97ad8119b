"""Tests for optimisers, losses, and cross-subspace attention."""

import numpy as np
import pytest

from repro.nn import (
    SGD,
    Adam,
    Linear,
    Tensor,
    binary_cross_entropy_with_logits,
    cross_subspace_attention,
    l2_regularization,
    mse_loss,
    parameter,
    softmax,
)


def quadratic_loss(p):
    return ((p - Tensor([3.0, -2.0])) ** 2).sum()


class TestOptim:
    @pytest.mark.parametrize("make", [
        lambda ps: SGD(ps, lr=0.1),
        lambda ps: SGD(ps, lr=0.05, momentum=0.9),
        lambda ps: Adam(ps, lr=0.2),
    ])
    def test_converges_on_quadratic(self, make):
        p = parameter([0.0, 0.0])
        opt = make([p])
        for _ in range(200):
            opt.zero_grad()
            quadratic_loss(p).backward()
            opt.step()
        np.testing.assert_allclose(p.data, [3.0, -2.0], atol=1e-2)

    def test_weight_decay_shrinks(self):
        p = parameter([10.0])
        opt = SGD([p], lr=0.1, weight_decay=1.0)
        # zero-gradient objective: only decay acts
        opt.zero_grad()
        (p * 0.0).sum().backward()
        opt.step()
        assert abs(p.data[0]) < 10.0

    def test_rejects_empty_params(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_rejects_bad_lr(self):
        with pytest.raises(ValueError):
            Adam([parameter([1.0])], lr=0.0)

    def test_skips_none_grad(self):
        p = parameter([1.0])
        opt = Adam([p], lr=0.1)
        opt.step()  # no backward run; must not crash
        np.testing.assert_allclose(p.data, [1.0])


def reference_adam_step(params, grads, m, v, t, lr, betas, eps,
                        weight_decay):
    """Adam's update written with temporaries, as it was before the
    scratch arrays; returns the new parameter arrays."""
    beta1, beta2 = betas
    bias1, bias2 = 1.0 - beta1**t, 1.0 - beta2**t
    out = []
    for data, grad, m_i, v_i in zip(params, grads, m, v):
        if weight_decay:
            grad = grad + weight_decay * data
        m_i *= beta1
        m_i += (1.0 - beta1) * grad
        v_i *= beta2
        v_i += (1.0 - beta2) * grad**2
        m_hat = m_i / bias1
        v_hat = v_i / bias2
        out.append(data - lr * m_hat / (np.sqrt(v_hat) + eps))
    return out


class TestAdamArithmetic:
    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_bit_identical_to_the_reference_update(self, weight_decay):
        rng = np.random.default_rng(0)
        shapes = [(7, 5), (5,), (1,)]
        params = [parameter(rng.normal(size=s)) for s in shapes]
        opt = Adam(params, lr=0.03, weight_decay=weight_decay)
        data = [p.data.copy() for p in params]
        m = [np.zeros(s) for s in shapes]
        v = [np.zeros(s) for s in shapes]
        for t in range(1, 8):
            grads = [rng.normal(size=s) * 10.0**rng.integers(-6, 3)
                     for s in shapes]
            for param, grad in zip(params, grads):
                param.grad = grad
            kept = [g.copy() for g in grads]
            opt.step()
            data = reference_adam_step(data, grads, m, v, t, opt.lr,
                                       opt.betas, opt.eps, weight_decay)
            for i, param in enumerate(params):
                assert np.array_equal(param.data, data[i])
                assert np.array_equal(opt._m[i], m[i])
                assert np.array_equal(opt._v[i], v[i])
                # .grad belongs to the graph: the step only reads it.
                assert np.array_equal(param.grad, kept[i])


class TestLosses:
    def test_bce_matches_reference(self):
        logits = Tensor([0.0, 2.0, -2.0])
        targets = np.array([1.0, 1.0, 0.0])
        expected = -np.mean(
            targets * np.log(1 / (1 + np.exp(-logits.data)))
            + (1 - targets) * np.log(1 - 1 / (1 + np.exp(-logits.data)))
        )
        assert binary_cross_entropy_with_logits(logits, targets).item() == pytest.approx(expected)

    def test_bce_extreme_logits_stable(self):
        logits = Tensor([1000.0, -1000.0])
        loss = binary_cross_entropy_with_logits(logits, np.array([1.0, 0.0]))
        assert np.isfinite(loss.item())
        assert loss.item() == pytest.approx(0.0, abs=1e-9)

    def test_l2_regularization(self):
        p = parameter([3.0, 4.0])
        assert l2_regularization([p], 0.5).item() == pytest.approx(12.5)
        with pytest.raises(ValueError):
            l2_regularization([p], -0.1)

    def test_mse(self):
        assert mse_loss(Tensor([1.0, 2.0]), np.array([1.0, 4.0])).item() == pytest.approx(2.0)

    def test_bce_trains_classifier(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(80, 2))
        y = (x[:, 0] + x[:, 1] > 0).astype(float)
        layer = Linear(2, 1, rng=0)
        opt = Adam(layer.parameters(), lr=0.1)
        for _ in range(100):
            opt.zero_grad()
            logits = layer(Tensor(x)).reshape(-1)
            binary_cross_entropy_with_logits(logits, y).backward()
            opt.step()
        preds = (layer(Tensor(x)).data.reshape(-1) > 0).astype(float)
        assert (preds == y).mean() > 0.95


class TestAttention:
    def test_softmax_sums_to_one(self):
        w = softmax(Tensor(np.array([[1.0, 2.0, 3.0]])), axis=-1)
        np.testing.assert_allclose(w.data.sum(axis=-1), 1.0)

    def test_cross_subspace_attention_shapes(self):
        vecs = Tensor(np.stack([np.ones(4) * i for i in range(1, 4)]))
        assert cross_subspace_attention(vecs).shape == (3, 4)
        batched = Tensor(np.ones((5, 3, 4)))
        assert cross_subspace_attention(batched).shape == (5, 3, 4)

    def test_cross_subspace_single_space_zero_context(self):
        ctx = cross_subspace_attention(Tensor(np.ones((1, 4))))
        np.testing.assert_array_equal(ctx.data, np.zeros((1, 4)))

    def test_context_is_convex_combination(self):
        vecs = Tensor(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
        ctx = cross_subspace_attention(vecs)
        # context of a mixes b and c; entries lie inside their convex hull
        assert 0.0 <= ctx.data[0, 0] <= 1.0
        assert 0.0 <= ctx.data[0, 1] <= 1.0

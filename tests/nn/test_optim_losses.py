"""Tests for optimisers, schedulers, losses, and attention blocks."""

import numpy as np
import pytest

from repro.nn import (
    SGD,
    Adam,
    GlobalAttentionPooling,
    Linear,
    StepLR,
    Tensor,
    binary_cross_entropy_with_logits,
    clip_grad_norm,
    cross_entropy,
    cross_subspace_attention,
    fuse_with_context,
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

    def test_step_lr_decays(self):
        p = parameter([1.0])
        opt = SGD([p], lr=1.0)
        sched = StepLR(opt, step_size=2, gamma=0.1)
        sched.step()
        assert opt.lr == 1.0
        sched.step()
        assert opt.lr == pytest.approx(0.1)

    def test_clip_grad_norm(self):
        p = parameter([3.0, 4.0])
        (p * Tensor([3.0, 4.0])).sum().backward()
        norm = clip_grad_norm([p], max_norm=1.0)
        assert norm == pytest.approx(5.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0)

    def test_skips_none_grad(self):
        p = parameter([1.0])
        opt = Adam([p], lr=0.1)
        opt.step()  # no backward run; must not crash
        np.testing.assert_allclose(p.data, [1.0])


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

    def test_cross_entropy_uniform(self):
        logits = Tensor(np.zeros((4, 3)))
        loss = cross_entropy(logits, np.array([0, 1, 2, 0]))
        assert loss.item() == pytest.approx(np.log(3))

    def test_cross_entropy_shape_checks(self):
        with pytest.raises(ValueError):
            cross_entropy(Tensor(np.zeros(3)), np.array([0]))
        with pytest.raises(ValueError):
            cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 1, 2]))

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

    def test_global_attention_pooling_shape(self):
        pool = GlobalAttentionPooling(6, 4, rng=0)
        out = pool(Tensor(np.random.default_rng(0).normal(size=(5, 6))))
        assert out.shape == (4,)

    def test_global_attention_pooling_single_sentence(self):
        pool = GlobalAttentionPooling(6, 4, rng=0)
        out = pool(Tensor(np.ones((1, 6))))
        assert out.shape == (4,)

    def test_pooling_trains(self):
        pool = GlobalAttentionPooling(3, 2, rng=0)
        x = Tensor(np.random.default_rng(1).normal(size=(4, 3)))
        target = np.array([1.0, -1.0])
        opt = Adam(pool.parameters(), lr=0.05)
        first = None
        for _ in range(50):
            opt.zero_grad()
            loss = mse_loss(pool(x), target)
            if first is None:
                first = loss.item()
            loss.backward()
            opt.step()
        assert mse_loss(pool(x), target).item() < first

    def test_cross_subspace_attention_shapes(self):
        vecs = [Tensor(np.ones(4) * i) for i in range(1, 4)]
        ctx = cross_subspace_attention(vecs)
        assert len(ctx) == 3
        assert all(c.shape == (4,) for c in ctx)

    def test_cross_subspace_single_space_zero_context(self):
        ctx = cross_subspace_attention([Tensor(np.ones(4))])
        np.testing.assert_array_equal(ctx[0].data, np.zeros(4))

    def test_cross_subspace_empty_raises(self):
        with pytest.raises(ValueError):
            cross_subspace_attention([])

    def test_context_is_convex_combination(self):
        a = Tensor(np.array([1.0, 0.0]))
        b = Tensor(np.array([0.0, 1.0]))
        c = Tensor(np.array([1.0, 1.0]))
        ctx = cross_subspace_attention([a, b, c])
        # context of a mixes b and c; entries lie inside their convex hull
        assert 0.0 <= ctx[0].data[0] <= 1.0
        assert 0.0 <= ctx[0].data[1] <= 1.0

    def test_fuse_with_context_doubles_dim(self):
        vecs = [Tensor(np.ones(4)), Tensor(np.zeros(4))]
        fused = fuse_with_context(vecs)
        assert all(f.shape == (8,) for f in fused)
        np.testing.assert_array_equal(fused[0].data[:4], np.ones(4))

"""Integration tests: the autograd stack trains real models end to end."""

import numpy as np

from repro.nn import (
    MLP,
    SGD,
    Adam,
    Linear,
    Tensor,
    binary_cross_entropy_with_logits,
    concat,
    mse_loss,
)


class TestRegression:
    def test_mlp_fits_nonlinear_function(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, size=(128, 2))
        y = np.sin(2 * x[:, 0]) * x[:, 1]
        net = MLP([2, 24, 1], activation="tanh", final_activation=False, rng=0)
        opt = Adam(net.parameters(), lr=1e-2)
        first = None
        for _ in range(200):
            opt.zero_grad()
            loss = mse_loss(net(Tensor(x)).reshape(-1), y)
            if first is None:
                first = loss.item()
            loss.backward()
            opt.step()
        final = mse_loss(net(Tensor(x)).reshape(-1), y).item()
        assert final < first * 0.2

    def test_relu_classifier_trains_with_sgd_momentum(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(120, 4))
        labels = (x[:, 0] + x[:, 1] - x[:, 2] > 0).astype(float)
        net = MLP([4, 12, 1], activation="relu", final_activation=False, rng=0)
        opt = SGD(net.parameters(), lr=0.1, momentum=0.9)
        first = None
        for _ in range(120):
            opt.zero_grad()
            loss = binary_cross_entropy_with_logits(
                net(Tensor(x)).reshape(-1), labels)
            if first is None:
                first = loss.item()
            loss.backward()
            opt.step()
        logits = net(Tensor(x)).reshape(-1)
        assert binary_cross_entropy_with_logits(logits, labels).item() < first * 0.3
        assert ((logits.data > 0) == labels).mean() > 0.9

    def test_concat_training_path(self):
        """Gradients flow through concat into both branches."""
        left = Linear(3, 2, rng=0)
        right = Linear(3, 2, rng=1)
        head = Linear(4, 1, rng=2)
        x = Tensor(np.random.default_rng(3).normal(size=(8, 3)))
        out = head(concat([left(x), right(x)], axis=1)).sum()
        out.backward()
        assert left.weight.grad is not None
        assert right.weight.grad is not None
        assert np.abs(left.weight.grad).sum() > 0
        assert np.abs(right.weight.grad).sum() > 0

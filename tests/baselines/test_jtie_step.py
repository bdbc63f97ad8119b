"""JTIE's written-out training step against the composed-autograd one.

``bilinear_gradients`` replaces a forward and backward pass composed from
:class:`~repro.nn.Tensor` primitives; that composition stays here as the
reference. One step's gradients match it within 1e-12, and a short fit's
weights within 1e-10.
"""

import numpy as np
import pytest

from repro.baselines import neural
from repro.baselines.neural import JTIERecommender, bilinear_gradients
from repro.data import load_acm
from repro.nn import Linear, Tensor, binary_cross_entropy_with_logits


def composed_gradients(bilinear, head, x, labels):
    """The reference step: ``[u; v] = tanh(bilinear(x))``, the logit
    ``head(u * v)`` and the mean BCE, differentiated by autograd."""
    n = labels.shape[0]
    for param in bilinear.parameters() + head.parameters():
        param.zero_grad()
    u = bilinear(Tensor(x[:n])).tanh()
    v = bilinear(Tensor(x[n:])).tanh()
    logits = head(u * v).reshape(-1)
    binary_cross_entropy_with_logits(logits, labels).backward()


def _batch(n=40, width=60, seed=0):
    rng = np.random.default_rng(seed)
    x = np.abs(rng.normal(size=(2 * n, width)))
    x[rng.random(x.shape) < 0.7] = 0.0  # TF-IDF-like sparsity
    labels = (rng.random(n) < 0.3).astype(float)
    return x, labels


def _gradients(step, bilinear, head, x, labels):
    step(bilinear, head, x, labels)
    return [p.grad.copy() for p in (bilinear.weight, head.weight, head.bias)]


class TestStep:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gradients_match_composed(self, seed):
        x, labels = _batch(seed=seed)
        bilinear = Linear(x.shape[1], 24, bias=False, rng=seed)
        head = Linear(24, 1, rng=seed + 10)
        head.bias.data[:] = 0.3
        expected = _gradients(composed_gradients, bilinear, head, x, labels)
        got = _gradients(bilinear_gradients, bilinear, head, x, labels)
        for name, a, b in zip(("W", "h", "b"), got, expected):
            assert a.shape == b.shape, name
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12,
                                       err_msg=name)

    def test_zero_logit_takes_the_losses_subgradient(self):
        # With a zero head every logit is exactly 0, where the loss's
        # subgradient is -y, not sigmoid(0) - y.
        x, labels = _batch(seed=3)
        bilinear = Linear(x.shape[1], 24, bias=False, rng=3)
        head = Linear(24, 1, rng=4)
        head.weight.data[:] = 0.0
        expected = _gradients(composed_gradients, bilinear, head, x, labels)
        got = _gradients(bilinear_gradients, bilinear, head, x, labels)
        assert got[2][0] == pytest.approx(-labels.mean(), abs=1e-15)
        for a, b in zip(got, expected):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


class TestFit:
    @pytest.fixture(scope="class")
    def corpus(self):
        corpus = load_acm(scale=0.3, seed=8)
        train, _ = corpus.split_by_year(2014)
        return corpus, train

    def test_short_fit_matches_composed(self, corpus, monkeypatch):
        corpus, train = corpus
        fitted = JTIERecommender(seed=1, epochs=2).fit(corpus, train)
        monkeypatch.setattr(neural, "bilinear_gradients", composed_gradients)
        reference = JTIERecommender(seed=1, epochs=2).fit(corpus, train)
        pairs = [(fitted.bilinear_.weight, reference.bilinear_.weight),
                 (fitted._head.weight, reference._head.weight),
                 (fitted._head.bias, reference._head.bias)]
        for got, expected in pairs:
            assert not np.array_equal(expected.data, 0.0)
            np.testing.assert_allclose(got.data, expected.data, rtol=0,
                                       atol=1e-10)

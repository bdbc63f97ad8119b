"""Tests for the functional ops (softmax, normalisation, dropout)."""

import numpy as np
import pytest

from repro.nn import (
    Tensor,
    dropout,
    l2_normalize,
    log_softmax,
    softmax,
)
from repro.nn.tensor import parameter


class TestSoftmax:
    def test_rows_sum_to_one(self):
        x = Tensor(np.random.default_rng(0).normal(size=(4, 6)))
        np.testing.assert_allclose(softmax(x).data.sum(axis=-1), 1.0)

    def test_extreme_values_stable(self):
        x = Tensor(np.array([1000.0, -1000.0, 0.0]))
        out = softmax(x)
        assert np.isfinite(out.data).all()
        assert out.data[0] == pytest.approx(1.0)

    def test_log_softmax_consistent(self):
        x = Tensor(np.random.default_rng(1).normal(size=(3, 5)))
        np.testing.assert_allclose(log_softmax(x).data,
                                   np.log(softmax(x).data), atol=1e-12)

    def test_softmax_gradient_flows(self):
        p = parameter(np.array([1.0, 2.0, 3.0]))
        (softmax(p) * Tensor([1.0, 0.0, 0.0])).sum().backward()
        assert p.grad is not None
        # gradient of a softmax component sums to ~0 over inputs
        assert abs(p.grad.sum()) < 1e-12


class TestNormalisation:
    def test_l2_normalize_unit_rows(self):
        x = Tensor(np.random.default_rng(2).normal(size=(5, 3)))
        norms = np.linalg.norm(l2_normalize(x).data, axis=-1)
        np.testing.assert_allclose(norms, 1.0, rtol=1e-6)

    def test_l2_normalize_zero_row_safe(self):
        x = Tensor(np.zeros((2, 3)))
        out = l2_normalize(x)
        assert np.isfinite(out.data).all()


class TestDropoutFunctional:
    def test_rate_zero_identity(self):
        x = Tensor(np.ones((3, 3)))
        out = dropout(x, 0.0, np.random.default_rng(0), training=True)
        np.testing.assert_array_equal(out.data, x.data)

    def test_eval_identity(self):
        x = Tensor(np.ones((3, 3)))
        out = dropout(x, 0.9, np.random.default_rng(0), training=False)
        np.testing.assert_array_equal(out.data, x.data)

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            dropout(Tensor(np.ones(3)), 1.0, np.random.default_rng(0))

    def test_expected_scale_preserved(self):
        rng = np.random.default_rng(1)
        x = Tensor(np.ones((200, 200)))
        out = dropout(x, 0.3, rng, training=True)
        assert out.data.mean() == pytest.approx(1.0, abs=0.05)

"""Tests for the functional ops (softmax, normalisation)."""

import numpy as np
import pytest

from repro.nn import Tensor, l2_normalize, softmax
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


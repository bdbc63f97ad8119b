"""Composite differentiable functions built on the Tensor primitives.

Everything here is a pure function of :class:`~repro.nn.tensor.Tensor`
inputs; stateful building blocks live in :mod:`repro.nn.layers`.
"""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Tensor, as_tensor


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along *axis*.

    Implemented as ``exp(x - max(x)) / sum(exp(x - max(x)))`` with the max
    treated as a constant shift (its gradient contribution cancels).
    """
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    exps = shifted.exp()
    return exps / exps.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable ``log(softmax(x))`` along *axis*."""
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def l2_normalize(x: Tensor, axis: int = -1, eps: float = 1e-12) -> Tensor:
    """Scale rows of *x* to unit Euclidean norm."""
    norm = (x * x).sum(axis=axis, keepdims=True) + eps
    return x / norm**0.5


def dropout(x: Tensor, rate: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout: zero a fraction *rate* of entries and rescale."""
    if not training or rate <= 0.0:
        return x
    if rate >= 1.0:
        raise ValueError(f"dropout rate must be < 1, got {rate}")
    mask = (rng.random(x.shape) >= rate).astype(np.float64) / (1.0 - rate)
    return x * as_tensor(mask)

"""Composite differentiable functions built on the Tensor primitives.

Everything here is a pure function of :class:`~repro.nn.tensor.Tensor`
inputs; stateful building blocks live in :mod:`repro.nn.layers`.
"""

from __future__ import annotations

from repro.nn.tensor import Tensor


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along *axis*.

    Implemented as ``exp(x - max(x)) / sum(exp(x - max(x)))`` with the max
    treated as a constant shift (its gradient contribution cancels).
    """
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    exps = shifted.exp()
    return exps / exps.sum(axis=axis, keepdims=True)


def l2_normalize(x: Tensor, axis: int = -1, eps: float = 1e-12) -> Tensor:
    """Scale rows of *x* to unit Euclidean norm."""
    norm = (x * x).sum(axis=axis, keepdims=True) + eps
    return x / norm**0.5

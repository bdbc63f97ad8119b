"""Loss functions: BCE (paper Eq. 23), L2 and MSE.

The Eq. 14 hinge is written inline in
:class:`~repro.core.twin.TwinNetworkTrainer`.
"""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Tensor, as_tensor


def l2_regularization(params: list[Tensor], weight: float) -> Tensor:
    """``weight * sum(||theta||^2)`` — the lambda term of Eqs. 14 and 23."""
    if weight < 0:
        raise ValueError(f"regularization weight must be non-negative, got {weight}")
    total = as_tensor(0.0)
    for param in params:
        total = total + (param * param).sum()
    return total * weight


def binary_cross_entropy_with_logits(logits: Tensor, targets: np.ndarray | Tensor) -> Tensor:
    """Numerically stable BCE on raw scores (paper Eq. 23 likelihood term).

    Uses the log-sum-exp identity
    ``max(x, 0) - x*y + log(1 + exp(-|x|))``.
    """
    target_t = as_tensor(targets)
    positive_part = logits.clip_min(0.0)
    softplus_term = ((-(logits.abs())).exp() + 1.0).log()
    return (positive_part - logits * target_t + softplus_term).mean()


def mse_loss(prediction: Tensor, target: np.ndarray | Tensor) -> Tensor:
    """Mean squared error."""
    diff = prediction - as_tensor(target)
    return (diff * diff).mean()

"""A miniature numpy autograd framework.

This subpackage replaces the paper's PyTorch/DGL dependency with a small,
auditable reverse-mode autodiff engine: :class:`Tensor` with a recorded
operation graph, layer modules, optimisers, and losses (the Eq. 23
binary cross-entropy among them). The Eq. 14 hinge is written inline in
:class:`~repro.core.twin.TwinNetworkTrainer`.
"""

from repro.nn.attention import (
    GlobalAttentionPooling,
    cross_subspace_attention,
    fuse_with_context,
)
from repro.nn.functional import (
    dropout,
    l2_normalize,
    log_softmax,
    softmax,
)
from repro.nn.layers import (
    MLP,
    Dropout,
    Embedding,
    Linear,
    Module,
    ReLU,
    Sequential,
    Tanh,
)
from repro.nn.losses import (
    binary_cross_entropy_with_logits,
    cross_entropy,
    l2_regularization,
    mse_loss,
)
from repro.nn.optim import SGD, Adam, Optimizer, StepLR, clip_grad_norm
from repro.nn.serialization import load_module
from repro.nn.tensor import Tensor, as_tensor, concat, no_grad, parameter, stack

__all__ = [
    "Tensor", "as_tensor", "concat", "stack", "parameter", "no_grad",
    "Module", "Linear", "MLP", "Embedding", "Sequential", "Dropout",
    "Tanh", "ReLU",
    "GlobalAttentionPooling", "cross_subspace_attention", "fuse_with_context",
    "softmax", "log_softmax", "l2_normalize", "dropout",
    "l2_regularization", "cross_entropy",
    "binary_cross_entropy_with_logits", "mse_loss",
    "Optimizer", "SGD", "Adam", "StepLR", "clip_grad_norm",
    "load_module",
]

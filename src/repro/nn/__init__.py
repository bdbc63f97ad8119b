"""A miniature numpy autograd framework.

This subpackage replaces the paper's PyTorch/DGL dependency with a small,
auditable reverse-mode autodiff engine: :class:`Tensor` with a recorded
operation graph, the layer modules and optimisers (SGD, Adam) that SEM,
NPRec and the neural baselines train with, the Eqs. 10-11
cross-subspace attention, NPRec's Eqs. 15-18 graph convolution as one
hand-differentiated op, and the Eq. 23 binary cross-entropy. The
Eq. 14 hinge is written inline in
:class:`~repro.core.twin.TwinNetworkTrainer`.
"""

from repro.nn.attention import cross_subspace_attention
from repro.nn.functional import l2_normalize, softmax
from repro.nn.gcn import gcn_aggregate
from repro.nn.layers import (
    MLP,
    Embedding,
    Linear,
    Module,
    ReLU,
    Sequential,
    Tanh,
)
from repro.nn.losses import (
    binary_cross_entropy_with_logits,
    l2_regularization,
    mse_loss,
)
from repro.nn.optim import SGD, Adam, Optimizer
from repro.nn.serialization import load_module
from repro.nn.tensor import Tensor, as_tensor, concat, no_grad, parameter, stack

__all__ = [
    "Tensor", "as_tensor", "concat", "stack", "parameter", "no_grad",
    "Module", "Linear", "MLP", "Embedding", "Sequential", "Tanh", "ReLU",
    "cross_subspace_attention", "gcn_aggregate", "softmax", "l2_normalize",
    "l2_regularization", "binary_cross_entropy_with_logits", "mse_loss",
    "Optimizer", "SGD", "Adam", "load_module",
]

"""Stateful neural building blocks (Module, Linear, MLP, Embedding, ...).

The :class:`Module` base class mirrors the familiar torch.nn contract at a
miniature scale: parameters are discovered recursively through attributes,
and ``state_dict``/``load_state_dict`` round-trip weights.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.nn import init as initializers
from repro.nn.tensor import Tensor, parameter
from repro.utils.rng import as_generator


class Module:
    """Base class for all neural network modules.

    Subclasses assign :class:`Tensor` parameters and child ``Module``s as
    plain attributes; :meth:`parameters` and :meth:`state_dict` find them by
    reflection, in deterministic (sorted attribute name) order.
    """

    def parameters(self) -> list[Tensor]:
        """All trainable tensors of this module and its children."""
        params: list[Tensor] = []
        for _, value in self._components():
            if isinstance(value, Tensor):
                if value.requires_grad:
                    params.append(value)
            else:
                params.extend(value.parameters())
        return params

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        """Yield ``(dotted_name, tensor)`` for every trainable parameter."""
        for name, value in self._components():
            full = f"{prefix}{name}"
            if isinstance(value, Tensor):
                if value.requires_grad:
                    yield full, value
            else:
                yield from value.named_parameters(prefix=f"{full}.")

    def _components(self) -> list[tuple[str, "Tensor | Module"]]:
        found: list[tuple[str, Tensor | Module]] = []
        for name in sorted(vars(self)):
            value = getattr(self, name)
            if isinstance(value, (Tensor, Module)):
                found.append((name, value))
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, (Tensor, Module)):
                        found.append((f"{name}.{i}", item))
        return found

    def zero_grad(self) -> None:
        """Clear gradients on every parameter."""
        for param in self.parameters():
            param.zero_grad()

    def state_dict(self) -> dict[str, np.ndarray]:
        """Copy of every parameter keyed by dotted name."""
        return {name: tensor.data.copy() for name, tensor in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load parameters saved by :meth:`state_dict` (strict matching).

        The load is atomic: every key and shape is validated against the
        module *before* any parameter is touched, so a mismatch raises
        with the module left exactly as it was (no partial overwrite).
        """
        own = dict(self.named_parameters())
        missing = sorted(set(own) - set(state))
        unexpected = sorted(set(state) - set(own))
        if missing or unexpected:
            raise KeyError(f"state dict mismatch: missing={missing}, unexpected={unexpected}")
        staged: dict[str, np.ndarray] = {}
        mismatched: list[str] = []
        for name, tensor in own.items():
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != tensor.data.shape:
                mismatched.append(
                    f"{name!r}: model {tensor.data.shape}, state {value.shape}")
            else:
                staged[name] = value
        if mismatched:
            raise ValueError(
                "parameter shape mismatch (no parameters were modified): "
                + "; ".join(mismatched))
        for name, tensor in own.items():
            tensor.data = staged[name].copy()

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError


class Linear(Module):
    """Affine layer ``y = x W^T + b``.

    Parameters
    ----------
    in_features, out_features:
        Input/output dimensionality.
    bias:
        Whether to learn an additive bias.
    rng:
        Seed or generator for Xavier initialisation.
    """

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: np.random.Generator | int | None = None) -> None:
        if in_features <= 0 or out_features <= 0:
            raise ValueError(
                f"Linear dimensions must be positive, got ({in_features}, {out_features})"
            )
        self.in_features = in_features
        self.out_features = out_features
        self.weight = parameter(
            initializers.xavier_uniform((out_features, in_features), rng), name="weight"
        )
        self.bias = parameter(initializers.zeros((out_features,)), name="bias") if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight.T
        if self.bias is not None:
            out = out + self.bias
        return out


class Sequential(Module):
    """Chain modules, feeding each output into the next input."""

    def __init__(self, *modules: Module) -> None:
        self.steps = list(modules)

    def forward(self, x: Tensor) -> Tensor:
        for module in self.steps:
            x = module(x)
        return x


class Tanh(Module):
    """Elementwise tanh as a layer."""

    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()


class ReLU(Module):
    """Elementwise ReLU as a layer."""

    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class MLP(Module):
    """Multi-layer perceptron with tanh hidden activations (paper Eqs. 7-8).

    Parameters
    ----------
    sizes:
        Layer widths, e.g. ``[768, 128, 64]`` builds two affine layers.
    activation:
        ``"tanh"`` (paper default) or ``"relu"``.
    final_activation:
        Whether to apply the nonlinearity after the last layer too.
    """

    _ACTIVATIONS = {"tanh": Tanh, "relu": ReLU}

    def __init__(self, sizes: Sequence[int], activation: str = "tanh",
                 final_activation: bool = True,
                 rng: np.random.Generator | int | None = None) -> None:
        sizes = list(sizes)
        if len(sizes) < 2:
            raise ValueError(f"MLP needs at least input and output sizes, got {sizes}")
        if activation not in self._ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}; choose from {sorted(self._ACTIVATIONS)}")
        generator = as_generator(rng)
        steps: list[Module] = []
        for i, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
            steps.append(Linear(fan_in, fan_out, rng=generator))
            last = i == len(sizes) - 2
            if not last or final_activation:
                steps.append(self._ACTIVATIONS[activation]())
        self.net = Sequential(*steps)
        self.sizes = sizes

    def forward(self, x: Tensor) -> Tensor:
        return self.net(x)


class Embedding(Module):
    """Learnable lookup table mapping integer ids to dense vectors."""

    def __init__(self, num_embeddings: int, dim: int,
                 rng: np.random.Generator | int | None = None, std: float = 0.1) -> None:
        if num_embeddings <= 0 or dim <= 0:
            raise ValueError(
                f"Embedding sizes must be positive, got ({num_embeddings}, {dim})"
            )
        self.num_embeddings = num_embeddings
        self.dim = dim
        self.weight = parameter(initializers.normal((num_embeddings, dim), std=std, rng=rng),
                                name="embedding")

    def forward(self, ids: np.ndarray) -> Tensor:
        ids = np.asarray(ids)
        if ids.size and (ids.min() < 0 or ids.max() >= self.num_embeddings):
            raise IndexError(
                f"embedding ids out of range [0, {self.num_embeddings}): "
                f"min={ids.min()}, max={ids.max()}"
            )
        return self.weight[ids]

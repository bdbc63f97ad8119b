"""First-order optimisers: SGD with momentum, and Adam."""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.nn.tensor import Tensor


class Optimizer:
    """Base optimiser: holds parameters and implements ``zero_grad``."""

    def __init__(self, params: Iterable[Tensor], lr: float) -> None:
        self.params = [p for p in params if p.requires_grad]
        if not self.params:
            raise ValueError("optimizer received no trainable parameters")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr

    def zero_grad(self) -> None:
        """Clear gradients on all managed parameters."""
        for param in self.params:
            param.zero_grad()

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(self, params: Iterable[Tensor], lr: float = 0.01,
                 momentum: float = 0.0, weight_decay: float = 0.0) -> None:
        super().__init__(params, lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        """Apply one update using the currently accumulated gradients."""
        for param, velocity in zip(self.params, self._velocity):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            if self.momentum:
                velocity *= self.momentum
                velocity += grad
                grad = velocity
            param.data = param.data - self.lr * grad


class Adam(Optimizer):
    """Adam optimiser (Kingma & Ba, 2015) with decoupled weight decay option."""

    def __init__(self, params: Iterable[Tensor], lr: float = 1e-3,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0) -> None:
        super().__init__(params, lr)
        beta1, beta2 = betas
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError(f"betas must be in [0, 1), got {betas}")
        self.betas = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        #: Two scratch arrays per parameter for the update's intermediates.
        self._scratch = [(np.empty_like(p.data), np.empty_like(p.data))
                         for p in self.params]
        self._t = 0

    def step(self) -> None:
        """Apply one Adam update using accumulated gradients.

        Every intermediate is written into this optimiser's scratch
        arrays and the parameter is updated in place, with the same
        operations in the same order as
        ``param - lr * (m / b1) / (sqrt(v / b2) + eps)``, so the result is
        bit-identical to it. ``.grad`` is only read.
        """
        self._t += 1
        beta1, beta2 = self.betas
        bias1 = 1.0 - beta1**self._t
        bias2 = 1.0 - beta2**self._t
        for param, m, v, (a, b) in zip(self.params, self._m, self._v,
                                       self._scratch):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            m *= beta1
            m += np.multiply(grad, 1.0 - beta1, out=a)
            v *= beta2
            np.square(grad, out=a)
            v += np.multiply(a, 1.0 - beta2, out=a)
            np.divide(m, bias1, out=a)
            a *= self.lr
            np.divide(v, bias2, out=b)
            np.sqrt(b, out=b)
            b += self.eps
            a /= b
            param.data -= a

    def state_dict(self) -> dict:
        """Copy of the optimiser state: step count, lr, first/second moments.

        Together with the model's ``state_dict`` and the shuffle RNG state
        this is everything needed to resume training bit-identically (see
        :mod:`repro.resilience.checkpoint`).
        """
        return {
            "t": self._t,
            "lr": self.lr,
            "m": [m.copy() for m in self._m],
            "v": [v.copy() for v in self._v],
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore state saved by :meth:`state_dict` (strict shape match).

        Validated against the managed parameters before anything is
        written, so a mismatched state (e.g. from a differently shaped
        model) raises without partially overwriting the moments.
        """
        moments_m = [np.asarray(m, dtype=np.float64) for m in state["m"]]
        moments_v = [np.asarray(v, dtype=np.float64) for v in state["v"]]
        if len(moments_m) != len(self.params) or len(moments_v) != len(self.params):
            raise ValueError(
                f"optimizer state holds {len(moments_m)}/{len(moments_v)} "
                f"moment arrays for {len(self.params)} parameters")
        for i, (param, m, v) in enumerate(zip(self.params, moments_m, moments_v)):
            if m.shape != param.data.shape or v.shape != param.data.shape:
                raise ValueError(
                    f"optimizer state shape mismatch at parameter {i}: "
                    f"param {param.data.shape}, m {m.shape}, v {v.shape}")
        self._t = int(state["t"])
        self.lr = float(state["lr"])
        self._m = [m.copy() for m in moments_m]
        self._v = [v.copy() for v in moments_v]


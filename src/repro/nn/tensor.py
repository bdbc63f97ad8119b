"""Reverse-mode automatic differentiation on numpy arrays.

This module provides the :class:`Tensor` class — a thin wrapper around an
``numpy.ndarray`` that records the operations applied to it and can replay
them backwards to accumulate gradients. It supports exactly the operations
the paper's models need (dense layers, attention, GCN message passing,
contrastive and cross-entropy losses) while staying small enough to audit.

Design notes
------------
* Gradients are accumulated into ``Tensor.grad`` (a plain ndarray), only on
  tensors created with ``requires_grad=True`` or downstream of one.
* ``Tensor.grad`` belongs to the graph: a first gradient is stored by
  reference, so siblings may share one array. Accumulation, optimisers
  and clipping rebind ``.grad`` and never write into it in place.
* Broadcasting follows numpy semantics; :func:`_unbroadcast` sums gradients
  back down to each parent's shape.
* The graph is a DAG of ``Tensor`` nodes; :meth:`Tensor.backward` runs a
  topological sort and calls each node's locally stored backward closure.
  It then frees the graph it ran (PyTorch's ``retain_graph=False``): each
  closure refers to its own output, so an unfreed graph is a reference
  cycle that only the cyclic garbage collector reclaims.
* All data is stored as ``float64`` for numerical robustness at the small
  model scales used in this reproduction.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

import numpy as np

from repro.errors import ShapeError

ArrayLike = "np.ndarray | float | int | Sequence[float] | Tensor"


class _GradMode(threading.local):
    """Per-thread switch read by every op; see :func:`no_grad`."""

    enabled = True


_GRAD_MODE = _GradMode()


@contextmanager
def no_grad() -> Iterator[None]:
    """Run ops without recording the autograd graph (inference mode).

    Inside the block every op result is a constant: it has no parents, no
    backward closure and ``requires_grad=False``, so the intermediate
    graph is never built. Values are the same as with recording on. The
    switch is thread-local and restored on exit, also after an exception
    or when blocks nest.
    """
    previous = _GRAD_MODE.enabled
    _GRAD_MODE.enabled = False
    try:
        yield
    finally:
        _GRAD_MODE.enabled = previous


def _freed() -> None:
    """The backward closure of a node whose graph was already run."""
    raise RuntimeError("backward() through a graph that a previous "
                       "backward() already ran and freed")


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum *grad* over broadcast dimensions so it matches *shape*."""
    if grad.shape == shape:
        return grad
    # Sum out prepended broadcast axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum along axes that were size-1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    if grad.shape != shape:
        raise ShapeError(f"cannot unbroadcast gradient {grad.shape} to {shape}")
    return grad


def _as_array(value: ArrayLike) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    return np.asarray(value, dtype=np.float64)


class Tensor:
    """A differentiable multi-dimensional array.

    Parameters
    ----------
    data:
        Anything convertible to a float64 ndarray.
    requires_grad:
        Whether gradients should be accumulated for this leaf.
    parents:
        The tensors this one was computed from (internal use).
    backward_fn:
        Closure propagating ``self.grad`` into the parents (internal use).
    name:
        Optional debugging label.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn",
                 "name", "__weakref__")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        parents: tuple["Tensor", ...] = (),
        backward_fn: Callable[[], None] | None = None,
        name: str | None = None,
    ) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents = parents
        self._backward_fn = backward_fn
        self.name = name

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        """Shape of the underlying array."""
        return self.data.shape

    @property
    def ndim(self) -> int:
        """Number of array dimensions."""
        return self.data.ndim

    @property
    def size(self) -> int:
        """Total number of elements."""
        return self.data.size

    def numpy(self) -> np.ndarray:
        """Return the raw ndarray (shared, not copied)."""
        return self.data

    def item(self) -> float:
        """Return the scalar value; raises if not a single element."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else self._item_error()

    def _item_error(self) -> float:
        raise ShapeError(f"item() requires a scalar tensor, got shape {self.shape}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        grad = ", requires_grad=True" if self.requires_grad else ""
        label = f", name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}{grad}{label})"

    # ------------------------------------------------------------------
    # Graph machinery
    # ------------------------------------------------------------------
    def _accumulate(self, grad: np.ndarray) -> None:
        grad = _unbroadcast(np.asarray(grad, dtype=np.float64), self.data.shape)
        if self.grad is None:
            self.grad = grad
        else:
            self.grad = self.grad + grad

    def zero_grad(self) -> None:
        """Clear any accumulated gradient."""
        self.grad = None

    def backward(self, grad: np.ndarray | float | None = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        Parameters
        ----------
        grad:
            Incoming gradient. Defaults to 1.0, which requires ``self`` to
            be a scalar (the usual "loss.backward()" case).

        Afterwards every node it ran holds no parents, and its closure is
        one that raises, so the intermediates are freed as soon as nothing
        else refers to them and a second pass through the graph fails.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise ShapeError(
                    f"backward() without an explicit gradient requires a scalar, got shape {self.shape}"
                )
            grad = np.ones_like(self.data)
        # The one copy: .grad must never alias the caller's seed array.
        self._accumulate(np.array(grad, dtype=np.float64))

        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in seen:
                    stack.append((parent, False))

        for node in reversed(order):
            if node._backward_fn is not None:
                if node.grad is not None:
                    node._backward_fn()
                node._backward_fn = _freed
                node._parents = ()

    @staticmethod
    def _result(
        data: np.ndarray,
        parents: tuple["Tensor", ...],
        backward_fn: Callable[["Tensor"], Callable[[], None]],
    ) -> "Tensor":
        """Build an op result, wiring the backward closure only if needed."""
        requires = _GRAD_MODE.enabled and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires, parents=parents if requires else ())
        if requires:
            out._backward_fn = backward_fn(out)
        return out

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(_as_array(other))
        data = self.data + other_t.data

        def make(out: "Tensor") -> Callable[[], None]:
            def backward() -> None:
                if self.requires_grad:
                    self._accumulate(out.grad)
                if other_t.requires_grad:
                    other_t._accumulate(out.grad)

            return backward

        return Tensor._result(data, (self, other_t), make)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def make(out: "Tensor") -> Callable[[], None]:
            def backward() -> None:
                if self.requires_grad:
                    self._accumulate(-out.grad)

            return backward

        return Tensor._result(-self.data, (self,), make)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(_as_array(other))
        return self + (-other_t)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return Tensor(_as_array(other)) + (-self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(_as_array(other))
        data = self.data * other_t.data

        def make(out: "Tensor") -> Callable[[], None]:
            def backward() -> None:
                if self.requires_grad:
                    self._accumulate(out.grad * other_t.data)
                if other_t.requires_grad:
                    other_t._accumulate(out.grad * self.data)

            return backward

        return Tensor._result(data, (self, other_t), make)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(_as_array(other))
        data = self.data / other_t.data

        def make(out: "Tensor") -> Callable[[], None]:
            def backward() -> None:
                if self.requires_grad:
                    self._accumulate(out.grad / other_t.data)
                if other_t.requires_grad:
                    other_t._accumulate(-out.grad * self.data / (other_t.data**2))

            return backward

        return Tensor._result(data, (self, other_t), make)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return Tensor(_as_array(other)) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise TypeError("tensor exponents are not supported; use exp/log composition")
        data = self.data**exponent

        def make(out: "Tensor") -> Callable[[], None]:
            def backward() -> None:
                if self.requires_grad:
                    self._accumulate(out.grad * exponent * self.data ** (exponent - 1))

            return backward

        return Tensor._result(data, (self,), make)

    # ------------------------------------------------------------------
    # Linear algebra
    # ------------------------------------------------------------------
    def matmul(self, other: "Tensor") -> "Tensor":
        """Matrix product following ``numpy.matmul`` semantics (2-D case)."""
        other_t = other if isinstance(other, Tensor) else Tensor(_as_array(other))
        data = self.data @ other_t.data

        def make(out: "Tensor") -> Callable[[], None]:
            def backward() -> None:
                grad = out.grad
                if self.requires_grad:
                    if other_t.data.ndim == 1:
                        self._accumulate(np.outer(grad, other_t.data) if grad.ndim else grad * other_t.data)
                    else:
                        self._accumulate(grad @ np.swapaxes(other_t.data, -1, -2))
                if other_t.requires_grad:
                    if self.data.ndim == 1:
                        other_t._accumulate(np.outer(self.data, grad) if grad.ndim else self.data * grad)
                    else:
                        other_t._accumulate(np.swapaxes(self.data, -1, -2) @ grad)

            return backward

        return Tensor._result(data, (self, other_t), make)

    __matmul__ = matmul

    def transpose(self) -> "Tensor":
        """Swap the last two axes (matrix transpose)."""
        data = np.swapaxes(self.data, -1, -2)

        def make(out: "Tensor") -> Callable[[], None]:
            def backward() -> None:
                if self.requires_grad:
                    self._accumulate(np.swapaxes(out.grad, -1, -2))

            return backward

        return Tensor._result(data, (self,), make)

    @property
    def T(self) -> "Tensor":
        """Alias for :meth:`transpose`."""
        return self.transpose()

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        """Return a tensor viewing the same elements in a new shape."""
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.data.shape
        data = self.data.reshape(shape)

        def make(out: "Tensor") -> Callable[[], None]:
            def backward() -> None:
                if self.requires_grad:
                    self._accumulate(out.grad.reshape(original))

            return backward

        return Tensor._result(data, (self,), make)

    def __getitem__(self, index) -> "Tensor":
        """Differentiable indexing/slicing (supports integer-array gather)."""
        data = self.data[index]
        # Ints and slices cannot select an element twice, so their backward
        # is a plain scatter; index arrays may repeat and need np.add.at.
        parts = index if isinstance(index, tuple) else (index,)
        basic = all(isinstance(part, slice)
                    or (isinstance(part, int) and not isinstance(part, bool))
                    for part in parts)

        def make(out: "Tensor") -> Callable[[], None]:
            def backward() -> None:
                if self.requires_grad:
                    grad = np.zeros_like(self.data)
                    if basic:
                        grad[index] = out.grad
                    else:
                        np.add.at(grad, index, out.grad)
                    self._accumulate(grad)

            return backward

        return Tensor._result(data, (self,), make)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        """Differentiable sum over *axis*."""
        data = self.data.sum(axis=axis, keepdims=keepdims)
        in_shape = self.data.shape

        def make(out: "Tensor") -> Callable[[], None]:
            def backward() -> None:
                if not self.requires_grad:
                    return
                grad = out.grad
                if axis is not None and not keepdims:
                    axes = (axis,) if isinstance(axis, int) else tuple(axis)
                    for ax in sorted(a % len(in_shape) for a in axes):
                        grad = np.expand_dims(grad, ax)
                self._accumulate(np.broadcast_to(grad, in_shape))

            return backward

        return Tensor._result(data, (self,), make)

    def mean(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        """Differentiable mean over *axis*."""
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        """Differentiable max; gradient flows to the (first) argmax entries."""
        data = self.data.max(axis=axis, keepdims=keepdims)

        def make(out: "Tensor") -> Callable[[], None]:
            def backward() -> None:
                if not self.requires_grad:
                    return
                grad_out = out.grad
                expanded = self.data.max(axis=axis, keepdims=True)
                mask = (self.data == expanded).astype(np.float64)
                mask /= mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
                if axis is not None and not keepdims:
                    grad_out = np.expand_dims(grad_out, axis)
                self._accumulate(mask * grad_out)

            return backward

        return Tensor._result(data, (self,), make)

    # ------------------------------------------------------------------
    # Elementwise nonlinearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        """Elementwise exponential."""
        data = np.exp(self.data)

        def make(out: "Tensor") -> Callable[[], None]:
            def backward() -> None:
                if self.requires_grad:
                    self._accumulate(out.grad * data)

            return backward

        return Tensor._result(data, (self,), make)

    def log(self) -> "Tensor":
        """Elementwise natural logarithm."""
        data = np.log(self.data)

        def make(out: "Tensor") -> Callable[[], None]:
            def backward() -> None:
                if self.requires_grad:
                    self._accumulate(out.grad / self.data)

            return backward

        return Tensor._result(data, (self,), make)

    def tanh(self) -> "Tensor":
        """Elementwise hyperbolic tangent."""
        data = np.tanh(self.data)

        def make(out: "Tensor") -> Callable[[], None]:
            def backward() -> None:
                if self.requires_grad:
                    self._accumulate(out.grad * (1.0 - data**2))

            return backward

        return Tensor._result(data, (self,), make)

    def sigmoid(self) -> "Tensor":
        """Elementwise logistic sigmoid (numerically stable)."""
        data = np.where(self.data >= 0, 1.0 / (1.0 + np.exp(-self.data)),
                        np.exp(self.data) / (1.0 + np.exp(self.data)))

        def make(out: "Tensor") -> Callable[[], None]:
            def backward() -> None:
                if self.requires_grad:
                    self._accumulate(out.grad * data * (1.0 - data))

            return backward

        return Tensor._result(data, (self,), make)

    def relu(self) -> "Tensor":
        """Elementwise rectified linear unit."""
        mask = self.data > 0
        data = self.data * mask

        def make(out: "Tensor") -> Callable[[], None]:
            def backward() -> None:
                if self.requires_grad:
                    self._accumulate(out.grad * mask)

            return backward

        return Tensor._result(data, (self,), make)

    def abs(self) -> "Tensor":
        """Elementwise absolute value (subgradient 0 at zero)."""
        sign = np.sign(self.data)
        data = np.abs(self.data)

        def make(out: "Tensor") -> Callable[[], None]:
            def backward() -> None:
                if self.requires_grad:
                    self._accumulate(out.grad * sign)

            return backward

        return Tensor._result(data, (self,), make)

    def clip_min(self, minimum: float) -> "Tensor":
        """Elementwise ``max(x, minimum)`` — the hinge building block."""
        mask = self.data > minimum
        data = np.maximum(self.data, minimum)

        def make(out: "Tensor") -> Callable[[], None]:
            def backward() -> None:
                if self.requires_grad:
                    self._accumulate(out.grad * mask)

            return backward

        return Tensor._result(data, (self,), make)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Differentiable concatenation of *tensors* along *axis*."""
    tensors = list(tensors)
    if not tensors:
        raise ValueError("concat requires at least one tensor")
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def make(out: Tensor) -> Callable[[], None]:
        def backward() -> None:
            for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
                if tensor.requires_grad:
                    slicer = [slice(None)] * out.grad.ndim
                    slicer[axis] = slice(int(start), int(stop))
                    tensor._accumulate(out.grad[tuple(slicer)])

        return backward

    return Tensor._result(data, tuple(tensors), make)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Differentiable stacking of equal-shaped *tensors* on a new axis."""
    tensors = list(tensors)
    if not tensors:
        raise ValueError("stack requires at least one tensor")
    data = np.stack([t.data for t in tensors], axis=axis)

    def make(out: Tensor) -> Callable[[], None]:
        def backward() -> None:
            for i, tensor in enumerate(tensors):
                if tensor.requires_grad:
                    tensor._accumulate(np.take(out.grad, i, axis=axis))

        return backward

    return Tensor._result(data, tuple(tensors), make)


def as_tensor(value: ArrayLike, requires_grad: bool = False) -> Tensor:
    """Coerce *value* to a :class:`Tensor` (no-op if it already is one)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value, requires_grad=requires_grad)


def parameter(data: ArrayLike, name: str | None = None) -> Tensor:
    """Create a trainable leaf tensor."""
    return Tensor(data, requires_grad=True, name=name)

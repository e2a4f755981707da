"""Reverse-mode automatic differentiation tensor.

This module is the foundation of the NumPy deep-learning substrate used by
the BlurNet reproduction.  It provides a :class:`Tensor` wrapper around a
``numpy.ndarray`` that records the operations applied to it and can compute
gradients of a scalar loss with respect to every tensor in the graph via
:meth:`Tensor.backward`.

The design mirrors the familiar PyTorch semantics at a much smaller scale:

* every differentiable operation creates a new ``Tensor`` whose ``_parents``
  reference the inputs and whose ``_backward`` function, called with that
  node, accumulates gradients into those inputs;
* ``backward()`` performs a topological sort of the graph and runs the
  functions in reverse order.  The functions close over the inputs, never
  over the node they are stored on, so a graph holds no reference cycle
  and is freed as soon as nothing refers to it;
* broadcasting is supported for the elementwise arithmetic operators -- the
  gradient of a broadcast operand is summed back to its original shape.

Only ``float64``/``float32`` arrays are intended to flow through the graph;
integer arrays (e.g. label vectors) should stay as plain NumPy arrays.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union["Tensor", np.ndarray, float, int, Sequence]

__all__ = ["Tensor", "no_grad", "is_grad_enabled"]


_GRAD_ENABLED = [True]


class no_grad:
    """Context manager that disables graph construction.

    Inside a ``with no_grad():`` block every operation produces constant
    tensors with ``requires_grad=False`` and no parents, which keeps
    inference and attack bookkeeping cheap.
    """

    def __enter__(self) -> "no_grad":
        self._previous = _GRAD_ENABLED[0]
        _GRAD_ENABLED[0] = False
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        _GRAD_ENABLED[0] = self._previous


def is_grad_enabled() -> bool:
    """Return whether new operations will be recorded on the autodiff graph."""

    return _GRAD_ENABLED[0]


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` to undo NumPy broadcasting.

    Parameters
    ----------
    grad:
        Upstream gradient with the broadcast shape.
    shape:
        The original shape of the operand whose gradient is being computed.
    """

    if grad.shape == shape:
        return grad
    # Sum over leading dimensions that were added by broadcasting.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over dimensions that were expanded from size 1.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def _as_array(value: ArrayLike, dtype=np.float64) -> np.ndarray:
    """Coerce ``value`` to a NumPy array without copying when possible."""

    if isinstance(value, Tensor):
        return value.data
    return np.asarray(value, dtype=dtype)


class Tensor:
    """A NumPy array with reverse-mode automatic differentiation.

    Parameters
    ----------
    data:
        Array-like payload.  Stored as ``float64`` by default.
    requires_grad:
        Whether gradients should be accumulated for this tensor when
        :meth:`backward` is called on a downstream scalar.
    parents:
        Internal -- tensors this node was computed from.
    backward_fn:
        Internal -- function that, called with this tensor, propagates its
        ``grad`` into the parents.
    name:
        Optional human-readable label used in ``repr`` and debugging.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "name")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        parents: Sequence["Tensor"] = (),
        backward_fn: Optional[Callable[["Tensor"], None]] = None,
        name: str = "",
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad) and is_grad_enabled()
        self.grad: Optional[np.ndarray] = None
        self._parents: Tuple[Tensor, ...] = tuple(parents) if is_grad_enabled() else ()
        self._backward: Optional[Callable[["Tensor"], None]] = (
            backward_fn if is_grad_enabled() else None
        )
        self.name = name

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        """Shape of the underlying array."""

        return self.data.shape

    @property
    def ndim(self) -> int:
        """Number of dimensions of the underlying array."""

        return self.data.ndim

    @property
    def size(self) -> int:
        """Total number of elements."""

        return self.data.size

    @property
    def dtype(self):
        """Data type of the underlying array."""

        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        """Transpose (reverses all axes)."""

        return self.transpose()

    def numpy(self) -> np.ndarray:
        """Return the underlying NumPy array (no copy)."""

        return self.data

    def item(self) -> float:
        """Return the value of a single-element tensor as a Python float."""

        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but detached from the graph."""

        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        """Return a detached deep copy of this tensor."""

        return Tensor(self.data.copy(), requires_grad=False)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient to ``None``."""

        self.grad = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = f" name={self.name!r}" if self.name else ""
        return (
            f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}{label},"
            f" data={np.array2string(self.data, threshold=8, precision=4)})"
        )

    def __len__(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------
    # Graph construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _coerce(other: ArrayLike) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def _accumulate(self, grad: np.ndarray) -> None:
        """Add ``grad`` into ``self.grad`` (allocating on first use)."""

        if not self.requires_grad:
            return
        grad = _unbroadcast(np.asarray(grad, dtype=np.float64), self.data.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad = self.grad + grad

    @classmethod
    def _make(
        cls,
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward_fn: Callable[["Tensor"], None],
        name: str = "",
    ) -> "Tensor":
        """Create an op output node.

        ``backward_fn`` is stored on the output node and called with it
        during :meth:`backward`, so it can read ``out.grad`` and push
        gradients to the parents without capturing the node itself.
        """

        requires_grad = is_grad_enabled() and any(p.requires_grad for p in parents)
        out = cls(data, requires_grad=requires_grad, name=name)
        if requires_grad:
            out._parents = tuple(parents)
            out._backward = backward_fn
        return out

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)

        def backward(out: "Tensor") -> None:
            self._accumulate(out.grad)
            other._accumulate(out.grad)

        return Tensor._make(self.data + other.data, (self, other), backward, name="add")

    def __radd__(self, other: ArrayLike) -> "Tensor":
        return self.__add__(other)

    def __neg__(self) -> "Tensor":
        def backward(out: "Tensor") -> None:
            self._accumulate(-out.grad)

        return Tensor._make(-self.data, (self,), backward, name="neg")

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)

        def backward(out: "Tensor") -> None:
            self._accumulate(out.grad)
            other._accumulate(-out.grad)

        return Tensor._make(self.data - other.data, (self, other), backward, name="sub")

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return self._coerce(other).__sub__(self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)

        def backward(out: "Tensor") -> None:
            self._accumulate(out.grad * other.data)
            other._accumulate(out.grad * self.data)

        return Tensor._make(self.data * other.data, (self, other), backward, name="mul")

    def __rmul__(self, other: ArrayLike) -> "Tensor":
        return self.__mul__(other)

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)

        def backward(out: "Tensor") -> None:
            self._accumulate(out.grad / other.data)
            other._accumulate(-out.grad * self.data / (other.data ** 2))

        return Tensor._make(self.data / other.data, (self, other), backward, name="div")

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return self._coerce(other).__truediv__(self)

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("Tensor.__pow__ only supports scalar exponents")

        def backward(out: "Tensor") -> None:
            self._accumulate(out.grad * exponent * np.power(self.data, exponent - 1))

        return Tensor._make(np.power(self.data, exponent), (self,), backward, name="pow")

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        return self.matmul(other)

    def matmul(self, other: ArrayLike) -> "Tensor":
        """Matrix product ``self @ other`` (2-D operands)."""

        other = self._coerce(other)

        def backward(out: "Tensor") -> None:
            self._accumulate(out.grad @ other.data.T)
            other._accumulate(self.data.T @ out.grad)

        return Tensor._make(self.data @ other.data, (self, other), backward, name="matmul")

    # ------------------------------------------------------------------
    # Elementwise non-linearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        """Elementwise exponential."""

        value = np.exp(self.data)

        def backward(out: "Tensor") -> None:
            self._accumulate(out.grad * value)

        return Tensor._make(value, (self,), backward, name="exp")

    def log(self) -> "Tensor":
        """Elementwise natural logarithm."""

        def backward(out: "Tensor") -> None:
            self._accumulate(out.grad / self.data)

        return Tensor._make(np.log(self.data), (self,), backward, name="log")

    def sqrt(self) -> "Tensor":
        """Elementwise square root."""

        value = np.sqrt(self.data)

        def backward(out: "Tensor") -> None:
            self._accumulate(out.grad * 0.5 / np.maximum(value, 1e-12))

        return Tensor._make(value, (self,), backward, name="sqrt")

    def abs(self) -> "Tensor":
        """Elementwise absolute value (subgradient 0 at the origin)."""

        def backward(out: "Tensor") -> None:
            self._accumulate(out.grad * np.sign(self.data))

        return Tensor._make(np.abs(self.data), (self,), backward, name="abs")

    def relu(self) -> "Tensor":
        """Rectified linear unit ``max(x, 0)``."""

        mask = self.data > 0

        def backward(out: "Tensor") -> None:
            self._accumulate(out.grad * mask)

        return Tensor._make(self.data * mask, (self,), backward, name="relu")

    def tanh(self) -> "Tensor":
        """Hyperbolic tangent."""

        value = np.tanh(self.data)

        def backward(out: "Tensor") -> None:
            self._accumulate(out.grad * (1.0 - value ** 2))

        return Tensor._make(value, (self,), backward, name="tanh")

    def sigmoid(self) -> "Tensor":
        """Logistic sigmoid."""

        value = 1.0 / (1.0 + np.exp(-self.data))

        def backward(out: "Tensor") -> None:
            self._accumulate(out.grad * value * (1.0 - value))

        return Tensor._make(value, (self,), backward, name="sigmoid")

    def clip(self, low: float, high: float) -> "Tensor":
        """Clamp values into ``[low, high]`` (zero gradient outside)."""

        mask = (self.data >= low) & (self.data <= high)

        def backward(out: "Tensor") -> None:
            self._accumulate(out.grad * mask)

        return Tensor._make(np.clip(self.data, low, high), (self,), backward, name="clip")

    def maximum(self, other: ArrayLike) -> "Tensor":
        """Elementwise maximum with another tensor or scalar."""

        other = self._coerce(other)
        take_self = self.data >= other.data

        def backward(out: "Tensor") -> None:
            self._accumulate(out.grad * take_self)
            other._accumulate(out.grad * (~take_self))

        return Tensor._make(
            np.maximum(self.data, other.data), (self, other), backward, name="maximum"
        )

    def minimum(self, other: ArrayLike) -> "Tensor":
        """Elementwise minimum with another tensor or scalar."""

        other = self._coerce(other)
        take_self = self.data <= other.data

        def backward(out: "Tensor") -> None:
            self._accumulate(out.grad * take_self)
            other._accumulate(out.grad * (~take_self))

        return Tensor._make(
            np.minimum(self.data, other.data), (self, other), backward, name="minimum"
        )

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        """Sum of elements along ``axis`` (or all elements)."""

        value = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(out: "Tensor") -> None:
            grad = out.grad
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else tuple(axis)
                expanded = grad
                for ax in sorted(a % self.data.ndim for a in axes):
                    expanded = np.expand_dims(expanded, ax)
                grad = expanded
            self._accumulate(np.broadcast_to(grad, self.data.shape))

        return Tensor._make(value, (self,), backward, name="sum")

    def mean(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        """Arithmetic mean along ``axis`` (or all elements)."""

        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        """Maximum along ``axis`` (gradient flows only to the arg-max entries)."""

        value = self.data.max(axis=axis, keepdims=keepdims)

        def backward(out: "Tensor") -> None:
            grad = out.grad
            if axis is None:
                mask = self.data == value
                self._accumulate(mask * grad / max(mask.sum(), 1))
            else:
                expanded_value = self.data.max(axis=axis, keepdims=True)
                mask = self.data == expanded_value
                counts = mask.sum(axis=axis, keepdims=True)
                if not keepdims:
                    grad = np.expand_dims(grad, axis)
                self._accumulate(mask * grad / counts)

        return Tensor._make(value, (self,), backward, name="max")

    def norm(self, p: float = 2.0) -> "Tensor":
        """The ``p``-norm of the flattened tensor.

        ``p=inf`` is supported via :meth:`abs` and :meth:`max`.
        """

        if np.isinf(p):
            return self.abs().max()
        if p == 2.0:
            return (self * self).sum().sqrt()
        if p == 1.0:
            return self.abs().sum()
        return (self.abs() ** p).sum() ** (1.0 / p)

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        """Return a tensor with the same data viewed under ``shape``."""

        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])

        def backward(out: "Tensor") -> None:
            self._accumulate(out.grad.reshape(self.data.shape))

        return Tensor._make(self.data.reshape(shape), (self,), backward, name="reshape")

    def transpose(self, *axes: int) -> "Tensor":
        """Permute dimensions.  Without arguments the order is reversed."""

        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        axes_tuple: Optional[Tuple[int, ...]] = axes if axes else None
        value = self.data.transpose(axes_tuple)
        if axes_tuple is None:
            inverse: Optional[Tuple[int, ...]] = None
        else:
            inverse = tuple(int(i) for i in np.argsort(axes_tuple))

        def backward(out: "Tensor") -> None:
            self._accumulate(out.grad.transpose(inverse))

        return Tensor._make(value, (self,), backward, name="transpose")

    def flatten(self) -> "Tensor":
        """Flatten to 1-D."""

        return self.reshape(self.data.size)

    def __getitem__(self, index) -> "Tensor":
        value = self.data[index]

        def backward(out: "Tensor") -> None:
            grad = np.zeros_like(self.data)
            np.add.at(grad, index, out.grad)
            self._accumulate(grad)

        return Tensor._make(value, (self,), backward, name="getitem")

    def pad2d(self, pad: int) -> "Tensor":
        """Zero-pad the last two (spatial) dimensions by ``pad`` on each side."""

        if pad == 0:
            return self
        pad_width = [(0, 0)] * (self.data.ndim - 2) + [(pad, pad), (pad, pad)]
        value = np.pad(self.data, pad_width, mode="constant")
        slices = tuple(
            [slice(None)] * (self.data.ndim - 2) + [slice(pad, -pad), slice(pad, -pad)]
        )

        def backward(out: "Tensor") -> None:
            self._accumulate(out.grad[slices])

        return Tensor._make(value, (self,), backward, name="pad2d")

    # ------------------------------------------------------------------
    # Backward pass
    # ------------------------------------------------------------------
    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        Parameters
        ----------
        grad:
            Upstream gradient.  Defaults to ``1.0`` which requires this
            tensor to be a scalar.
        """

        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("backward() without an explicit gradient requires a scalar")
            grad = np.ones_like(self.data)
        self.grad = np.asarray(grad, dtype=np.float64).reshape(self.data.shape)

        ordering = self._topological_order()
        for node in reversed(ordering):
            if node._backward is not None and node.grad is not None:
                node._backward(node)

    def _topological_order(self) -> list:
        """Return nodes reachable from ``self`` in topological order."""

        order: list = []
        visited: set = set()
        stack = [(self, iter(self._parents))]
        visited.add(id(self))
        while stack:
            node, parents = stack[-1]
            advanced = False
            for parent in parents:
                if id(parent) not in visited:
                    visited.add(id(parent))
                    stack.append((parent, iter(parent._parents)))
                    advanced = True
                    break
            if not advanced:
                order.append(node)
                stack.pop()
        return order

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def zeros(*shape: int, requires_grad: bool = False) -> "Tensor":
        """Tensor of zeros."""

        return Tensor(np.zeros(shape), requires_grad=requires_grad)

    @staticmethod
    def ones(*shape: int, requires_grad: bool = False) -> "Tensor":
        """Tensor of ones."""

        return Tensor(np.ones(shape), requires_grad=requires_grad)

    @staticmethod
    def randn(*shape: int, rng: Optional[np.random.Generator] = None, requires_grad: bool = False) -> "Tensor":
        """Tensor of standard-normal samples."""

        generator = rng if rng is not None else np.random.default_rng()
        return Tensor(generator.standard_normal(shape), requires_grad=requires_grad)

    @staticmethod
    def stack(tensors: Iterable["Tensor"], axis: int = 0) -> "Tensor":
        """Stack tensors along a new axis (differentiable)."""

        tensor_list = list(tensors)
        value = np.stack([t.data for t in tensor_list], axis=axis)

        def backward(out: "Tensor") -> None:
            grads = np.split(out.grad, len(tensor_list), axis=axis)
            for tensor, grad in zip(tensor_list, grads):
                tensor._accumulate(np.squeeze(grad, axis=axis))

        return Tensor._make(value, tensor_list, backward, name="stack")

    @staticmethod
    def concatenate(tensors: Iterable["Tensor"], axis: int = 0) -> "Tensor":
        """Concatenate tensors along an existing axis (differentiable)."""

        tensor_list = list(tensors)
        value = np.concatenate([t.data for t in tensor_list], axis=axis)
        sizes = [t.data.shape[axis] for t in tensor_list]
        offsets = np.cumsum([0] + sizes)

        def backward(out: "Tensor") -> None:
            for tensor, start, stop in zip(tensor_list, offsets[:-1], offsets[1:]):
                slicer = [slice(None)] * out.grad.ndim
                slicer[axis] = slice(start, stop)
                tensor._accumulate(out.grad[tuple(slicer)])

        return Tensor._make(value, tensor_list, backward, name="concatenate")

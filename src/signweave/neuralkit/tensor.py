"""A small reverse-mode autodiff tensor on top of numpy.

Forward values live in plain numpy arrays (fp32 for training, fp64 for
verification); backward() accumulates exact gradients of a scalar loss.
"""
from __future__ import annotations

from contextlib import contextmanager

import numpy as np

_grad_enabled = True


def is_grad_enabled() -> bool:
    return _grad_enabled


@contextmanager
def no_grad():
    """Inference mode: results made inside the block record no parents, so no
    autograd graph is kept and backward() through them reaches nothing.

    The switch is process-wide, not per thread; signweave's workers are
    processes."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum grad over axes that were broadcast to reach shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_grad_borrowed", "name")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=dtype if dtype is not None else None)
        if self.data.dtype not in (np.float32, np.float64):
            self.data = self.data.astype(np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None
        self._grad_borrowed = False
        self.name: str | None = None

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _make(data: np.ndarray, parents: tuple["Tensor", ...], backward) -> "Tensor":
        out = Tensor(data)
        out.requires_grad = _grad_enabled and any(p.requires_grad for p in parents)
        if out.requires_grad:
            out._parents = parents
            out._backward = backward
        return out

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, grad={self.requires_grad})"

    # -- autograd -------------------------------------------------------------

    def backward(self) -> None:
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar loss")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)
                node._parents = ()
                node._backward = None

    def _accumulate(self, grad: np.ndarray) -> None:
        """Accumulate without copying in the single-consumer case.

        Incoming arrays may be shared with other nodes, so a borrowed first
        contribution is never mutated; the second contribution allocates the
        sum and later ones add in place.
        """
        grad = _unbroadcast(np.asarray(grad), self.data.shape)
        if self.grad is None:
            if grad.dtype != self.data.dtype:
                self.grad = grad.astype(self.data.dtype)
                self._grad_borrowed = False
            else:
                self.grad = grad
                self._grad_borrowed = True
        elif self._grad_borrowed:
            self.grad = self.grad + grad
            self._grad_borrowed = False
        else:
            self.grad += grad

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        other = as_tensor(other, self.dtype)
        out_data = self.data + other.data

        def backward(g):
            if self.requires_grad:
                self._accumulate(g)
            if other.requires_grad:
                other._accumulate(g)

        return Tensor._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self):
        def backward(g):
            self._accumulate(-g)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other):
        return self + (-as_tensor(other, self.dtype))

    def __rsub__(self, other):
        return as_tensor(other, self.dtype) + (-self)

    def __mul__(self, other):
        other = as_tensor(other, self.dtype)
        out_data = self.data * other.data

        def backward(g):
            if self.requires_grad:
                self._accumulate(g * other.data)
            if other.requires_grad:
                other._accumulate(g * self.data)

        return Tensor._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = as_tensor(other, self.dtype)
        out_data = self.data / other.data

        def backward(g):
            if self.requires_grad:
                self._accumulate(g / other.data)
            if other.requires_grad:
                other._accumulate(-g * self.data / (other.data**2))

        return Tensor._make(out_data, (self, other), backward)

    def __rtruediv__(self, other):
        return as_tensor(other, self.dtype) / self

    def __pow__(self, exponent: float):
        # integer powers via repeated multiply; np.power on floats is slow
        if exponent == 2:
            out_data = self.data * self.data
        elif exponent == 3:
            out_data = self.data * self.data * self.data
        else:
            out_data = self.data**exponent

        def backward(g):
            if exponent == 2:
                grad = g * 2.0 * self.data
            elif exponent == 3:
                grad = g * 3.0 * (self.data * self.data)
            else:
                grad = g * exponent * self.data ** (exponent - 1)
            self._accumulate(grad)

        return Tensor._make(out_data, (self,), backward)

    def __matmul__(self, other):
        other = as_tensor(other, self.dtype)
        out_data = self.data @ other.data

        def backward(g):
            a, b = self.data, other.data
            if a.ndim == 1 and b.ndim == 1:
                if self.requires_grad:
                    self._accumulate(g * b)
                if other.requires_grad:
                    other._accumulate(g * a)
                return
            if self.requires_grad:
                if b.ndim == 1:
                    self._accumulate(np.expand_dims(g, -1) * b)
                else:
                    self._accumulate(g @ np.swapaxes(b, -1, -2))
            if other.requires_grad:
                if a.ndim == 1:
                    other._accumulate(np.outer(a, g))
                elif b.ndim == 2 and a.ndim > 2:
                    # batched activations against a 2D parameter: one flat GEMM
                    # instead of a batched product followed by a reduction
                    flat_a = a.reshape(-1, a.shape[-1])
                    flat_g = g.reshape(-1, g.shape[-1])
                    other._accumulate(flat_a.T @ flat_g)
                else:
                    other._accumulate(np.swapaxes(a, -1, -2) @ g)

        return Tensor._make(out_data, (self, other), backward)

    # -- elementwise functions --------------------------------------------------

    def exp(self):
        out_data = np.exp(self.data)

        def backward(g):
            self._accumulate(g * out_data)

        return Tensor._make(out_data, (self,), backward)

    def log(self):
        def backward(g):
            self._accumulate(g / self.data)

        return Tensor._make(np.log(self.data), (self,), backward)

    def sqrt(self):
        out_data = np.sqrt(self.data)

        def backward(g):
            self._accumulate(g * 0.5 / out_data)

        return Tensor._make(out_data, (self,), backward)

    def tanh(self):
        out_data = np.tanh(self.data)

        def backward(g):
            self._accumulate(g * (1.0 - out_data**2))

        return Tensor._make(out_data, (self,), backward)

    def abs(self):
        sign = np.sign(self.data)

        def backward(g):
            self._accumulate(g * sign)

        return Tensor._make(np.abs(self.data), (self,), backward)

    def sigmoid(self):
        out_data = np.where(self.data >= 0, 1.0 / (1.0 + np.exp(-np.abs(self.data))),
                            np.exp(-np.abs(self.data)) / (1.0 + np.exp(-np.abs(self.data))))

        def backward(g):
            self._accumulate(g * out_data * (1.0 - out_data))

        return Tensor._make(out_data, (self,), backward)

    def softplus(self):
        out_data = np.maximum(self.data, 0.0) + np.log1p(np.exp(-np.abs(self.data)))
        sig = 1.0 / (1.0 + np.exp(-np.abs(self.data)))
        sig = np.where(self.data >= 0, sig, 1.0 - sig)

        def backward(g):
            self._accumulate(g * sig)

        return Tensor._make(out_data, (self,), backward)

    # -- reductions ---------------------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(g):
            g = np.asarray(g)
            if axis is None:
                self._accumulate(np.broadcast_to(g, self.data.shape))
            else:
                if not keepdims:
                    g = np.expand_dims(g, axis)
                self._accumulate(np.broadcast_to(g, self.data.shape))

        return Tensor._make(out_data, (self,), backward)

    def mean(self, axis=None, keepdims=False):
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # -- shape ops ------------------------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old_shape = self.data.shape

        def backward(g):
            self._accumulate(g.reshape(old_shape))

        return Tensor._make(self.data.reshape(shape), (self,), backward)

    def transpose(self, *axes):
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inverse = np.argsort(axes)

        def backward(g):
            self._accumulate(g.transpose(inverse))

        return Tensor._make(self.data.transpose(axes), (self,), backward)

    def swapaxes(self, a: int, b: int):
        def backward(g):
            self._accumulate(np.swapaxes(g, a, b))

        return Tensor._make(np.swapaxes(self.data, a, b), (self,), backward)

    def __getitem__(self, key):
        def backward(g):
            full = np.zeros_like(self.data)
            if _is_basic_key(key):
                # slices, ints, Ellipsis and None select each element at most once
                full[key] = g
            else:
                # advanced keys may repeat an index, whose gradients must add up
                np.add.at(full, key, g)
            self._accumulate(full)

        return Tensor._make(self.data[key], (self,), backward)


def _is_basic_key(key) -> bool:
    parts = key if isinstance(key, tuple) else (key,)
    return all(p is None or p is Ellipsis or isinstance(p, (int, np.integer, slice)) for p in parts)


def as_tensor(value, dtype=None) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=dtype))


def tensor(data, requires_grad: bool = False, dtype=None) -> Tensor:
    return Tensor(data, requires_grad=requires_grad, dtype=dtype)


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                index = [slice(None)] * g.ndim
                index[axis] = slice(lo, hi)
                t._accumulate(g[tuple(index)])

    return Tensor._make(out_data, tuple(tensors), backward)


def stack(tensors: list[Tensor], axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(g):
        for i, t in enumerate(tensors):
            if t.requires_grad:
                t._accumulate(np.take(g, i, axis=axis))

    return Tensor._make(out_data, tuple(tensors), backward)


def where(cond: np.ndarray, a, b) -> Tensor:
    """Elementwise select; cond is a plain boolean array (not differentiated)."""
    a = as_tensor(a)
    b = as_tensor(b)
    cond = np.asarray(cond, dtype=bool)
    out_data = np.where(cond, a.data, b.data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(np.where(cond, g, 0.0))
        if b.requires_grad:
            b._accumulate(np.where(cond, 0.0, g))

    return Tensor._make(out_data, (a, b), backward)


def maximum_const(x: Tensor, floor: float) -> Tensor:
    """max(x, floor); gradient flows only where x is above the floor."""
    return where(x.data > floor, x, Tensor(np.full(x.shape, floor, dtype=x.dtype)))


def clamp(x: Tensor, lo: float, hi: float) -> Tensor:
    inside = (x.data >= lo) & (x.data <= hi)
    clipped = np.clip(x.data, lo, hi)
    return where(inside, x, Tensor(clipped))


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    exps = np.exp(shifted)
    out_data = exps / exps.sum(axis=axis, keepdims=True)

    def backward(g):
        inner = (g * out_data).sum(axis=axis, keepdims=True)
        x._accumulate(out_data * (g - inner))

    return Tensor._make(out_data, (x,), backward)

"""Reverse-mode automatic differentiation over numpy arrays.

This module is the computational substrate for the whole reproduction: the
Winograd-aware quantized training flow of the paper (Section III) needs
gradients to propagate *through* the Winograd domain, through fake-quantization
nodes with straight-through estimators, and through learned power-of-two scale
factors.  Rather than depending on PyTorch (not available in this
environment), we implement a compact but complete autograd engine.

The graph is made of nodes, not tensors.  An op whose output needs a
gradient gives that output a private ``_Node`` holding the parents' nodes
and the op's backward closure; a leaf tensor gets (once, cached) a node that
points back to it so :meth:`Tensor.backward` can accumulate into its
``.grad``.  No node refers to a non-leaf tensor, so an intermediate
activation is freed as soon as its caller drops it: only the arrays a
backward closure saved survive the forward.  Calling :meth:`Tensor.backward`
topologically sorts the nodes and applies the closures in reverse.

Only float64/float32 arrays are supported for differentiable tensors; integer
arrays may be wrapped with ``requires_grad=False`` (useful for index tensors
and quantized payloads).
"""

from __future__ import annotations

import threading

import numpy as np

__all__ = ["Tensor", "no_grad", "is_grad_enabled", "as_tensor"]


class _GradMode(threading.local):
    enabled = True          # the default every thread starts with


_GRAD_MODE = _GradMode()


class no_grad:
    """Context manager that disables gradient tracking in this thread.

    Mirrors ``torch.no_grad``.  Used heavily in evaluation loops and in the
    calibration passes of the quantization observers where gradients are not
    needed and would only waste memory.  The flag is per thread, so
    overlapping blocks in different threads cannot leave another thread's
    autograd off.
    """

    def __enter__(self):
        self._prev = _GRAD_MODE.enabled
        _GRAD_MODE.enabled = False
        return self

    def __exit__(self, exc_type, exc, tb):
        _GRAD_MODE.enabled = self._prev
        return False


def is_grad_enabled() -> bool:
    """Return whether gradient recording is enabled in this thread."""
    return _GRAD_MODE.enabled


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` to undo numpy broadcasting.

    Broadcasting during the forward pass implicitly replicates data; the
    corresponding adjoint operation is a sum over the broadcast axes.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading axes that were added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size-1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def as_tensor(value, requires_grad: bool = False) -> "Tensor":
    """Coerce ``value`` (Tensor, ndarray, or scalar) into a :class:`Tensor`."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value, requires_grad=requires_grad)


class _Node:
    """One vertex of the autograd graph.

    ``parents`` holds the parent nodes aligned with the op's inputs (``None``
    for an input that needed no gradient), ``backward`` the op's closure, and
    ``leaf`` -- for a leaf only -- the tensor whose ``.grad`` accumulates.
    """

    __slots__ = ("parents", "backward", "leaf")

    def __init__(self, parents: tuple, backward, leaf: "Tensor | None" = None):
        self.parents = parents
        self.backward = backward
        self.leaf = leaf


class Tensor:
    """A numpy-backed tensor with reverse-mode autodiff support."""

    __slots__ = ("data", "grad", "requires_grad", "_node", "name")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data)
        if arr.dtype == np.float16:
            arr = arr.astype(np.float32)
        elif arr.dtype not in (np.float32, np.float64) and requires_grad:
            arr = arr.astype(np.float64)
        elif arr.dtype == np.int64 or arr.dtype == np.int32 or arr.dtype == bool:
            pass
        elif arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad) and _GRAD_MODE.enabled
        self.grad: np.ndarray | None = None
        self._node: _Node | None = None
        self.name = name

    # ------------------------------------------------------------------ #
    # Introspection helpers
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def numpy(self) -> np.ndarray:
        """Return the underlying ndarray (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but detached from the graph."""
        return Tensor(self.data, requires_grad=False)

    def clone(self) -> "Tensor":
        return self.from_op(self.data.copy(), (self,), lambda grad: (grad,))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def __len__(self) -> int:
        return self.data.shape[0]

    # ------------------------------------------------------------------ #
    # Graph construction
    # ------------------------------------------------------------------ #
    def _graph_node(self) -> _Node | None:
        """This tensor's graph vertex, or ``None`` if it needs no gradient.

        An op output already has its node; a leaf gets one on first use,
        cached so every use of the leaf meets at the same vertex.
        """
        if not self.requires_grad:
            return None
        if self._node is None:
            self._node = _Node((), None, self)
        return self._node

    @staticmethod
    def from_op(data: np.ndarray, parents: tuple["Tensor", ...], backward) -> "Tensor":
        """Create a tensor from a custom op.

        ``backward`` receives the upstream gradient and must return a tuple of
        gradients aligned with ``parents`` (``None`` entries are allowed for
        non-differentiable parents).  The output records a graph node only
        when some parent needs a gradient; ``backward`` is dropped otherwise,
        and so is every array it captured.
        """
        if not (_GRAD_MODE.enabled and any(p.requires_grad for p in parents)):
            return Tensor(data)
        out = Tensor(data, requires_grad=True)
        out._node = _Node(tuple(p._graph_node() for p in parents), backward)
        return out

    # ------------------------------------------------------------------ #
    # Backward pass
    # ------------------------------------------------------------------ #
    def backward(self, grad: np.ndarray | None = None) -> None:
        """Run reverse-mode autodiff from this tensor.

        Parameters
        ----------
        grad:
            Upstream gradient.  Defaults to ``1.0`` which requires the tensor
            to be a scalar (the usual loss case).
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar outputs")
            grad = np.ones_like(self.data, dtype=np.float64)
        else:
            grad = np.asarray(grad, dtype=np.float64)

        # Topological ordering of the graph (iterative DFS to avoid recursion
        # limits on deep networks).
        root = self._graph_node()
        topo: list[_Node] = []
        visited: set[int] = set()
        stack: list[tuple[_Node, bool]] = [(root, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node.parents:
                if parent is not None and id(parent) not in visited:
                    stack.append((parent, False))

        grads: dict[int, np.ndarray] = {id(root): grad}
        for node in reversed(topo):
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            leaf = node.leaf
            if leaf is not None:
                if leaf.grad is None:
                    leaf.grad = node_grad.astype(leaf.data.dtype, copy=True)
                else:
                    leaf.grad = leaf.grad + node_grad
                continue
            parent_grads = node.backward(node_grad)
            for parent, pgrad in zip(node.parents, parent_grads):
                if pgrad is None or parent is None:
                    continue
                pgrad = np.asarray(pgrad, dtype=np.float64)
                if id(parent) in grads:
                    grads[id(parent)] = grads[id(parent)] + pgrad
                else:
                    grads[id(parent)] = pgrad

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------ #
    # Elementwise arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other) -> "Tensor":
        other = as_tensor(other)
        a_shape, b_shape = self.shape, other.shape

        def _bw(grad):
            return (_unbroadcast(grad, a_shape), _unbroadcast(grad, b_shape))

        return self.from_op(self.data + other.data, (self, other), _bw)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        return self.from_op(-self.data, (self,), lambda grad: (-grad,))

    def __sub__(self, other) -> "Tensor":
        return self + (-as_tensor(other))

    def __rsub__(self, other) -> "Tensor":
        return as_tensor(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = as_tensor(other)
        a, b = self.data, other.data

        def _bw(grad):
            return (
                _unbroadcast(grad * b, a.shape),
                _unbroadcast(grad * a, b.shape),
            )

        return self.from_op(a * b, (self, other), _bw)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = as_tensor(other)
        a, b = self.data, other.data

        def _bw(grad):
            return (
                _unbroadcast(grad / b, a.shape),
                _unbroadcast(-grad * a / (b ** 2), b.shape),
            )

        return self.from_op(a / b, (self, other), _bw)

    def __rtruediv__(self, other) -> "Tensor":
        return as_tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        a = self.data

        def _bw(grad):
            return (grad * exponent * (a ** (exponent - 1)),)

        return self.from_op(a ** exponent, (self,), _bw)

    # ------------------------------------------------------------------ #
    # Matrix multiplication
    # ------------------------------------------------------------------ #
    def __matmul__(self, other) -> "Tensor":
        other = as_tensor(other)
        a_data, b_data = self.data, other.data

        def _bw(grad):
            if a_data.ndim == 1 and b_data.ndim == 1:
                ga = grad * b_data
                gb = grad * a_data
            elif a_data.ndim == 1:
                ga = grad @ np.swapaxes(b_data, -1, -2)
                gb = np.outer(a_data, grad) if b_data.ndim == 2 else None
                if gb is None:
                    gb = np.einsum("i,...j->...ij", a_data, grad)
            elif b_data.ndim == 1:
                ga = np.einsum("...i,j->...ij", grad, b_data)
                gb = np.einsum("...ij,...i->j", a_data, grad)
            else:
                ga = grad @ np.swapaxes(b_data, -1, -2)
                gb = np.swapaxes(a_data, -1, -2) @ grad
                ga = _unbroadcast(ga, a_data.shape)
                gb = _unbroadcast(gb, b_data.shape)
            return (ga, gb)

        return self.from_op(a_data @ b_data, (self, other), _bw)

    def matmul(self, other) -> "Tensor":
        return self @ other

    # ------------------------------------------------------------------ #
    # Unary math
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        data = np.exp(self.data)
        return self.from_op(data, (self,), lambda grad: (grad * data,))

    def log(self) -> "Tensor":
        a = self.data
        return self.from_op(np.log(a), (self,), lambda grad: (grad / a,))

    def sqrt(self) -> "Tensor":
        data = np.sqrt(self.data)
        return self.from_op(data, (self,),
                            lambda grad: (grad * 0.5 / np.maximum(data, 1e-30),))

    def abs(self) -> "Tensor":
        a = self.data
        return self.from_op(np.abs(a), (self,), lambda grad: (grad * np.sign(a),))

    def relu(self) -> "Tensor":
        mask = self.data > 0
        return self.from_op(self.data * mask, (self,), lambda grad: (grad * mask,))

    def sigmoid(self) -> "Tensor":
        data = 1.0 / (1.0 + np.exp(-self.data))
        return self.from_op(data, (self,),
                            lambda grad: (grad * data * (1.0 - data),))

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)
        return self.from_op(data, (self,),
                            lambda grad: (grad * (1.0 - data * data),))

    def clamp(self, low: float | None = None, high: float | None = None) -> "Tensor":
        a = self.data
        lo = -np.inf if low is None else low
        hi = np.inf if high is None else high

        def _bw(grad):
            mask = (a >= lo) & (a <= hi)
            return (grad * mask,)

        return self.from_op(np.clip(a, low, high), (self,), _bw)

    # ------------------------------------------------------------------ #
    # Reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)
        a_shape = self.shape

        def _bw(grad):
            g = np.asarray(grad)
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                for ax in sorted(a if a >= 0 else a + len(a_shape) for a in axes):
                    g = np.expand_dims(g, ax)
            return (np.broadcast_to(g, a_shape).copy(),)

        return self.from_op(np.asarray(data), (self,), _bw)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) / float(count)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        mu = self.mean(axis=axis, keepdims=True)
        centered = self - mu
        out = (centered * centered).mean(axis=axis, keepdims=keepdims)
        return out

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        a = self.data

        def _bw(grad):
            full = a.max(axis=axis, keepdims=True)
            mask = (a == full).astype(np.float64)
            mask /= np.maximum(mask.sum(axis=axis, keepdims=True), 1.0)
            g = np.asarray(grad)
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                for ax in sorted(x if x >= 0 else x + a.ndim for x in axes):
                    g = np.expand_dims(g, ax)
            return (mask * g,)

        return self.from_op(np.asarray(a.max(axis=axis, keepdims=keepdims)),
                            (self,), _bw)

    def min(self, axis=None, keepdims: bool = False) -> "Tensor":
        return -((-self).max(axis=axis, keepdims=keepdims))

    # ------------------------------------------------------------------ #
    # Shape manipulation
    # ------------------------------------------------------------------ #
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a_shape = self.shape
        return self.from_op(self.data.reshape(shape), (self,),
                            lambda grad: (grad.reshape(a_shape),))

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        inverse = tuple(np.argsort(axes))
        return self.from_op(self.data.transpose(axes), (self,),
                            lambda grad: (grad.transpose(inverse),))

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def swapaxes(self, a: int, b: int) -> "Tensor":
        axes = list(range(self.ndim))
        axes[a], axes[b] = axes[b], axes[a]
        return self.transpose(tuple(axes))

    def flatten(self, start_dim: int = 0) -> "Tensor":
        shape = self.shape[:start_dim] + (-1,)
        return self.reshape(shape)

    def __getitem__(self, index) -> "Tensor":
        a_shape = self.shape

        def _bw(grad):
            full = np.zeros(a_shape, dtype=np.float64)
            np.add.at(full, index, grad)
            return (full,)

        return self.from_op(self.data[index], (self,), _bw)

    def pad(self, pad_width) -> "Tensor":
        slices = tuple(
            slice(before, before + dim)
            for (before, _after), dim in zip(pad_width, self.shape)
        )
        return self.from_op(np.pad(self.data, pad_width), (self,),
                            lambda grad: (grad[slices],))

    @staticmethod
    def stack(tensors: list["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [as_tensor(t) for t in tensors]
        data = np.stack([t.data for t in tensors], axis=axis)
        count = len(tensors)

        def _bw(grad):
            pieces = np.split(grad, count, axis=axis)
            return tuple(np.squeeze(p, axis=axis) for p in pieces)

        return Tensor.from_op(data, tuple(tensors), _bw)

    @staticmethod
    def concatenate(tensors: list["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [as_tensor(t) for t in tensors]
        data = np.concatenate([t.data for t in tensors], axis=axis)
        splits = np.cumsum([t.shape[axis] for t in tensors])[:-1]

        def _bw(grad):
            return tuple(np.split(grad, splits, axis=axis))

        return Tensor.from_op(data, tuple(tensors), _bw)

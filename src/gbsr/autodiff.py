"""Minimal reverse-mode automatic differentiation over float64 numpy arrays.

The training objective chains an edge-confidence MLP, relaxed edge weights,
degree-dependent graph normalization, multi-layer propagation, pairwise
ranking, and kernel dependence statistics.  Deriving that composite gradient
by hand would be brittle, so the forward pass is recorded as a graph of
`Tensor` nodes and replayed in reverse.  Only the operations the pipeline
needs exist here; every op runs on the CPU in float64 with a deterministic
accumulation order, which keeps training bit-reproducible under a fixed seed.

Gradient correctness for each op is pinned by central-difference checks in
the test suite; the composed pipeline is re-checked end to end there as well.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.special import expit


def _unbroadcast(grad, shape):
    # sum the upstream gradient over axes that were broadcast in the forward op
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    """A numpy array plus the closure that routes gradients to its parents."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    # ndarray <op> Tensor must defer to the reflected Tensor op, not build an
    # object array elementwise
    __array_priority__ = 1000.0

    def __init__(self, data, requires_grad=False, parents=(), backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = tuple(parents)
        self._backward = backward

    @property
    def shape(self):
        return self.data.shape

    def _accumulate(self, g):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def backward(self):
        if self.data.ndim != 0:
            raise ValueError("backward() needs a scalar output")
        order = _toposort(self)
        self.grad = np.ones_like(self.data)
        for node in order:
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        a, b = self, _coerce(other)

        def backward(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g, a.data.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(g, b.data.shape))

        return _make(a.data + b.data, (a, b), backward)

    __radd__ = __add__

    def __neg__(self):
        a = self

        def backward(g):
            if a.requires_grad:
                a._accumulate(-g)

        return _make(-a.data, (a,), backward)

    def __sub__(self, other):
        a, b = self, _coerce(other)

        def backward(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g, a.data.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(-g, b.data.shape))

        return _make(a.data - b.data, (a, b), backward)

    def __mul__(self, other):
        a, b = self, _coerce(other)

        def backward(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g * b.data, a.data.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(g * a.data, b.data.shape))

        return _make(a.data * b.data, (a, b), backward)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            raise TypeError("tensor/tensor division is not part of the op set")
        scale = float(other)
        a = self

        def backward(g):
            if a.requires_grad:
                a._accumulate(g / scale)

        return _make(a.data / scale, (a,), backward)

    def __pow__(self, exponent):
        p = float(exponent)
        a = self

        def backward(g):
            if a.requires_grad:
                a._accumulate(g * p * np.power(a.data, p - 1.0))

        return _make(np.power(a.data, p), (a,), backward)

    def __matmul__(self, other):
        a, b = self, _coerce(other)
        if a.data.ndim != 2 or b.data.ndim != 2:
            raise ValueError("matmul is implemented for 2-D operands only")

        def backward(g):
            if a.requires_grad:
                a._accumulate(g @ b.data.T)
            if b.requires_grad:
                b._accumulate(a.data.T @ g)

        return _make(a.data @ b.data, (a, b), backward)

    @property
    def T(self):
        a = self
        if a.data.ndim != 2:
            raise ValueError("T is implemented for 2-D tensors only")

        def backward(g):
            if a.requires_grad:
                a._accumulate(g.T)

        return _make(a.data.T, (a,), backward)

    def reshape(self, *shape):
        a = self
        old = a.data.shape

        def backward(g):
            if a.requires_grad:
                a._accumulate(g.reshape(old))

        return _make(a.data.reshape(*shape), (a,), backward)

    # -- reductions ---------------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        a = self

        def backward(g):
            if not a.requires_grad:
                return
            if axis is None:
                a._accumulate(np.broadcast_to(g, a.data.shape).copy())
            else:
                gg = g if keepdims else np.expand_dims(g, axis)
                a._accumulate(np.broadcast_to(gg, a.data.shape).copy())

        return _make(a.data.sum(axis=axis, keepdims=keepdims), (a,), backward)

    def mean(self, axis=None, keepdims=False):
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) / count


def _coerce(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data, parents, backward):
    if any(p.requires_grad for p in parents):
        return Tensor(data, True, parents, backward)
    return Tensor(data)


def _toposort(root):
    # iterative postorder; returned reversed so gradients flow root -> leaves
    order, visited, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    order.reverse()
    return order


def constant(x) -> Tensor:
    return Tensor(x)


# -- elementwise nonlinearities ---------------------------------------------


def sigmoid(t: Tensor) -> Tensor:
    out = expit(t.data)

    def backward(g):
        if t.requires_grad:
            t._accumulate(g * out * (1.0 - out))

    return _make(out, (t,), backward)


def tanh(t: Tensor) -> Tensor:
    out = np.tanh(t.data)

    def backward(g):
        if t.requires_grad:
            t._accumulate(g * (1.0 - out * out))

    return _make(out, (t,), backward)


def exp(t: Tensor) -> Tensor:
    out = np.exp(t.data)

    def backward(g):
        if t.requires_grad:
            t._accumulate(g * out)

    return _make(out, (t,), backward)


def softplus(t: Tensor) -> Tensor:
    # log(1 + e^x) via logaddexp so large |x| stays finite
    out = np.logaddexp(0.0, t.data)

    def backward(g):
        if t.requires_grad:
            t._accumulate(g * expit(t.data))

    return _make(out, (t,), backward)


def clip(t: Tensor, lo: float, hi: float) -> Tensor:
    mask = (t.data >= lo) & (t.data <= hi)

    def backward(g):
        if t.requires_grad:
            t._accumulate(g * mask)

    return _make(np.clip(t.data, lo, hi), (t,), backward)


def minimum(t: Tensor, bound: float) -> Tensor:
    mask = t.data <= bound

    def backward(g):
        if t.requires_grad:
            t._accumulate(g * mask)

    return _make(np.minimum(t.data, bound), (t,), backward)


def maximum(t: Tensor, bound: float) -> Tensor:
    mask = t.data >= bound

    def backward(g):
        if t.requires_grad:
            t._accumulate(g * mask)

    return _make(np.maximum(t.data, bound), (t,), backward)


# -- indexing and structure -------------------------------------------------


def gather(t: Tensor, index) -> Tensor:
    index = np.asarray(index, dtype=np.int64)

    def backward(g):
        if t.requires_grad:
            buf = np.zeros_like(t.data)
            np.add.at(buf, index, g)
            t._accumulate(buf)

    return _make(t.data[index], (t,), backward)


def scatter_sum(t: Tensor, index, size: int) -> Tensor:
    """out[k] = sum of t over positions where index == k; t must be 1-D."""
    index = np.asarray(index, dtype=np.int64)
    out = np.bincount(index, weights=t.data, minlength=size)

    def backward(g):
        if t.requires_grad:
            t._accumulate(g[index])

    return _make(out, (t,), backward)


def concat(tensors, axis=0) -> Tensor:
    tensors = list(tensors)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                t._accumulate(np.take(g, np.arange(lo, hi), axis=axis))

    return _make(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), backward)


def spmm(values: Tensor, rows, cols, shape, dense: Tensor) -> Tensor:
    """Sparse @ dense for a COO-described matrix with differentiable entries.

    Forward: out = A @ dense with A = csr((values, (rows, cols)), shape).
    Backward: d dense = A^T @ g, and per edge e,
    d values[e] = <g[rows[e], :], dense[cols[e], :]>.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    mat = sp.csr_matrix((values.data, (rows, cols)), shape=shape)
    out = mat @ dense.data

    def backward(g):
        if dense.requires_grad:
            dense._accumulate(mat.T @ g)
        if values.requires_grad:
            values._accumulate(np.einsum("ed,ed->e", g[rows], dense.data[cols]))

    return _make(out, (values, dense), backward)

"""Minimal reverse-mode automatic differentiation over float64 numpy arrays.

The training objective chains an edge-confidence MLP, relaxed edge weights,
degree-dependent graph normalization, multi-layer propagation, pairwise
ranking, and kernel dependence statistics.  Deriving that composite gradient
by hand would be brittle, so the forward pass is recorded as a graph of
`Tensor` nodes and replayed in reverse.  Only the operations the pipeline
needs exist here; every op runs on the CPU in float64 with a deterministic
accumulation order, which keeps training bit-reproducible under a fixed seed.

An op's `backward(g)`, given to `_make`, returns a tuple of one gradient
(or None) per parent and writes no `.grad`.  `Tensor.backward` alone
accumulates them; any other return, or an entry not shaped like its parent,
raises `ValueError`.  A backward tests `requires_grad` only to skip real
work: a product against a constant, `propagate`'s social-weight branch, and
each HSIC side.

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
    """A numpy array plus the closure that returns its parents' gradients."""

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

    def backward(self):
        if self.data.ndim != 0:
            raise ValueError("backward() needs a scalar output")
        order = _toposort(self)
        # a tape is single-use: refuse before any gradient is touched
        if any(node._parents and node._backward is None for node in order):
            raise RuntimeError("backward() over a tape whose backward already ran")
        self.grad = np.ones_like(self.data)
        for node in order:
            if node._backward is None or node.grad is None:
                continue
            grads = node._backward(node.grad)
            # the closure holds the op's saved arrays; a run tape drops them
            node._backward = None
            if not isinstance(grads, tuple) or len(grads) != len(node._parents):
                raise ValueError(f"a backward must return a tuple of "
                                 f"{len(node._parents)} entries, one per parent")
            for parent, g in zip(node._parents, grads):
                if g is not None and np.shape(g) != parent.data.shape:
                    raise ValueError(f"a backward returned a {np.shape(g)} gradient "
                                     f"for a {parent.data.shape} parent")
                # in parent order, the first gradient is taken by reference
                # and later ones are added out of place: an op may hand one
                # array to several parents, so no gradient is written through
                if g is not None and parent.requires_grad:
                    parent.grad = g if parent.grad is None else parent.grad + g
            grads = g = None  # not held through the next op's backward

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        a, b = self, _coerce(other)
        return _make(a.data + b.data, (a, b), lambda g: (
            _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)))

    __radd__ = __add__

    def __neg__(self):
        return _make(-self.data, (self,), lambda g: (-g,))

    def __sub__(self, other):
        a, b = self, _coerce(other)
        return _make(a.data - b.data, (a, b), lambda g: (
            _unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)))

    def __mul__(self, other):
        a, b = self, _coerce(other)
        return _make(a.data * b.data, (a, b), lambda g: (
            _unbroadcast(g * b.data, a.data.shape) if a.requires_grad else None,
            _unbroadcast(g * a.data, b.data.shape) if b.requires_grad else None))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            raise TypeError("tensor/tensor division is not part of the op set")
        scale = float(other)
        return _make(self.data / scale, (self,), lambda g: (g / scale,))

    def __matmul__(self, other):
        a, b = self, _coerce(other)
        if a.data.ndim != 2 or b.data.ndim != 2:
            raise ValueError("matmul is implemented for 2-D operands only")
        return _make(a.data @ b.data, (a, b), lambda g: (
            g @ b.data.T if a.requires_grad else None,
            a.data.T @ g if b.requires_grad else None))

    # -- reductions ---------------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        a = self

        def backward(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return np.broadcast_to(g, a.data.shape).copy(),

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
    return _make(out, (t,), lambda g: (g * out * (1.0 - out),))


def tanh(t: Tensor) -> Tensor:
    out = np.tanh(t.data)
    return _make(out, (t,), lambda g: (g * (1.0 - out * out),))


def exp(t: Tensor) -> Tensor:
    out = np.exp(t.data)
    return _make(out, (t,), lambda g: (g * out,))


def softplus(t: Tensor) -> Tensor:
    # log(1 + e^x) via logaddexp so large |x| stays finite
    return _make(np.logaddexp(0.0, t.data), (t,), lambda g: (g * expit(t.data),))


def clip(t: Tensor, lo: float, hi: float) -> Tensor:
    mask = (t.data >= lo) & (t.data <= hi)
    return _make(np.clip(t.data, lo, hi), (t,), lambda g: (g * mask,))


# -- indexing and structure -------------------------------------------------


def gather(t: Tensor, index) -> Tensor:
    """Rows t[index] for a 1-D index; the backward sums repeated rows."""
    index = np.asarray(index, dtype=np.int64)

    def backward(g):
        # one-hot (rows x positions) product: each row's positions are
        # summed in order from zero, as np.add.at would, but in one pass
        k, width = index.size, int(np.prod(t.data.shape[1:]))
        one_hot = sp.csr_matrix((np.ones(k), (index, np.arange(k))),
                                shape=(t.data.shape[0], k))
        return (one_hot @ g.reshape(k, width)).reshape(t.data.shape),

    return _make(t.data[index], (t,), backward)


def scatter_sum(t: Tensor, index, size: int) -> Tensor:
    """out[k] = sum of t over positions where index == k; t must be 1-D."""
    index = np.asarray(index, dtype=np.int64)
    out = np.bincount(index, weights=t.data, minlength=size)
    return _make(out, (t,), lambda g: (g[index],))


def concat(tensors, axis=0) -> Tensor:
    tensors = list(tensors)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)
    return _make(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors),
                 lambda g: tuple(np.take(g, np.arange(lo, hi), axis=axis)
                                 for lo, hi in zip(offsets[:-1], offsets[1:])))


def spmm(values: Tensor, rows, cols, shape, dense: Tensor) -> Tensor:
    """Sparse @ dense for a COO-described matrix with differentiable entries.

    Forward: out = A @ dense with A = csr((values, (rows, cols)), shape).
    Backward: d dense = A^T @ g, and per edge e,
    d values[e] = <g[rows[e], :], dense[cols[e], :]>.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    mat = sp.csr_matrix((values.data, (rows, cols)), shape=shape)
    return _make(mat @ dense.data, (values, dense), lambda g: (
        np.einsum("ed,ed->e", g[rows], dense.data[cols]) if values.requires_grad else None,
        mat.T @ g if dense.requires_grad else None))

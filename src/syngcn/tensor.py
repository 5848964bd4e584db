"""Dense float64 tensors with reverse-mode automatic differentiation.

Every operation records its inputs and a backward rule on the output
tensor, so a forward pass implicitly builds a computation graph (a fresh
graph per pass).  Calling ``backward`` on a scalar result walks that
graph once in reverse topological order, accumulates gradients into
every reachable tensor that requires them, and frees each op's record
once its rule has run.  Inside ``no_grad()`` ops record nothing.

Only generic ops live here: 2-D matmul, add, mul, relu, concatenation,
row slicing and gathering, sum, and a stable softmax cross-entropy.
Broadcasting is limited to scalar-vs-tensor and equal shapes.  The
packed Bi-LSTM, batch norm, graph convolution, pooling and the penalties
are single ops with hand-written rules, built on ``apply_op``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible for an operation."""


class GraphError(RuntimeError):
    """Raised on misuse of the computation graph (e.g. double backward)."""


# Backward rule: maps the output gradient to one gradient per parent
# (None for parents that do not require grad).
BackwardRule = Callable[[np.ndarray], tuple]


class Tensor:
    """A dense float64 array that can participate in differentiation.

    ``requires_grad`` marks trainable leaves; it propagates to the
    results of operations so that constants cost nothing to track.
    ``grad`` is populated (accumulating) by ``backward``; it is read-only
    and may share memory with other tensors' gradients.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_consumed")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward: BackwardRule | None = None
        self._consumed = False

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a scalar, got shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # -- operator sugar ------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self):
        return sum_all(self)

    def backward(self) -> None:
        backward(self)


_recording = True


@contextmanager
def no_grad() -> Iterator[None]:
    """Record no graph inside the block: every op's result is a constant."""
    global _recording
    previous, _recording = _recording, False
    try:
        yield
    finally:
        _recording = previous


def recording() -> bool:
    """True unless inside ``no_grad()``: whether ops record a graph here."""
    return _recording


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def apply_op(parents: Sequence[Tensor], data: np.ndarray, backward_rule: BackwardRule) -> Tensor:
    """Wrap an operation result, recording the backward rule when needed.

    This is the extension hook used by every built-in op and by the
    domain-specific ops in the layers module (LSTM, pooling, batch norm).
    ``backward_rule`` receives the output gradient and must return one
    gradient array per parent, aligned with ``parents``; entries for
    parents that do not require grad are ignored (may be None).
    """
    out = Tensor(data)
    if _recording and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_rule
    return out


# ---------------------------------------------------------------------------
# primitive operations
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two 2-D tensors."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul requires [m,k] x [k,n], got {a.shape} x {b.shape}")
    out = a.data @ b.data

    def rule(g):
        return g @ b.data.T, a.data.T @ g

    return apply_op((a, b), out, rule)


def _binary_shapes(a: Tensor, b: Tensor, name: str) -> None:
    # Scalars broadcast against anything; otherwise shapes must match.
    if a.data.ndim == 0 or b.data.ndim == 0 or a.shape == b.shape:
        return
    raise ShapeError(f"{name} requires equal shapes or a scalar, got {a.shape} and {b.shape}")


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    # Collapse a broadcast gradient back to a scalar parent.
    if shape == ():
        return np.asarray(g.sum(), dtype=np.float64)
    return g


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _binary_shapes(a, b, "add")

    def rule(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return apply_op((a, b), a.data + b.data, rule)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _binary_shapes(a, b, "mul")

    def rule(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return apply_op((a, b), a.data * b.data, rule)


def relu(a) -> Tensor:
    a = _as_tensor(a)

    def rule(g):
        return (g * (a.data > 0),)

    return apply_op((a,), np.maximum(a.data, 0.0), rule)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Join tensors along ``axis`` (n-ary); every other dim must agree."""
    tensors = [_as_tensor(t) for t in tensors]
    try:
        data = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError as exc:  # also numpy's AxisError
        raise ShapeError(f"cannot concat shapes {[t.shape for t in tensors]} on axis {axis}: {exc}") from None
    offsets = np.cumsum([t.shape[axis] for t in tensors])[:-1]

    def rule(g):
        return tuple(np.split(g, offsets, axis=axis))

    return apply_op(tuple(tensors), data, rule)


def slice_rows(a: Tensor, start: int, stop: int) -> Tensor:
    """Rows [start, stop) of a 2-D tensor."""
    a = _as_tensor(a)
    if a.data.ndim != 2 or not 0 <= start <= stop <= a.shape[0]:
        raise ShapeError(f"slice_rows [{start}:{stop}] invalid for shape {a.shape}")

    def rule(g):
        full = np.zeros_like(a.data)
        full[start:stop] = g
        return (full,)

    return apply_op((a,), a.data[start:stop].copy(), rule)


def gather_rows(table: Tensor, indices) -> Tensor:
    """Select rows of a 2-D table; gradients scatter-add back per row."""
    table = _as_tensor(table)
    idx = np.asarray(indices, dtype=np.intp)
    if table.data.ndim != 2:
        raise ShapeError(f"gather_rows needs a 2-D table, got {table.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise IndexError(f"row index out of range for table with {table.shape[0]} rows")

    def rule(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, idx, g)
        return (gt,)

    return apply_op((table,), table.data[idx], rule)


def sum_all(a: Tensor) -> Tensor:
    """Sum of all elements, as a scalar tensor."""
    a = _as_tensor(a)

    def rule(g):
        return (np.full_like(a.data, float(g)),)

    return apply_op((a,), np.asarray(a.data.sum()), rule)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Plain-numpy stable softmax over the last axis."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Summed -log softmax(row)[label] over the rows of [B, C] logits, one label per row.

    A 1-D logit vector [C] is one row, with one integer label.  Computed
    via max-subtraction so large logits cannot overflow; the backward rule
    is softmax(logits) - onehot(labels).
    """
    logits = _as_tensor(logits)
    rows, labels = np.atleast_2d(logits.data), np.asarray(labels, dtype=np.intp).reshape(-1)
    if rows.ndim != 2 or labels.shape != rows.shape[:1]:
        raise ShapeError(f"softmax_cross_entropy needs [C] or [B, C] logits and B labels, got {logits.shape} "
                         f"and {labels.size} labels")
    if np.any((labels < 0) | (labels >= rows.shape[1])):
        raise ValueError(f"labels {labels.tolist()} out of range for {rows.shape[1]} classes")
    if not np.all(np.isfinite(rows)):
        raise ValueError("softmax_cross_entropy requires finite logits")
    picked = np.arange(len(rows)), labels
    m = rows.max(axis=1)
    e = np.exp(rows - m[:, None])
    loss = (m + np.log(e.sum(axis=1)) - rows[picked]).sum()
    probs = e / e.sum(axis=1, keepdims=True)

    def rule(g):
        grad = probs.copy()
        grad[picked] -= 1.0
        return ((grad * float(g)).reshape(logits.shape),)

    return apply_op((logits,), np.asarray(loss), rule)


# ---------------------------------------------------------------------------
# reverse pass
# ---------------------------------------------------------------------------


def _topo_order(root: Tensor) -> list[Tensor]:
    # Iterative DFS postorder: parents always precede their consumers.
    # (Recursion would overflow on long chains of small ops.)
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
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
            if parent.requires_grad and id(parent) not in visited:
                stack.append((parent, False))
    return order


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every tensor the scalar ``loss`` depends on.

    Gradients accumulate out of place, so separate passes over shared
    leaves sum up.  A tensor's first gradient is the array its rule
    returned, not a copy, so a ``grad`` is read-only and may share memory
    with others (``add`` hands both parents one array; ``concat``, views).
    Replaying a graph is an error: it would double-count.  Once a node's
    rule has run, the node drops its parents and its rule, and with them
    every array the rule held; only the marker that refuses a replay stays.
    """
    if not isinstance(loss, Tensor) or loss.data.size != 1:
        raise GraphError("backward requires a scalar tensor")
    if not loss.requires_grad:
        raise GraphError("loss does not depend on any tensor that requires grad")

    order = _topo_order(loss)
    # Interior nodes are single-use: replaying any part of a graph would
    # double-count gradients already pushed into the leaves.
    if loss._consumed or any(node._consumed for node in order):
        raise GraphError("backward already ran through this graph; rebuild it")
    for tensor, g in _incoming(loss, order):
        if g is not None and tensor.requires_grad:
            g = np.asarray(g, dtype=np.float64).reshape(tensor.shape)
            tensor.grad = g if tensor.grad is None else tensor.grad + g
    loss._consumed = True


def _incoming(loss: Tensor, order: list[Tensor]) -> Iterator[tuple[Tensor, np.ndarray | None]]:
    # The seed, then each node's (parent, gradient) pairs once its own gradient is complete.
    yield loss, np.ones_like(loss.data)
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            yield from zip(node._parents, node._backward(node.grad))
            node._consumed, node._parents, node._backward = True, (), None

"""Dense float64 tensors with reverse-mode automatic differentiation.

Every operation records its inputs and a backward rule on the output
tensor, so a forward pass implicitly builds a computation graph (a fresh
graph per pass; nothing is retained between passes).  Calling
``backward`` on a scalar result walks that graph once in reverse
topological order and accumulates gradients into every reachable tensor
that requires them.

Only what the model needs is implemented: 1-D/2-D matmul-style algebra,
add, mul and relu as the only pointwise ops, concatenation/slicing, and a
numerically stable softmax cross-entropy.  Broadcasting is deliberately
limited to scalar-vs-tensor and equal shapes.
"""

from __future__ import annotations

from typing import Callable, Sequence

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
    ``grad`` is populated (accumulating) by ``backward``.
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

    def __sub__(self, other):
        return add(self, mul(other, -1.0))

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self):
        return sum_all(self)

    def backward(self) -> None:
        backward(self)


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
    if any(p.requires_grad for p in parents):
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


def concat(a: Tensor, b: Tensor, axis: int = 0) -> Tensor:
    """Concatenate two tensors along ``axis``; other dims must agree."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != b.data.ndim:
        raise ShapeError(f"concat requires equal ranks, got {a.shape} and {b.shape}")
    if not 0 <= axis < a.data.ndim:
        raise ShapeError(f"concat axis {axis} out of range for shape {a.shape}")
    for d in range(a.data.ndim):
        if d != axis and a.shape[d] != b.shape[d]:
            raise ShapeError(f"concat shapes {a.shape} and {b.shape} differ off axis {axis}")
    split = a.shape[axis]

    def rule(g):
        ga = np.take(g, range(split), axis=axis)
        gb = np.take(g, range(split, g.shape[axis]), axis=axis)
        return ga, gb

    return apply_op((a, b), np.concatenate([a.data, b.data], axis=axis), rule)


def concat_rows(tensors: Sequence[Tensor]) -> Tensor:
    """Stack 2-D tensors with equal column counts along axis 0 (n-ary)."""
    tensors = [_as_tensor(t) for t in tensors]
    if not tensors:
        raise ShapeError("concat_rows needs at least one tensor")
    cols = tensors[0].shape[-1]
    for t in tensors:
        if t.data.ndim != 2 or t.shape[1] != cols:
            raise ShapeError(f"concat_rows needs [*, {cols}] blocks, got {t.shape}")
    sizes = [t.shape[0] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def rule(g):
        return tuple(g[offsets[i]:offsets[i + 1]] for i in range(len(tensors)))

    return apply_op(tuple(tensors), np.concatenate([t.data for t in tensors], axis=0), rule)


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


def pad_rows(a: Tensor, total_rows: int) -> Tensor:
    """Append zero rows to a 2-D tensor up to ``total_rows``."""
    a = _as_tensor(a)
    n = a.shape[0]
    if a.data.ndim != 2 or total_rows < n:
        raise ShapeError(f"pad_rows to {total_rows} invalid for shape {a.shape}")
    out = np.zeros((total_rows, a.shape[1]), dtype=np.float64)
    out[:n] = a.data

    def rule(g):
        return (g[:n].copy(),)

    return apply_op((a,), out, rule)


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


def transpose(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    if a.data.ndim != 2:
        raise ShapeError(f"transpose needs a 2-D tensor, got {a.shape}")

    def rule(g):
        return (g.T,)

    return apply_op((a,), a.data.T.copy(), rule)


def reshape(a: Tensor, shape) -> Tensor:
    a = _as_tensor(a)
    out = a.data.reshape(shape)

    def rule(g):
        return (g.reshape(a.shape),)

    return apply_op((a,), out.copy(), rule)


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


def softmax_cross_entropy(logits: Tensor, label: int) -> Tensor:
    """-log softmax(logits)[label] for a 1-D logit vector.

    Computed via max-subtraction so large logits cannot overflow; the
    backward rule is softmax(logits) - onehot(label).
    """
    logits = _as_tensor(logits)
    if logits.data.ndim != 1:
        raise ShapeError(f"softmax_cross_entropy needs 1-D logits, got {logits.shape}")
    c = logits.shape[0]
    label = int(label)
    if not 0 <= label < c:
        raise ValueError(f"label {label} out of range for {c} classes")
    if not np.all(np.isfinite(logits.data)):
        raise ValueError("softmax_cross_entropy requires finite logits")
    m = logits.data.max()
    shifted = logits.data - m
    logsumexp = m + np.log(np.exp(shifted).sum())
    loss = logsumexp - logits.data[label]
    probs = softmax(logits.data)

    def rule(g):
        grad = probs.copy()
        grad[label] -= 1.0
        return (grad * float(g),)

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

    Gradients accumulate (+=) so that separate backward passes over
    shared leaves sum up; re-running backward on the same result tensor
    is an error, since that would silently double-count.
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
    if loss.grad is None:
        loss.grad = np.zeros_like(loss.data)
    loss.grad = loss.grad + np.ones_like(loss.data)

    for node in reversed(order):
        if node._backward is None or node.grad is None:
            continue
        grads = node._backward(node.grad)
        for parent, g in zip(node._parents, grads):
            if g is None or not parent.requires_grad:
                continue
            if parent.grad is None:
                parent.grad = np.zeros_like(parent.data)
            parent.grad += np.asarray(g, dtype=np.float64).reshape(parent.shape)
        node._consumed = True
    loss._consumed = True

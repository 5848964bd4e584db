"""Reference LSTM: the per-step, per-gate tape cell, kept as a test oracle.

``LstmCell.run`` computes a whole sequence as one tape op with a
hand-written backward pass.  This module recomputes the same sequence
one time step at a time from primitive tape ops, so autodiff derives
every gradient; the two must agree.
"""

from __future__ import annotations

import numpy as np

from syngcn import tensor as T
from syngcn.layers import LstmCell
from syngcn.tensor import Tensor


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    e = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return T.apply_op((a,), out, lambda g: (g * out * (1.0 - out),))


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)
    return T.apply_op((a,), out, lambda g: (g * (1.0 - out * out),))


def step(cell: LstmCell, x: Tensor, h: Tensor, c: Tensor) -> tuple[Tensor, Tensor]:
    """One time step; x is [1, input_dim], h and c are [1, hidden]."""

    def gate(name):
        return x @ cell.w_x[name] + h @ cell.w_h[name] + cell.bias[name]

    i = sigmoid(gate("input"))
    f = sigmoid(gate("forget"))
    o = sigmoid(gate("output"))
    g = tanh(gate("candidate"))
    c_next = f * c + i * g
    return o * tanh(c_next), c_next


def run(cell: LstmCell, x: Tensor, reverse: bool = False) -> Tensor:
    """Hidden states [n, hidden] for the rows of x [n, input_dim], in row order."""
    n = x.shape[0]
    h = Tensor(np.zeros((1, cell.hidden)))
    c = Tensor(np.zeros((1, cell.hidden)))
    out: list[Tensor | None] = [None] * n
    for t in (range(n - 1, -1, -1) if reverse else range(n)):
        h, c = step(cell, T.slice_rows(x, t, t + 1), h, c)
        out[t] = h
    return T.concat_rows(out)

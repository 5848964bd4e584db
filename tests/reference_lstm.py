"""Reference LSTMs kept as test oracles: the per-step tape cell and the packed-row walk.

``LstmCell.run`` computes a whole sequence as one tape op with a
hand-written backward pass.  ``run`` recomputes the same sequence one time
step at a time from primitive tape ops, so autodiff derives every gradient;
the two must agree to rounding.

``PackedRowPass`` is the earlier design of ``layers._CellPass``: the same
lockstep walks over the same rows, but with every array in packed row order,
so each step gathers and scatters its rows through an index list and its gate
math allocates fresh arrays.  It has ``_CellPass``'s interface, so a test may
put it in ``_CellPass``'s place; both must give the same bits.
"""

from __future__ import annotations

import itertools

import numpy as np

from syngcn import layers
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
    return T.concat(out)


class PackedRowPass:
    """One LstmCell's walks with acts, cs and hs in packed row order; step t's rows are the list steps[t]."""

    def __init__(self, cell: LstmCell, x: np.ndarray, schedule, reverse: bool, hs: np.ndarray):
        self.cell, self.x, self.hs, bounds = cell, x, hs, schedule.bounds  # its own steps from the bounds alone
        self.acts = np.empty((len(x), 4 * cell.hidden))
        self.cs = np.empty(hs.shape) if T.recording() else None
        self.w_x, self.w_h = layers._stacked(cell.w_x), layers._stacked(cell.w_h)
        self.bias = layers._stacked(cell.bias)
        self.scale = np.repeat([0.5, 0.5, 0.5, 1.0], cell.hidden)
        sizes = np.diff(bounds)
        order = np.argsort(-sizes, kind="stable")
        sizes, self.direction = sizes[order], -1 if reverse else 1
        firsts = (np.asarray(bounds[1:]) - 1 if reverse else np.asarray(bounds[:-1]))[order]
        self.steps = [firsts[: np.count_nonzero(sizes > t)] + self.direction * t for t in range(sizes[0])]

    def forward(self) -> None:
        hid, acts, cs, scale, w_h = self.cell.hidden, self.acts, self.cs, self.scale, self.w_h
        shift, n = 1.0 - scale, len(acts)
        blocks = -(-n // layers.PROJECTION_ROWS)
        for start, stop in itertools.pairwise(k * n // blocks for k in range(blocks + 1)):
            np.matmul(self.x[start:stop], self.w_x, out=acts[start:stop])
            acts[start:stop] += self.bias
        h = c = np.zeros((len(self.steps[0]), hid))
        for rows in self.steps:
            k = len(rows)
            z = acts[rows] + h[:k] @ w_h
            a = scale * np.tanh(scale * z) + shift
            i, f, o, g = a.reshape(k, 4, hid).swapaxes(0, 1)
            c = f * c[:k] + i * g
            h = o * np.tanh(c)
            self.hs[rows] = h
            if cs is not None:
                acts[rows], cs[rows] = a, c

    def backward_arrays(self) -> tuple[np.ndarray, ...]:
        (d, width), hid = self.w_x.shape, self.cell.hidden
        return np.empty((len(self.x), d)), np.empty((d, width)), np.empty((hid, width)), np.empty((1, width))

    def backward(self, grad, dx, dw_x, dw_h, db) -> tuple:
        hid, dz, cs, scale, direction = self.cell.hidden, self.acts, self.cs, self.scale, self.direction
        shift, top = 1.0 - scale, scale * scale
        dh_next, dc_next = np.zeros((2, len(self.steps[0]), hid))
        for t in range(len(self.steps) - 1, -1, -1):
            rows = self.steps[t]
            k = len(rows)
            a, tanh_c = dz[rows], np.tanh(cs[rows])
            c_prev = cs[rows - direction] if t else np.zeros((k, hid))
            i, f, o, g = a.reshape(k, 4, hid).swapaxes(0, 1)
            dh = grad[rows] + dh_next[:k]
            dc = dh * (o * (1.0 - tanh_c**2)) + dc_next[:k]
            dz_t = (top - (a - shift) ** 2) * (np.hstack([dc, dc, dh, dc]) * np.hstack([g, c_prev, tanh_c, i]))
            dz[rows] = dz_t
            dh_next[:k], dc_next[:k] = dz_t @ self.w_h.T, dc * f
        h_prev = cs
        if direction == 1:
            h_prev[1:] = self.hs[:-1]
        else:
            h_prev[:-1] = self.hs[1:]
        h_prev[self.steps[0]] = 0.0
        np.matmul(self.x.T, dz, out=dw_x)
        np.matmul(h_prev.T, dz, out=dw_h)
        np.sum(dz, axis=0, keepdims=True, out=db)
        np.matmul(dz, self.w_x.T, out=dx)
        return (dx, *(d[:, k * hid : (k + 1) * hid] for k in range(4) for d in (dw_x, dw_h, db)))

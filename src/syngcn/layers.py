"""Neural layers: embedding, stacked Bi-LSTM, graph convolution, pooling.

All layers hold their parameters as autograd tensors and expose a
``parameters()`` iterator of (name, tensor) pairs so the trainer and
checkpoint code can address them uniformly.  Forward passes build fresh
computation graphs; nothing here mutates parameters.
"""

from __future__ import annotations

import math

import numpy as np

from . import tensor as T
from .tensor import ShapeError, Tensor


class EmbeddingTable:
    """Trainable |V| x d word embeddings; row 0 is the all-zero padding row.

    The padding row is kept out of updates by the trainer (its gradient
    is cleared before each optimizer step).
    """

    def __init__(self, vocab_size: int, dim: int, rng: np.random.Generator):
        weights = rng.uniform(-0.05, 0.05, size=(vocab_size, dim))
        weights[0] = 0.0
        self.table = Tensor(weights, requires_grad=True)

    def parameters(self):
        yield "embedding.table", self.table

    def __call__(self, token_ids) -> Tensor:
        return T.gather_rows(self.table, token_ids)


class LstmCell:
    """Single-direction LSTM cell with one weight set per gate.

    Gates: input (i), forget (f), output (o), candidate (g).  The forget
    bias starts at 1 so early training does not flush the cell state.
    ``run`` is one tape op for a whole sequence: the gate blocks sit side
    by side, the input projection covers all time steps at once, and the
    backward rule is hand-written backpropagation through time.
    """

    GATES = ("input", "forget", "output", "candidate")

    def __init__(self, input_dim: int, hidden: int, rng: np.random.Generator, name: str):
        self.hidden = hidden
        self.name = name
        self.w_x: dict[str, Tensor] = {}
        self.w_h: dict[str, Tensor] = {}
        self.bias: dict[str, Tensor] = {}
        for gate in self.GATES:
            self.w_x[gate] = Tensor(orthogonal_init(input_dim, hidden, rng), requires_grad=True)
            self.w_h[gate] = Tensor(orthogonal_init(hidden, hidden, rng), requires_grad=True)
            init = np.ones((1, hidden)) if gate == "forget" else np.zeros((1, hidden))
            self.bias[gate] = Tensor(init, requires_grad=True)

    def parameters(self):
        for gate in self.GATES:
            yield f"{self.name}.{gate}.w_x", self.w_x[gate]
            yield f"{self.name}.{gate}.w_h", self.w_h[gate]
            yield f"{self.name}.{gate}.bias", self.bias[gate]

    def weight_matrices(self):
        for gate in self.GATES:
            yield self.w_x[gate]
            yield self.w_h[gate]

    def run(self, x: Tensor, reverse: bool = False) -> Tensor:
        """Hidden states [n, hidden] for the rows of x [n, input_dim], in row order."""
        hid, n = self.hidden, x.shape[0]
        params = [p for _, p in self.parameters()]  # (w_x, w_h, bias) per gate
        # The rule stacks the per-gate arrays again: a stacked copy held by
        # every tape op would pin weight-sized arrays per record.
        w_x, w_h = [p.data for p in params[0::3]], [p.data for p in params[1::3]]
        xs = x.data[::-1] if reverse else x.data
        z_x = xs @ np.hstack(w_x) + np.hstack([p.data for p in params[2::3]])
        w_h_all = np.hstack(w_h)
        acts = np.empty((n, 4 * hid))  # sigmoid(i, f, o) and tanh(g) per step
        hs, cs = np.zeros((n + 1, hid)), np.zeros((n + 1, hid))  # row t: state before step t
        for t in range(n):
            z = z_x[t] + hs[t] @ w_h_all
            acts[t] = np.concatenate([_sigmoid(z[: 3 * hid]), np.tanh(z[3 * hid :])])
            i, f, o, g = np.split(acts[t], 4)
            cs[t + 1] = f * cs[t] + i * g
            hs[t + 1] = o * np.tanh(cs[t + 1])

        def rule(grad):
            grad = grad[::-1] if reverse else grad
            w_h_t, tanh_c = np.hstack(w_h).T, np.tanh(cs[1:])
            i, f, o, g = np.split(acts, 4, axis=1)
            # Rows start as d(activation)/d(pre-activation) of each gate.
            dz = np.hstack([acts[:, : 3 * hid] * (1.0 - acts[:, : 3 * hid]), 1.0 - g * g])
            dh_next = dc_next = np.zeros(hid)
            for t in range(n - 1, -1, -1):
                dh = grad[t] + dh_next
                dc = dh * o[t] * (1.0 - tanh_c[t] ** 2) + dc_next
                dz[t] *= np.concatenate([dc * g[t], dc * cs[t], dh * tanh_c[t], dc * i[t]])
                dh_next, dc_next = dz[t] @ w_h_t, dc * f[t]
            dx = dz @ np.hstack(w_x).T
            dw_x, dw_h, db = xs.T @ dz, hs[:n].T @ dz, dz.sum(axis=0, keepdims=True)
            per_gate = [d[:, k * hid : (k + 1) * hid] for k in range(4) for d in (dw_x, dw_h, db)]
            return (dx[::-1] if reverse else dx, *per_gate)

        out = hs[1:][::-1] if reverse else hs[1:]
        return T.apply_op((x, *params), out.copy(), rule)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # Stable in both tails: exp of a non-positive argument only.
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


class BiLstm:
    """Stacked bidirectional LSTM over a [n, d] feature matrix.

    Each layer runs one forward and one backward cell over the whole
    sequence (one tape op each) and places their [n, hidden] state
    matrices side by side, so the output is [n, 2*hidden].  Inverted
    dropout (training only) sits between layers and after the last one.
    """

    def __init__(self, input_dim: int, hidden: int, layers: int, dropout: float, rng: np.random.Generator):
        if layers < 1:
            raise ValueError("BiLstm needs at least one layer")
        self.hidden = hidden
        self.dropout = dropout
        self.cells: list[tuple[LstmCell, LstmCell]] = []
        dim = input_dim
        for idx in range(layers):
            fwd = LstmCell(dim, hidden, rng, name=f"bilstm.{idx}.fwd")
            bwd = LstmCell(dim, hidden, rng, name=f"bilstm.{idx}.bwd")
            self.cells.append((fwd, bwd))
            dim = 2 * hidden

    @property
    def output_dim(self) -> int:
        return 2 * self.hidden

    def parameters(self):
        for fwd, bwd in self.cells:
            yield from fwd.parameters()
            yield from bwd.parameters()

    def weight_matrices(self):
        for fwd, bwd in self.cells:
            yield from fwd.weight_matrices()
            yield from bwd.weight_matrices()

    def _dropout(self, x: Tensor, rng: np.random.Generator) -> Tensor:
        keep = 1.0 - self.dropout
        mask = rng.random(x.shape) < keep
        return x * Tensor(mask.astype(np.float64) / keep)

    def __call__(self, x: Tensor, training: bool = False, rng: np.random.Generator | None = None) -> Tensor:
        if x.data.ndim != 2:
            raise ShapeError(f"BiLstm expects [n, d], got {x.shape}")
        if training and self.dropout > 0 and rng is None:
            raise ValueError("training-mode dropout needs an rng")
        out = x
        for fwd, bwd in self.cells:
            out = T.concat(fwd.run(out), bwd.run(out, reverse=True), axis=1)
            if training and self.dropout > 0:
                out = self._dropout(out, rng)
        return out


class BatchNorm:
    """Normalization of each feature column over all rows seen in a batch.

    Training mode normalizes with batch statistics and refreshes the
    running estimates; evaluation mode applies the running estimates as
    a fixed affine map.
    """

    def __init__(self, features: int, momentum: float = 0.1, eps: float = 1e-5):
        self.gamma = Tensor(np.ones(features), requires_grad=True)
        self.beta = Tensor(np.zeros(features), requires_grad=True)
        self.running_mean = np.zeros(features)
        self.running_var = np.ones(features)
        self.momentum = momentum
        self.eps = eps

    def parameters(self):
        yield "batch_norm.gamma", self.gamma
        yield "batch_norm.beta", self.beta

    def state_arrays(self):
        yield "batch_norm.running_mean", self.running_mean
        yield "batch_norm.running_var", self.running_var

    def load_state(self, mean: np.ndarray, var: np.ndarray) -> None:
        self.running_mean = np.asarray(mean, dtype=np.float64).copy()
        self.running_var = np.asarray(var, dtype=np.float64).copy()

    def __call__(self, x: Tensor, training: bool = False) -> Tensor:
        if x.data.ndim != 2 or x.shape[1] != self.gamma.shape[0]:
            raise ShapeError(f"BatchNorm over {self.gamma.shape[0]} features got {x.shape}")
        gamma, beta = self.gamma, self.beta
        if training:
            n = x.shape[0]
            mean = x.data.mean(axis=0)
            var = x.data.var(axis=0)
            inv_std = 1.0 / np.sqrt(var + self.eps)
            x_hat = (x.data - mean) * inv_std
            out = x_hat * gamma.data + beta.data

            unbiased = var * (n / (n - 1)) if n > 1 else var
            self.running_mean = (1 - self.momentum) * self.running_mean + self.momentum * mean
            self.running_var = (1 - self.momentum) * self.running_var + self.momentum * unbiased

            def rule(g):
                # Batch statistics depend on x, hence the centering terms.
                dgamma = (g * x_hat).sum(axis=0)
                dbeta = g.sum(axis=0)
                dx = (gamma.data * inv_std / n) * (
                    n * g - dbeta - x_hat * dgamma
                )
                return dx, dgamma, dbeta

            return T.apply_op((x, gamma, beta), out, rule)

        inv_std = 1.0 / np.sqrt(self.running_var + self.eps)
        x_hat = (x.data - self.running_mean) * inv_std
        out = x_hat * gamma.data + beta.data

        def rule(g):
            return gamma.data * inv_std * g, (g * x_hat).sum(axis=0), g.sum(axis=0)

        return T.apply_op((x, gamma, beta), out, rule)


class GcnLayer:
    """Single graph convolution: ReLU(normalized_adjacency @ features @ weight)."""

    def __init__(self, input_dim: int, classes: int, rng: np.random.Generator):
        self.weight = Tensor(orthogonal_init(input_dim, classes, rng), requires_grad=True)

    def parameters(self):
        yield "gcn.weight", self.weight

    def __call__(self, features: Tensor, adj_norm: np.ndarray) -> Tensor:
        adj_norm = np.asarray(adj_norm, dtype=np.float64)
        n = features.shape[0]
        if adj_norm.shape != (n, n):
            raise ShapeError(f"adjacency {adj_norm.shape} does not match {n} feature rows")
        if features.shape[1] != self.weight.shape[0]:
            raise ShapeError(f"features {features.shape} vs weight {self.weight.shape}")
        mixed = T.matmul(Tensor(adj_norm), features)
        return T.relu(mixed @ self.weight)


def percentile_pool(z: Tensor, p: float) -> Tensor:
    """Nearest-rank percentile of each column of z (ascending order).

    The selected 1-based rank is ceil(p/100 * n), clamped to 1 for p=0,
    so p=100 is max pooling and p=50 the median for odd n.  The gradient
    of each pooled value flows to the selected element's original row;
    among equal values the lowest row index wins.
    """
    if not 0 <= p <= 100:
        raise ValueError(f"percentile p={p} outside [0, 100]")
    if z.data.ndim != 2 or z.shape[0] < 1:
        raise ShapeError(f"percentile_pool needs a non-empty [n, C] tensor, got {z.shape}")
    n, c = z.shape
    # Multiply before dividing: p*n is exact in float64 for the supported
    # range, so integer-valued ranks never round up spuriously.
    rank = max(1, math.ceil(p * n / 100.0))
    sorted_cols = np.sort(z.data, axis=0)
    values = sorted_cols[rank - 1]
    selected = np.argmax(z.data == values[None, :], axis=0)

    def rule(g):
        gz = np.zeros_like(z.data)
        gz[selected, np.arange(c)] = g
        return (gz,)

    return T.apply_op((z,), values.copy(), rule)


def average_pool(z: Tensor) -> Tensor:
    """Column means; the gradient spreads 1/n to every row."""
    if z.data.ndim != 2 or z.shape[0] < 1:
        raise ShapeError(f"average_pool needs a non-empty [n, C] tensor, got {z.shape}")
    n = z.shape[0]

    def rule(g):
        return (np.repeat(g[None, :] / n, n, axis=0),)

    return T.apply_op((z,), z.data.mean(axis=0), rule)


class FcHead:
    """Pooling baseline: flatten zero-padded features and map to logits."""

    def __init__(self, max_len: int, classes: int, rng: np.random.Generator):
        self.max_len = max_len
        self.weight = Tensor(orthogonal_init(max_len * classes, classes, rng), requires_grad=True)
        self.bias = Tensor(np.zeros(classes), requires_grad=True)

    def parameters(self):
        yield "fc_head.weight", self.weight
        yield "fc_head.bias", self.bias

    def __call__(self, z: Tensor) -> Tensor:
        if z.shape[0] > self.max_len:
            raise ShapeError(f"{z.shape[0]} rows exceed fc head capacity {self.max_len}")
        flat = T.reshape(T.pad_rows(z, self.max_len), (1, self.weight.shape[0]))
        return T.reshape(flat @ self.weight, (self.weight.shape[1],)) + self.bias


def orthogonal_init(rows: int, cols: int, rng: np.random.Generator, max_tries: int = 3) -> np.ndarray:
    """Random matrix with orthonormal columns (rows, if the matrix is wide).

    Draws a Gaussian matrix and keeps the orthogonal factor of its thin
    SVD; retries with a fresh sample in the unlikely event the SVD fails
    to converge.
    """
    if rows < 1 or cols < 1:
        raise ValueError(f"invalid shape ({rows}, {cols})")
    for _ in range(max_tries):
        m = rng.standard_normal((rows, cols))
        try:
            u, _, vt = np.linalg.svd(m, full_matrices=False)
        except np.linalg.LinAlgError:
            continue
        return u if rows >= cols else vt
    raise RuntimeError(f"SVD failed {max_tries} times for shape ({rows}, {cols})")

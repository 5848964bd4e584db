"""Neural layers: embedding, stacked Bi-LSTM, graph convolution, pooling.

All layers hold their parameters as autograd tensors and expose a
``parameters()`` iterator of (name, tensor) pairs so the trainer and
checkpoint code can address them uniformly.  Forward passes build fresh
computation graphs; nothing here mutates parameters.

A batch is one [N, d] matrix of its records' rows, record after record;
``lengths`` [n_1, ..., n_B] counts each record's rows (None: one record).
"""

from __future__ import annotations

import contextvars
import itertools
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

import numpy as np

from . import tensor as T
from .tensor import ShapeError, Tensor

BN_MOMENTUM, BN_EPS = 0.1, 1e-5  # batch weight in the running estimates; floor added to the variance
SVD_TRIES = 3  # fresh Gaussian samples orthogonal_init tries before it gives up
# Work per time step, mean rows per step x hidden^2, from which a Bi-LSTM layer runs its two
# directions at once.  Below it the threads' turns at the GIL cost more than the overlap saves:
# on 2 cores, layers of hidden 16-64 at 32 sequences, 128 at 6-8 and 180 at 2-4 ran slower.
PARALLEL_MIN_STEP_WORK = 150_000
# Most rows in one product of a cell's input projection, which runs on the thread that walks the cell.
# Peak RSS grows with the row count of the largest product the worker thread runs.  Predicting 8 x 12
# chunks at paper size (2 cores, one BLAS thread) peaked at 123.5 MB with every projection on the
# calling thread; with them on the thread of their walk, at 128.6 MB in one product, 124.8 MB in blocks
# of 1024 rows, 123.5 MB at 512, 122.3 MB at 256 and 121.7 MB at 128.
PROJECTION_ROWS = 256

# Holds the one worker thread, which the first ``on_two_threads`` call starts (an executor starts none before then).
_worker = ThreadPoolExecutor(max_workers=1, thread_name_prefix="syngcn-worker")


class EmbeddingTable:
    """Trainable |V| x d word embeddings; row 0 is the all-zero padding row.

    No encoded token is the padding id, so its row's gradient stays zero and
    Adam never moves it.  ``grad`` is read-only and may be shared, as every
    gradient is.  Without an rng the table is zeros, for a caller that fills it.
    """

    def __init__(self, vocab_size: int, dim: int, rng: np.random.Generator | None):
        weights = np.zeros((vocab_size, dim)) if rng is None else rng.uniform(-0.05, 0.05, size=(vocab_size, dim))
        weights[0] = 0.0
        self.table = Tensor(weights, requires_grad=True)

    def parameters(self):
        yield "embedding.table", self.table

    def __call__(self, token_ids) -> Tensor:
        return T.gather_rows(self.table, token_ids)


class LstmCell:
    """Single-direction LSTM cell with one weight set per gate.

    Gates: input (i), forget (f), output (o), candidate (g).  The forget bias starts
    at 1 so early training does not flush the cell state.  One activation covers the
    gate block: scale * tanh(scale * z) + 1 - scale, with scale 1/2 the sigmoid of
    i, f, o (sigmoid(z) = tanh(z/2)/2 + 1/2) and scale 1 the tanh of g.  ``run`` is one
    tape op for a packed batch of sequences; its walks are a ``_CellPass``, which
    ``BiLstm`` also runs two at a time.
    """

    GATES = ("input", "forget", "output", "candidate")

    def __init__(self, input_dim: int, hidden: int, rng: np.random.Generator | None, name: str):
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

    def run(self, x: Tensor, reverse: bool = False, lengths=None) -> Tensor:
        """Hidden states [n, hidden] for the rows of x [n, input_dim], in row order.

        ``lengths`` splits the rows into consecutive sequences (default: one),
        each run from a zero state, back to front if ``reverse``.
        """
        walk = _CellPass(self, x.data, _segment_bounds(x, lengths), reverse, np.empty((x.shape[0], self.hidden)))
        walk.forward()

        def rule(grad):
            return walk.backward(grad, *walk.backward_arrays())

        return T.apply_op((x, *(p for _, p in self.parameters())), walk.hs, rule)


def _stacked(weights: dict[str, Tensor]) -> np.ndarray:
    """One weight set of a cell with its gates side by side, in GATES order."""
    return np.hstack([weights[gate].data for gate in LstmCell.GATES])


class _CellPass:
    """One LstmCell's walks over packed sequences: the forward, then BPTT when a tape records the run.

    The gate blocks sit side by side.  The forward first fills acts with the input
    projections, in near-equal blocks of at most ``PROJECTION_ROWS`` rows: a block has
    one row only when n does, since NumPy multiplies one row with gemv, whose sums may
    round other than gemm's, while blocks of two or more rows give the bits of one whole
    product.  One list of time steps drives both walks: step t holds the rows of the k_t
    sequences still running, longest first (the ``batch_sizes`` layout of packed
    sequences).  The forward takes one ``[k_t, hidden]`` product per step; BPTT walks
    the steps in reverse with one ``[k_t, 4 * hidden]`` product each.  Every array of n
    rows or of a weight's size is allocated by the thread that builds the pass or asks
    for ``backward_arrays``; the walks fill them in place and allocate one step's rows
    at most.  So either walk may run on the worker thread: glibc keeps what a thread
    frees in that thread's own arena, which thus stays one step's rows small, and the
    projection's blocks keep the worker's products as small (see ``PROJECTION_ROWS``).
    """

    def __init__(self, cell: LstmCell, x: np.ndarray, bounds: list[int], reverse: bool, hs: np.ndarray):
        self.cell, self.x, self.hs = cell, x, hs  # hs [n, hidden] receives the states; it may be a view
        # The input projections, then (when recording) the gate values i, f, o, g: the forward fills it.
        self.acts = np.empty((len(x), 4 * cell.hidden))
        self.cs = np.empty(hs.shape) if T.recording() else None  # row r: cell state after row r
        # The walks' own copies of the weights, held only while a walk runs: backward_arrays stacks them again.
        self.w_x, self.w_h, self.bias = _stacked(cell.w_x), _stacked(cell.w_h), _stacked(cell.bias)
        self.scale = np.repeat([0.5, 0.5, 0.5, 1.0], cell.hidden)  # sigmoid for i, f, o; tanh for g
        # Lockstep: longest sequence first, so at step t the sequences still
        # running are a prefix of that order, and their states the first k_t
        # rows of h and c.  steps[t] holds their rows; a reverse run starts at
        # each sequence's last row and walks back.
        sizes = np.diff(bounds)
        order = np.argsort(-sizes, kind="stable")
        sizes, self.direction = sizes[order], -1 if reverse else 1
        firsts = (np.asarray(bounds[1:]) - 1 if reverse else np.asarray(bounds[:-1]))[order]
        self.steps = [firsts[: np.count_nonzero(sizes > t)] + self.direction * t for t in range(sizes[0])]

    def forward(self) -> None:
        """Project the inputs into acts; fill hs, and when recording the gate values (over acts) and cs, row by row."""
        hid, acts, cs, scale, w_h = self.cell.hidden, self.acts, self.cs, self.scale, self.w_h
        shift, n = 1.0 - scale, len(acts)
        blocks = -(-n // PROJECTION_ROWS)  # block k: rows k * n // blocks up to (k + 1) * n // blocks
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
        self.w_x = self.w_h = self.bias = None

    def backward_arrays(self) -> tuple[np.ndarray, ...]:
        """Stack the weights again; return empty dx, dw_x, dw_h and db for ``backward`` to fill."""
        self.w_x, self.w_h = _stacked(self.cell.w_x), _stacked(self.cell.w_h)
        (d, width), hid = self.w_x.shape, self.cell.hidden
        return np.empty((len(self.x), d)), np.empty((d, width)), np.empty((hid, width)), np.empty((1, width))

    def backward(self, grad, dx, dw_x, dw_h, db) -> tuple:
        """BPTT for the gradient [n, hidden] of hs: dx, then the 12 per-gate gradients in parameters() order.

        Runs once: the pass overwrites its gate values with the pre-activations' gradients, then drops them.
        """
        hid, dz, cs, scale, direction = self.cell.hidden, self.acts, self.cs, self.scale, self.direction
        shift, top = 1.0 - scale, scale * scale
        dh_next, dc_next = np.zeros((2, len(self.steps[0]), hid))
        for t in range(len(self.steps) - 1, -1, -1):
            rows = self.steps[t]
            k = len(rows)
            a, tanh_c = dz[rows], np.tanh(cs[rows])
            # The state before each step: the previous row's in run order, zero at a sequence's first step.
            c_prev = cs[rows - direction] if t else np.zeros((k, hid))
            i, f, o, g = a.reshape(k, 4, hid).swapaxes(0, 1)
            dh = grad[rows] + dh_next[:k]
            dc = dh * (o * (1.0 - tanh_c**2)) + dc_next[:k]
            # d(activation)/d(pre-activation), a(1 - a) for i, f, o and 1 - g^2 for g, times dc or dh times a factor.
            dz_t = (top - (a - shift) ** 2) * (np.hstack([dc, dc, dh, dc]) * np.hstack([g, c_prev, tanh_c, i]))
            dz[rows] = dz_t
            dh_next[:k], dc_next[:k] = dz_t @ self.w_h.T, dc * f
        h_prev = cs  # the cell states are spent: hold the hidden states before each row, as c_prev above
        if direction == 1:
            h_prev[1:] = self.hs[:-1]
        else:
            h_prev[:-1] = self.hs[1:]
        h_prev[self.steps[0]] = 0.0
        np.matmul(self.x.T, dz, out=dw_x)
        np.matmul(h_prev.T, dz, out=dw_h)
        np.sum(dz, axis=0, keepdims=True, out=db)
        np.matmul(dz, self.w_x.T, out=dx)
        self.acts = self.cs = self.w_x = self.w_h = None
        return (dx, *(d[:, k * hid : (k + 1) * hid] for k in range(4) for d in (dw_x, dw_h, db)))


def _segment_bounds(x: Tensor, lengths=None) -> list[int]:
    """Row offsets [0, n_1, n_1 + n_2, ..., N] of the records packed in x [N, d]."""
    n = x.shape[0] if x.data.ndim == 2 else -1
    lengths = [n] if lengths is None else list(lengths)
    if not lengths or any(k < 1 for k in lengths) or sum(lengths) != n:
        raise ShapeError(f"lengths {lengths} do not split the rows of {x.shape} into non-empty records")
    return np.cumsum([0, *lengths]).tolist()


def on_two_threads(mine: Callable[[], object], theirs: Callable[[], object]) -> tuple:
    """mine() on this thread while the worker thread runs theirs() in a copy of this thread's context.

    The context carries NumPy's error state and the tape's recording switch: a new thread inherits neither.
    Returns both results; whatever either raises reaches the caller once both are done.
    """
    future = _worker.submit(contextvars.copy_context().run, theirs)
    try:
        result = mine()
    finally:
        other = future.result()
    return result, other


def _new_worker() -> None:
    # A forked child inherits the parent's executor but not its thread, which would never run a task.
    global _worker
    _worker = ThreadPoolExecutor(max_workers=1, thread_name_prefix="syngcn-worker")


os.register_at_fork(after_in_child=_new_worker)


def _bilstm_layer(fwd: LstmCell, bwd: LstmCell, x: Tensor, bounds: list[int]) -> Tensor:
    """Both cells' states side by side, [n, 2 * hidden], as one tape op; bwd's walks run on the worker thread."""
    hid = fwd.hidden
    out = np.empty((x.shape[0], 2 * hid))
    walks = _CellPass(fwd, x.data, bounds, False, out[:, :hid]), _CellPass(bwd, x.data, bounds, True, out[:, hid:])
    on_two_threads(walks[0].forward, walks[1].forward)

    def rule(grad):
        (f, f_arrays), (b, b_arrays) = ((walk, walk.backward_arrays()) for walk in walks)
        (dx, *d_fwd), (dx_bwd, *d_bwd) = on_two_threads(
            lambda: f.backward(grad[:, :hid], *f_arrays), lambda: b.backward(grad[:, hid:], *b_arrays)
        )
        dx += dx_bwd
        return (dx, *d_fwd, *d_bwd)

    return T.apply_op((x, *(p for cell in (fwd, bwd) for _, p in cell.parameters())), out, rule)


class BiLstm:
    """Stacked bidirectional LSTM over consecutive sequences packed in [n, d].

    Each layer runs one forward and one backward cell over all sequences (all
    sequences advance together, forward and in BPTT) and places their [n, hidden]
    state matrices side by side, so the output is [n, 2*hidden].  A layer of at
    least ``PARALLEL_MIN_STEP_WORK`` work per time step is one tape op that runs the backward
    cell on a worker thread while the calling thread runs the forward one, in both
    passes; a smaller layer is one op per cell and a concatenation.  Both give the
    same bits.  Inverted dropout (training only) follows every layer; its masks are
    drawn sequence by sequence, then layer by layer, as if each sequence ran on its own.
    """

    def __init__(self, input_dim: int, hidden: int, layers: int, dropout: float, rng: np.random.Generator | None):
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

    def weight_matrices(self):  # in parameters() order, which the penalties sum in
        return (p for name, p in self.parameters() if name.endswith((".w_x", ".w_h")))

    def __call__(
        self, x: Tensor, training: bool = False, rng: np.random.Generator | None = None, lengths=None
    ) -> Tensor:
        if x.data.ndim != 2:
            raise ShapeError(f"BiLstm expects [n, d], got {x.shape}")
        if training and self.dropout > 0 and rng is None:
            raise ValueError("training-mode dropout needs an rng")
        lengths = [x.shape[0]] if lengths is None else lengths
        keep = 1.0 - self.dropout if training else 1.0
        draws = [[rng.random((k, self.output_dim)) < keep for _ in self.cells] for k in lengths if keep < 1]
        bounds = _segment_bounds(x, lengths)
        sizes = np.diff(bounds)
        parallel = sizes.sum() / sizes.max() * self.hidden**2 >= PARALLEL_MIN_STEP_WORK
        out = x
        for layer, (fwd, bwd) in enumerate(self.cells):
            if parallel:
                out = _bilstm_layer(fwd, bwd, out, bounds)
            else:
                out = T.concat([fwd.run(out, lengths=lengths), bwd.run(out, reverse=True, lengths=lengths)], axis=1)
            if draws:
                out = out * Tensor(np.concatenate([d[layer] for d in draws]) / keep)
        return out


class BatchNorm:
    """Normalization of each feature column over all rows seen in a batch.

    Training mode normalizes with batch statistics and refreshes the
    running estimates in place; evaluation mode applies them as a fixed
    affine map.
    """

    def __init__(self, features: int):
        self.gamma = Tensor(np.ones(features), requires_grad=True)
        self.beta = Tensor(np.zeros(features), requires_grad=True)
        self.running_mean = np.zeros(features)
        self.running_var = np.ones(features)

    def parameters(self):
        yield "batch_norm.gamma", self.gamma
        yield "batch_norm.beta", self.beta

    def state_arrays(self):
        yield "batch_norm.running_mean", self.running_mean
        yield "batch_norm.running_var", self.running_var

    def __call__(self, x: Tensor, training: bool = False) -> Tensor:
        if x.data.ndim != 2 or x.shape[1] != self.gamma.shape[0]:
            raise ShapeError(f"BatchNorm over {self.gamma.shape[0]} features got {x.shape}")
        gamma, beta, mean, var = self.gamma, self.beta, self.running_mean, self.running_var
        if training:
            mean, var, n = x.data.mean(axis=0), x.data.var(axis=0), x.shape[0]
            unbiased = var * (n / (n - 1)) if n > 1 else var
            np.add((1 - BN_MOMENTUM) * self.running_mean, BN_MOMENTUM * mean, out=self.running_mean)
            np.add((1 - BN_MOMENTUM) * self.running_var, BN_MOMENTUM * unbiased, out=self.running_var)
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        x_hat = (x.data - mean) * inv_std

        def rule(g):
            dgamma, dbeta = (g * x_hat).sum(axis=0), g.sum(axis=0)
            if not training:
                return gamma.data * inv_std * g, dgamma, dbeta
            # Batch statistics depend on x, hence the centering terms.
            return (gamma.data * inv_std / n) * (n * g - dbeta - x_hat * dgamma), dgamma, dbeta

        return T.apply_op((x, gamma, beta), x_hat * gamma.data + beta.data, rule)


class GcnLayer:
    """Single graph convolution: ReLU(normalized_adjacency @ features @ weight)."""

    def __init__(self, input_dim: int, classes: int, rng: np.random.Generator | None):
        self.weight = Tensor(orthogonal_init(input_dim, classes, rng), requires_grad=True)

    def parameters(self):
        yield "gcn.weight", self.weight

    def __call__(self, features: Tensor, *adjs: np.ndarray) -> Tensor:
        """Class scores [N, C]: one op for every record's A_b @ F_b, then one @ W and one ReLU."""
        adjs = [np.asarray(a, dtype=np.float64) for a in adjs]
        if any(a.ndim != 2 or a.shape[0] != a.shape[1] for a in adjs):
            raise ShapeError(f"adjacencies {[a.shape for a in adjs]} are not all square")
        bounds = _segment_bounds(features, [a.shape[0] for a in adjs])
        blocks = list(zip(adjs, bounds, bounds[1:]))

        def rule(g):
            return (np.concatenate([a.T @ g[start:stop] for a, start, stop in blocks]),)

        mixed = np.concatenate([a @ features.data[start:stop] for a, start, stop in blocks])
        return T.relu(T.apply_op((features,), mixed, rule) @ self.weight)


def _per_record(parents, lengths, out: np.ndarray, rule) -> Tensor:
    # A pooling op over [B, C] results: [C] when lengths is None; the rule always gets [B, C].
    return T.apply_op(parents, out if lengths is not None else out[0], lambda g: rule(g.reshape(out.shape)))


def _padded(z: Tensor, sizes: np.ndarray, width: int, fill: float) -> tuple[np.ndarray, np.ndarray]:
    """[B, width, C] block whose row b holds record b's rows of z [N, C], then ``fill``; and its real-row mask."""
    real = np.arange(width) < sizes[:, None]
    block = np.full((len(sizes), width, z.shape[1]), fill)
    block[real] = z.data
    return block, real


def percentile_pool(z: Tensor, p: float, lengths=None) -> Tensor:
    """Nearest-rank percentile of each column of each record's rows of z [N, C]: [B, C], or [C].

    The 1-based rank is ceil(p/100 * n_b), at least 1: p=100 is max pooling, p=50 the
    median for odd n_b.  Each pooled value's gradient flows to the selected element's
    row, the lowest-index one among equal values.  One sort covers the NaN-padded batch:
    NaN sorts after every number, +inf included, and equals nothing, so each record sorts as if alone.
    """
    if not 0 <= p <= 100:
        raise ValueError(f"percentile p={p} outside [0, 100]")
    sizes = np.diff(_segment_bounds(z, lengths))
    block, _ = _padded(z, sizes, sizes.max(), np.nan)
    # p*n first: exact in float64 for the supported range, so integer-valued ranks never round up.
    ranks = np.maximum(1, np.ceil(p * sizes / 100.0)).astype(np.intp)
    values = np.sort(block, axis=1)[np.arange(len(sizes)), ranks - 1]
    selected = np.argmax(block == values[:, None], axis=1)  # [B, C] row within each record

    def rule(g):
        gz = np.zeros_like(z.data)
        gz[(np.cumsum(sizes) - sizes)[:, None] + selected, np.arange(z.shape[1])] = g
        return (gz,)

    return _per_record((z,), lengths, values, rule)


def average_pool(z: Tensor, lengths=None) -> Tensor:
    """Column means of each record's rows of z [N, C]: [B, C], or [C]; gradient 1/n_b per row."""
    bounds = _segment_bounds(z, lengths)
    sizes = np.diff(bounds)[:, None]

    def rule(g):
        return (np.repeat(g / sizes, sizes[:, 0], axis=0),)

    return _per_record((z,), lengths, np.add.reduceat(z.data, bounds[:-1]) / sizes, rule)


class FcHead:
    """Pooling baseline: flatten zero-padded features and map to logits."""

    def __init__(self, max_len: int, classes: int, rng: np.random.Generator | None):
        self.max_len = max_len
        self.weight = Tensor(orthogonal_init(max_len * classes, classes, rng), requires_grad=True)
        self.bias = Tensor(np.zeros(classes), requires_grad=True)

    def parameters(self):
        yield "fc_head.weight", self.weight
        yield "fc_head.bias", self.bias

    def __call__(self, z: Tensor, lengths=None) -> Tensor:
        """Logits per record of z [N, C]: [B, C], or [C]."""
        sizes = np.diff(_segment_bounds(z, lengths))
        if sizes.max() > self.max_len:
            raise ShapeError(f"{sizes.max()} rows exceed fc head capacity {self.max_len}")
        w = self.weight.data
        block, real = _padded(z, sizes, self.max_len, 0.0)
        flat = block.reshape(len(sizes), -1)

        def rule(g):
            return (g @ w.T).reshape(block.shape)[real], flat.T @ g, g.sum(axis=0)

        return _per_record((z, self.weight, self.bias), lengths, flat @ w + self.bias.data, rule)


def orthogonal_init(rows: int, cols: int, rng: np.random.Generator | None) -> np.ndarray:
    """Random matrix with orthonormal columns (rows, if the matrix is wide).

    Draws a Gaussian matrix and keeps the orthogonal factor of its thin
    SVD; retries with a fresh sample in the unlikely event the SVD fails
    to converge.  Without an rng it draws nothing and returns zeros, for
    a caller that fills them (a checkpoint's arrays).
    """
    if rows < 1 or cols < 1:
        raise ValueError(f"invalid shape ({rows}, {cols})")
    if rng is None:
        return np.zeros((rows, cols))
    for _ in range(SVD_TRIES):
        m = rng.standard_normal((rows, cols))
        try:
            u, _, vt = np.linalg.svd(m, full_matrices=False)
        except np.linalg.LinAlgError:
            continue
        return u if rows >= cols else vt
    raise RuntimeError(f"SVD failed {SVD_TRIES} times for shape ({rows}, {cols})")

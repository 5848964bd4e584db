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
# Most rows in one product of a cell's input projection, which runs on the thread that walks the cell;
# each block gathers its rows of x in the walk's time-major order, the one copy of inputs a walk makes.
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
    tape op for a packed batch of sequences; its walks are a ``_CellPass``, time-major
    and in place, which ``BiLstm`` also runs two at a time.
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

    def run(self, x: Tensor, reverse: bool = False, lengths=None, schedule: _Schedule | None = None) -> Tensor:
        """Hidden states [n, hidden] for the rows of x [n, input_dim], in row order.

        ``lengths`` splits the rows into consecutive sequences (default: one),
        each run from a zero state, back to front if ``reverse``.  ``BiLstm``
        passes the ``schedule`` it built once for all its walks over x in place
        of ``lengths``.
        """
        schedule = _Schedule(_segment_bounds(x, lengths)) if schedule is None else schedule
        walk = _CellPass(self, x.data, schedule, reverse, np.empty((x.shape[0], self.hidden)))
        walk.forward()

        def rule(grad):
            return walk.backward(grad, *walk.backward_arrays())

        return T.apply_op((x, *(p for _, p in self.parameters())), walk.hs, rule)


def _stacked(weights: dict[str, Tensor]) -> np.ndarray:
    """One weight set of a cell with its gates side by side, in GATES order."""
    return np.concatenate([weights[gate].data for gate in LstmCell.GATES], axis=1)


class _Schedule:
    """The time-major order of a batch's packed sequences, which every walk over the batch shares.

    Longest sequence first, so the k_t sequences running at step t are a prefix of that
    order and step t + 1's rows continue the first k_{t+1} of step t's; step t's rows are
    the slice ``offsets[t]:offsets[t + 1]``.  ``rows`` maps each time-major row to its
    packed row walking forward; ``reverse_rows`` starts at each sequence's last row and
    walks back.
    """

    def __init__(self, bounds: list[int]):
        self.bounds = bounds
        sizes = np.diff(bounds)
        order = np.argsort(-sizes, kind="stable")
        sizes = sizes[order]
        running = len(sizes) - np.searchsorted(sizes[::-1], np.arange(sizes[0]), side="right")  # k_t
        offsets = np.concatenate([[0], np.cumsum(running)])
        step = np.repeat(np.arange(len(running)), running)  # of each time-major row
        rank = np.arange(bounds[-1]) - offsets[step]  # of its sequence, in that order
        starts = np.asarray(bounds)
        self.rows = starts[:-1][order][rank] + step
        self.reverse_rows = (starts[1:] - 1)[order][rank] - step
        self.offsets = offsets.tolist()


class _CellPass:
    """One LstmCell's walks over packed sequences: the forward, then BPTT when a tape records the run.

    Both walks are time-major (the ``batch_sizes`` layout of packed sequences) in the
    order of the batch's ``_Schedule``: at step t the k_t sequences still running advance
    together, longest first, and step t's rows of ``acts``, ``cs`` and the recorded states
    are the one slice ``offsets[t]:offsets[t + 1]``; ``rows`` maps each time-major row to
    its packed row in the pass's direction.  The gate blocks sit side by side.
    The forward first fills acts with the input projections, each block of at most
    ``PROJECTION_ROWS`` rows gathering its rows of x in time-major order.  The blocks are
    near-equal, so a block has one row only when n does: NumPy multiplies one row with
    gemv, whose sums may round other than gemm's, while blocks of two or more rows give
    the bits of one whole product.  Each step then takes one ``[k_t, hidden]`` product
    and does its gate math in place on its slice, with no fancy indexing; the walk
    scatters its states to ``hs`` once.  Recording, acts keeps the gate values i, f, o, g
    and cs the cell states; under ``no_grad`` each step's states overwrite its spent
    input-gate columns, so a prediction holds no n-row array but acts.  BPTT walks the
    same slices in reverse with one ``[k_t, 4 * hidden]`` product each, overwriting the
    gate values with the pre-activations' gradients, and scatters those once to packed
    row order, so the weight gradients sum their rows in packed order.

    Every array of n rows or of a weight's size is allocated by the thread that builds
    the pass or asks for ``backward_arrays``; the walks fill them in place and allocate
    one step's rows at most.  So either walk may run on the worker thread: glibc keeps
    what a thread frees in that thread's own arena, which thus stays one step's rows
    small, and the projection's blocks keep the worker's products as small (see
    ``PROJECTION_ROWS``).  Allocating the packed gradients on the walking thread instead
    raised a paper-size training run's peak RSS by 1.1-5.3 % (three 15 s runs each).
    """

    def __init__(self, cell: LstmCell, x: np.ndarray, schedule: _Schedule, reverse: bool, hs: np.ndarray):
        self.cell, self.x, self.hs = cell, x, hs  # hs [n, hidden] receives the states, in packed order; may be a view
        n, hid = len(x), cell.hidden
        # The input projections, then (when recording) the gate values i, f, o, g: the forward fills it.
        self.acts = np.empty((n, 4 * hid))
        recording = T.recording()
        self.cs = np.empty((n, hid)) if recording else None  # cell states; the forward fills it
        self.h = np.empty((n, hid)) if recording else None  # hidden states, until the forward scatters them
        # The walks' own copies of the weights, held only while a walk runs: backward_arrays stacks them again.
        # Keeping them from the forward to BPTT gained no speed in paper-size training (4,290-4,565 against
        # 4,492-4,534 tok/s, three 15 s runs each on 2 cores with OpenBLAS) and raised peak RSS to 424.4-446.8
        # from 418.7-420.6 MB, two runs past 5 %: every recorded pass would hold its stacks until BPTT.
        self.w_x, self.w_h, self.bias = _stacked(cell.w_x), _stacked(cell.w_h), _stacked(cell.bias)
        self.scale = np.repeat([0.5, 0.5, 0.5, 1.0], hid)  # sigmoid for i, f, o; tanh for g
        self.direction = -1 if reverse else 1
        self.rows, self.offsets = schedule.reverse_rows if reverse else schedule.rows, schedule.offsets

    def forward(self) -> None:
        """Project the inputs into acts; fill hs, and when recording the gate values (over acts) and cs."""
        hid, acts, cs, rows, scale, w_h = self.cell.hidden, self.acts, self.cs, self.rows, self.scale, self.w_h
        shift, n = 1.0 - scale, len(acts)
        blocks = -(-n // PROJECTION_ROWS)  # block k: rows k * n // blocks up to (k + 1) * n // blocks
        for start, stop in itertools.pairwise(k * n // blocks for k in range(blocks + 1)):
            np.matmul(self.x[rows[start:stop]], self.w_x, out=acts[start:stop])
            acts[start:stop] += self.bias
        states = acts[:, :hid] if cs is None else self.h
        # h and c: the states before step 0, zero; then step t's, of which step t + 1 reads a prefix.
        h, c = np.zeros((2, self.offsets[1], hid))
        recurrent = np.empty((self.offsets[1], 4 * hid))
        for a, b in itertools.pairwise(self.offsets):
            k = b - a
            z = acts[a:b]
            z += np.matmul(h[:k], w_h, out=recurrent[:k])
            z *= scale
            np.tanh(z, out=z)
            z *= scale
            z += shift
            i, f, o, g = (z[:, j * hid : (j + 1) * hid] for j in range(4))
            h, c_t = states[a:b], c[:k] if cs is None else cs[a:b]
            np.multiply(i, g, out=h)  # h holds i * g until c is done; under no_grad h is i
            np.multiply(f, c[:k], out=c_t)
            c_t += h
            np.tanh(c_t, out=h)
            h *= o
            c = c_t
        self.hs[rows] = states
        self.h = self.w_x = self.w_h = self.bias = None

    def backward_arrays(self) -> tuple[np.ndarray, ...]:
        """Stack the weights again; return empty dz, dx, dw_x, dw_h and db for ``backward`` to fill."""
        self.w_x, self.w_h = _stacked(self.cell.w_x), _stacked(self.cell.w_h)
        (d, width), hid, n = self.w_x.shape, self.cell.hidden, len(self.x)
        return tuple(np.empty(shape) for shape in ((n, width), (n, d), (d, width), (hid, width), (1, width)))

    def backward(self, grad, dz, dx, dw_x, dw_h, db) -> tuple:
        """BPTT for the gradient [n, hidden] of hs: dx, then the 12 per-gate gradients in parameters() order.

        dz receives the pre-activations' gradients in packed row order.  Runs once: the pass
        overwrites its gate values with those gradients, then drops them.
        """
        self._walk_back(grad)  # its views of acts end with it, so acts goes before the products below
        dz[self.rows] = self.acts
        hid, h_prev = self.cell.hidden, self.cs  # the cell states are spent: hold the hidden states before each row
        self.acts = self.cs = None
        if self.direction == 1:
            h_prev[1:] = self.hs[:-1]
        else:
            h_prev[:-1] = self.hs[1:]
        h_prev[self.rows[: self.offsets[1]]] = 0.0  # each sequence's first row in run order
        np.matmul(self.x.T, dz, out=dw_x)
        np.matmul(h_prev.T, dz, out=dw_h)
        np.sum(dz, axis=0, keepdims=True, out=db)
        np.matmul(dz, self.w_x.T, out=dx)
        self.w_x = self.w_h = None
        return (dx, *(d[:, k * hid : (k + 1) * hid] for k in range(4) for d in (dw_x, dw_h, db)))

    def _walk_back(self, grad) -> None:
        """Overwrite the gate values in acts with the pre-activations' gradients, step by step in reverse."""
        hid, acts, cs, offsets, rows, scale = self.cell.hidden, self.acts, self.cs, self.offsets, self.rows, self.scale
        shift, top, w_h_t = 1.0 - scale, scale * scale, self.w_h.T
        # dh_next and dc_next carry the gradients to the states before a step, zero past a sequence's end;
        # c_prev is zero before step 0.
        dh_next, dc_next, dh, dc, tanh_c, zeros = np.zeros((6, offsets[1], hid))
        products = np.empty((offsets[1], 4 * hid))
        for t in range(len(offsets) - 2, -1, -1):
            a, b = offsets[t], offsets[t + 1]
            k, z = b - a, acts[a:b]
            i, f, o, g = (z[:, j * hid : (j + 1) * hid] for j in range(4))
            c_prev = cs[offsets[t - 1] : offsets[t - 1] + k] if t else zeros[:k]
            tc, dh_t, dc_t, p = tanh_c[:k], dh[:k], dc[:k], products[:k]
            np.tanh(cs[a:b], out=tc)
            np.add(grad[rows[a:b]], dh_next[:k], out=dh_t)
            np.multiply(tc, tc, out=dc_t)  # dc = dh * o * (1 - tanh(c)^2) + dc_next
            np.subtract(1.0, dc_t, out=dc_t)
            dc_t *= o
            dc_t *= dh_t
            dc_t += dc_next[:k]
            for j, (left, right) in enumerate(((dc_t, g), (dc_t, c_prev), (dh_t, tc), (dc_t, i))):
                np.multiply(left, right, out=p[:, j * hid : (j + 1) * hid])
            np.multiply(dc_t, f, out=dc_next[:k])  # before z, of which f is a view, turns into dz
            # d(activation)/d(pre-activation), a(1 - a) for i, f, o and 1 - g^2 for g, times the products.
            z -= shift
            z *= z
            np.subtract(top, z, out=z)
            z *= p
            np.matmul(z, w_h_t, out=dh_next[:k])


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


def _bilstm_layer(fwd: LstmCell, bwd: LstmCell, x: Tensor, schedule: _Schedule) -> Tensor:
    """Both cells' states side by side, [n, 2 * hidden], as one tape op; bwd's walks run on the worker thread."""
    hid = fwd.hidden
    out = np.empty((x.shape[0], 2 * hid))
    walks = _CellPass(fwd, x.data, schedule, False, out[:, :hid]), _CellPass(bwd, x.data, schedule, True, out[:, hid:])
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
    same bits, and every walk of a call follows the one ``_Schedule`` it builds from
    ``lengths``.  Inverted dropout (training only) follows every layer; its masks are
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
        schedule = _Schedule(_segment_bounds(x, lengths))  # every walk of every layer shares it
        steps = len(schedule.offsets) - 1
        parallel = x.shape[0] / steps * self.hidden**2 >= PARALLEL_MIN_STEP_WORK
        out = x
        for layer, (fwd, bwd) in enumerate(self.cells):
            if parallel:
                out = _bilstm_layer(fwd, bwd, out, schedule)
            else:
                out = T.concat([fwd.run(out, schedule=schedule), bwd.run(out, reverse=True, schedule=schedule)], axis=1)
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

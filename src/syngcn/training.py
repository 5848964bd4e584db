"""Model assembly, regularized loss, Adam, and the training loop.

The loss is mean cross-entropy plus two penalties over the Bi-LSTM and
GCN weight matrices: an orthogonality term ||W'W - I||_F^2 (with the
identity sized to the smaller dimension for rectangular W) and a plain
L2 term.  A decoupled weight-decay knob lives in the optimizer; both
default to 1e-8 and are nearly redundant, but stay independently
configurable.

Checkpoints are a small versioned container: a JSON header (config,
vocabulary, array manifest) followed by the raw float64 parameter
bytes.  The byte layout is fully deterministic, so identical runs
produce identical files.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import struct
import sys
from dataclasses import asdict, dataclass, fields, replace
from typing import Callable

import numpy as np

from . import tensor as T
from .corpus import (ADJACENCY_MODES, LABEL_SETS, MAX_TOKENS, CorpusError, Record, Vocabulary, build_graph,
                     build_vocab, check_records, label_names)
from .files import atomic_open, parse_json, write_lines
from .layers import (
    BatchNorm,
    BiLstm,
    EmbeddingTable,
    FcHead,
    GcnLayer,
    LstmCell,
    average_pool,
    on_two_threads,
    percentile_pool,
)
from .metrics import EvalReport, evaluate
from .tensor import Tensor


class ConfigError(ValueError):
    """Invalid or inconsistent training configuration."""


class CheckpointError(RuntimeError):
    """Unreadable, corrupt, or incompatible checkpoint file."""


class OptimizationError(RuntimeError):
    """Optimizer aborted (e.g. a non-finite gradient)."""


class ScoreError(ValueError):
    """A model's weights give a record non-finite class scores."""


POOLING_MODES = ("percentile", "average", "fc")

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # moment decay rates and the update's denominator floor
ADAM_BLOCK = 32768  # floats per slice of an Adam update: 256 KiB, so a slice's temporaries stay in cache
# Floats from which Adam splits its slices between two threads; below it, one flat update on the calling
# thread.  On 2 cores (one BLAS thread) a split step took 1.5-1.7x the one-thread time at 11 K floats,
# 1.0-1.1x at 32-48 K, 0.84-0.97x at 64-98 K and 0.90-0.95x at 131 K: the cut leaves a 16/16 model
# (11,056 floats) on the calling thread.
ADAM_PARALLEL_MIN = 4 * ADAM_BLOCK


def _parse_bool(raw: str) -> bool:
    if raw.lower() not in ("true", "false", "1", "0"):
        raise ValueError(raw)
    return raw.lower() in ("true", "1")


# Per declared field type: the value types accepted (bool only for bool
# fields) and the parser of a --set string.
_FIELD_TYPES = {"bool": bool, "int": int, "float": (int, float), "str": str}
_PARSERS = {"bool": _parse_bool, "int": int, "float": float, "str": str}
# Each numeric field's smallest value, and the values a choice field takes.
_LEAST = {"embedding_size": 1, "hidden_neurons": 1, "lstm_layers": 1, "batch_size": 1, "epochs": 1, "max_len": 1,
          "min_count": 1, "seed": 0, "dropout": 0, "pooling_p": 0, "lambda_orth": 0, "lambda_l2": 0, "weight_decay": 0}
_CHOICES = {"pooling": POOLING_MODES, "adjacency_mode": ADJACENCY_MODES, "classes": tuple(LABEL_SETS)}


@dataclass(frozen=True)
class TrainConfig:
    """Hyper-parameters; the defaults are the published configuration."""

    embedding_size: int = 300
    hidden_neurons: int = 180
    lstm_layers: int = 2
    dropout: float = 0.5
    batch_norm: bool = True
    pooling: str = "percentile"
    pooling_p: float = 50.0
    lambda_orth: float = 1e-8
    lambda_l2: float = 1e-8
    batch_size: int = 32
    learning_rate: float = 0.001
    weight_decay: float = 1e-8
    max_len: int = MAX_TOKENS
    classes: int = 7
    adjacency_mode: str = "syntax"
    epochs: int = 100
    min_count: int = 1
    seed: int = 42

    def __post_init__(self):
        for field in fields(self):
            name, kind, value = field.name, field.type, getattr(self, field.name)
            typed = isinstance(value, _FIELD_TYPES[kind]) and isinstance(value, bool) == (kind == "bool")
            if not typed or (kind == "float" and not math.isfinite(value)):
                wanted = "finite float" if kind == "float" else kind
                raise ConfigError(f"{name} expects {wanted}, got {value!r}")
            if name in _LEAST and value < _LEAST[name]:
                raise ConfigError(f"{name} must be at least {_LEAST[name]}, got {value}")
            if name in _CHOICES and value not in _CHOICES[name]:
                raise ConfigError(f"{name} must be one of {_CHOICES[name]}, got {value!r}")
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be above 0, got {self.learning_rate}")
        if self.dropout >= 1:
            raise ConfigError(f"dropout must be below 1, got {self.dropout}")
        if self.pooling_p > 100:
            raise ConfigError(f"pooling_p must be at most 100, got {self.pooling_p}")

    @property
    def gcn_shape(self) -> tuple[int, int]:
        return (2 * self.hidden_neurons, self.classes)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "TrainConfig":
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        if unknown := set(data) - set(cls.__dataclass_fields__):
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        return cls(**data)

    def with_overrides(self, overrides: dict[str, str]) -> "TrainConfig":
        """Apply key=value string overrides, coercing to the field types."""
        parsed = {}
        for key, raw in overrides.items():
            if key not in self.__dataclass_fields__:
                raise ConfigError(f"unknown config field {key!r}")
            kind = self.__dataclass_fields__[key].type
            try:
                parsed[key] = _PARSERS[kind](raw)
            except ValueError:
                raise ConfigError(f"{key} expects {kind}, got {raw!r}") from None
        return replace(self, **parsed)


def load_config(path) -> TrainConfig:
    """Read a JSON config file whose keys mirror TrainConfig fields."""
    with open(path, "rb") as fh:
        data = parse_json(fh.read(), ConfigError, str(path))
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return TrainConfig.from_dict(data)


# ---------------------------------------------------------------------------
# model
# ---------------------------------------------------------------------------


class Model:
    """Embedding -> stacked Bi-LSTM -> batch norm -> GCN -> pooling head.

    Without ``fill`` the weights are drawn from ``rng`` (default: seeded with ``config.seed``):
    the uniform embedding table, then one Gaussian and SVD per weight matrix in ``state_shapes``
    order.  ``fill(name, array)`` draws nothing: it writes each of ``state_arrays()`` in place,
    in order, over zeros (ones for the running variance).
    """

    def __init__(self, config: TrainConfig, vocab: Vocabulary, rng: np.random.Generator | None = None,
                 fill: Callable[[str, np.ndarray], None] | None = None):
        if rng is None and fill is None:
            rng = np.random.default_rng(config.seed)
        self.config = config
        self.vocab = vocab
        try:
            # Ask for the whole state once, untouched, so a size the machine cannot hold fails
            # before layer after small layer is built; past intp, NumPy raises ValueError instead.
            np.empty(min(state_bytes(config, len(vocab)), np.iinfo(np.intp).max), dtype=np.uint8)
            self.embedding = EmbeddingTable(len(vocab), config.embedding_size, rng)
            self.bilstm = BiLstm(
                config.embedding_size, config.hidden_neurons, config.lstm_layers, config.dropout, rng
            )
            self.batch_norm = BatchNorm(self.bilstm.output_dim) if config.batch_norm else None
            self.gcn = GcnLayer(self.bilstm.output_dim, config.classes, rng)
            self.fc_head = FcHead(config.max_len, config.classes, rng) if config.pooling == "fc" else None
        except MemoryError:
            fields = ("embedding_size", "hidden_neurons", "lstm_layers", "classes", "max_len", "pooling")
            sizes = ", ".join(f"{f}={getattr(config, f)}" for f in fields)
            raise ConfigError(
                f"cannot allocate the model: {sizes} and {len(vocab)} words"
                f" imply {state_bytes(config, len(vocab)):,} bytes of weights"
            ) from None
        if fill is not None:
            for name, arr in self.state_arrays():
                fill(name, arr)

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        layers = (self.embedding, self.bilstm, self.batch_norm, self.gcn, self.fc_head)
        return [named for layer in layers if layer is not None for named in layer.parameters()]

    def penalized_weights(self) -> list[Tensor]:
        """Weight matrices covered by the orthogonality and L2 penalties."""
        return list(self.bilstm.weight_matrices()) + [self.gcn.weight]

    def zero_grad(self) -> None:
        for _, p in self.named_parameters():
            p.zero_grad()

    def _pool(self, z: Tensor, lengths: list[int]) -> Tensor:
        if self.config.pooling == "percentile":
            return percentile_pool(z, self.config.pooling_p, lengths)
        if self.config.pooling == "average":
            return average_pool(z, lengths)
        return self.fc_head(z, lengths)

    def forward_batch(
        self,
        encoded: list[tuple[np.ndarray, np.ndarray]],
        training: bool = False,
        rng: np.random.Generator | None = None,
    ) -> Tensor:
        """Logits [B, C] for B (token_ids, normalized_adjacency) pairs, run as one packed batch."""
        lengths = [len(token_ids) for token_ids, _ in encoded]
        x = self.embedding(np.concatenate([token_ids for token_ids, _ in encoded]))
        features = self.bilstm(x, training=training, rng=rng, lengths=lengths)
        if self.batch_norm is not None:
            features = self.batch_norm(features, training=training)
        return self._pool(self.gcn(features, *(adj for _, adj in encoded)), lengths)

    def encode(self, record: Record) -> tuple[np.ndarray, np.ndarray]:
        """Token ids and Â of one record; an over-long or invalid one is a CorpusError.  A head cycle is
        left to check_records, which every list entry point calls: per record it costs about half an encode."""
        if len(record) > self.config.max_len:
            raise CorpusError(f"record: {len(record)} tokens exceed max_len {self.config.max_len}")
        graph = build_graph(record, self.config.adjacency_mode)
        return self.vocab.encode(record.tokens), graph

    @np.errstate(over="ignore", invalid="ignore", divide="ignore")  # a non-finite row ends in a ScoreError
    def probabilities(self, encoded: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
        """Class probability rows [len(encoded), C], batch_size encoded records at a time."""
        probs, size = np.zeros((len(encoded), self.config.classes)), self.config.batch_size
        with T.no_grad():
            for start in range(0, len(encoded), size):
                probs[start : start + size] = T.softmax(self.forward_batch(encoded[start : start + size]).data)
        bad = ~np.isfinite(probs).all(axis=1)
        if bad.any():
            raise ScoreError(f"record {int(bad.argmax())}: non-finite class scores")
        return probs

    def predict(self, records: list[Record]) -> tuple[list[int], np.ndarray]:
        """Predicted class ids and the full probability rows; a malformed record is a CorpusError naming ``record i``."""
        check_records(records, max_len=self.config.max_len)
        probs = self.probabilities([self.encode(rec) for rec in records])
        return probs.argmax(axis=1).tolist(), probs

    def state_arrays(self) -> list[tuple[str, np.ndarray]]:
        arrays = [(name, p.data) for name, p in self.named_parameters()]
        if self.batch_norm is not None:
            arrays += list(self.batch_norm.state_arrays())
        return arrays

    def snapshot(self) -> dict[str, np.ndarray]:
        return {name: arr.copy() for name, arr in self.state_arrays()}

    def load_snapshot(self, state: dict[str, np.ndarray]) -> None:
        """Copy each of ``state``'s arrays into the model's own, in place."""
        for name, arr in self.state_arrays():
            arr[...] = state[name]


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------


def orthogonality_penalty(*weights: Tensor) -> Tensor:
    """Sum over the weights of ||gram(W) - I||_F^2, each gram on W's smaller side, as one tape op.

    With D = gram - I (symmetric), the gradient is 4 W D for a tall W
    and 4 D W for a wide one.
    """
    ws = [w.data for w in weights]  # the rule runs once, before Adam's step, and backward then drops it
    tall = [w.shape[0] >= w.shape[1] for w in ws]
    diffs = [w.T @ w if t else w @ w.T for w, t in zip(ws, tall)]
    for d in diffs:  # minus I on the diagonal alone: the same bits as subtracting np.eye, since x - 0.0 == x
        d.flat[:: len(d) + 1] -= 1.0

    def rule(g):
        return tuple(4.0 * g * (w @ d if t else d @ w) for w, t, d in zip(ws, tall, diffs))

    return T.apply_op(weights, np.asarray(sum(float((d * d).sum()) for d in diffs)), rule)


def l2_penalty(*weights: Tensor) -> Tensor:
    """Sum of the squared entries of the weights, as one tape op."""
    arrays = [w.data for w in weights]

    def rule(g):
        return tuple(2.0 * g * a for a in arrays)

    return T.apply_op(weights, np.asarray(sum(float((a * a).sum()) for a in arrays)), rule)


def total_loss(
    logits: Tensor,
    labels: list[int],
    weights: list[Tensor],
    lambda_orth: float,
    lambda_l2: float,
) -> Tensor:
    """Mean cross-entropy of [B, C] logits against B labels, plus both penalties, each times its lambda (0 adds 0)."""
    if logits.data.ndim != 2 or logits.shape[0] != len(labels) or not len(labels):
        raise ValueError("batch logits and labels must align and be non-empty")
    ce = T.softmax_cross_entropy(logits, labels) * (1.0 / len(labels))
    return ce + orthogonality_penalty(*weights) * lambda_orth + l2_penalty(*weights) * lambda_l2


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


class Adam:
    """Adam with decoupled weight decay; ``step`` writes into no array that anything but its parameter holds.

    Each parameter's moments ``m`` and ``v`` are views of two flat arrays.  Below ``ADAM_PARALLEL_MIN`` floats
    ``step`` updates the whole model as one flat array: one ``concatenate`` each gathers the parameters and the
    gradients, one check finds a non-finite gradient, and each parameter's floats are copied back.  From that
    cut on it walks each parameter in slices along axis 0 of about ``ADAM_BLOCK`` floats, so every temporary
    of the update is one slice long and stays in cache.  Either way it updates the moments in place and
    computes ``p * decay - lr * m_hat / (sqrt(v_hat) + eps)``, in that operation order, into ``p.data`` itself
    when that array owns its memory and only ``p`` holds it, else into a new array it binds to ``p.data``.
    (A new table-sized array every step left glibc to fit it among the step's other arrays: paper-size
    training peaked at 418-422 or at 439-446 MB from run to run, 15 s runs on 2 cores; writing in place, at
    395-400 MB.)  In slices, the worker thread of ``on_two_threads`` updates the slices past half the floats
    while the calling thread updates the rest; arrays are allocated, and each ``p.data`` bound, on the calling
    thread.  A non-finite gradient in any parameter raises before any parameter, ``m``, ``v`` or the step
    count is written.
    """

    def __init__(self, named_params: list[tuple[str, Tensor]], lr: float = 0.001, weight_decay: float = 0.0):
        self.named_params = list(named_params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self.bounds = np.cumsum([0, *(p.data.size for _, p in self.named_params)]).tolist()  # in the flat arrays
        self.moments = np.zeros((2, self.bounds[-1]))  # m, then v, of every parameter in order
        spans = list(zip(self.named_params, self.bounds, self.bounds[1:]))
        self.m, self.v = ({name: flat[a:b].reshape(p.shape) for (name, p), a, b in spans} for flat in self.moments)

    def step(self) -> None:
        params = self.named_params
        grads = [np.broadcast_to(0.0, p.shape) if p.grad is None else p.grad for _, p in params]
        whole = self.bounds[-1] < ADAM_PARALLEL_MIN  # one flat update, else slices
        flat_g = np.concatenate(grads, axis=None) if whole else None
        if not (np.isfinite(flat_g).all() if whole else all(np.isfinite(g).all() for g in grads)):
            bad = next(name for (name, _), g in zip(params, grads) if not np.isfinite(g).all())
            raise OptimizationError(f"non-finite gradient in {bad}")
        self.t += 1
        c1, c2 = 1 - ADAM_BETA1**self.t, 1 - ADAM_BETA2**self.t
        decay = 1.0 - self.lr * self.weight_decay  # exactly 1.0 without weight decay

        def update(old, new, m, v, g):  # one slice of a parameter, or the whole flat model
            m *= ADAM_BETA1
            m += (1 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1 - ADAM_BETA2) * g * g
            np.multiply(old, decay, out=new)
            new -= self.lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)

        alone = Tensor(np.empty(0))  # sys.getrefcount(alone.data) is that of a p.data only p holds
        news = []  # the array each update goes to
        for _, p in params:
            only_p = sys.getrefcount(p.data) <= sys.getrefcount(alone.data) and p.data.base is None
            news.append(p.data if only_p and p.data.flags.writeable else np.empty_like(p.data))
        if whole:
            flat = np.concatenate([p.data for _, p in params], axis=None)
            update(flat, flat, *self.moments, flat_g)
            for new, a, b in zip(news, self.bounds, self.bounds[1:]):
                new[...] = flat[a:b].reshape(new.shape)
        else:
            slices = []  # (old, new, m, v, g) per slice of every parameter
            for (name, p), new, g in zip(params, news, grads):
                arrays = p.data, new, self.m[name], self.v[name], g
                rows = ADAM_BLOCK * len(p.data) // p.data.size or 1
                if rows >= len(p.data):  # one slice: the whole arrays, with no views to make
                    slices.append(arrays)
                else:
                    slices += [tuple(a[start : start + rows] for a in arrays) for start in range(0, len(p.data), rows)]

            def run(part):
                for arrays in part:
                    update(*arrays)

            floats = np.cumsum([0, *(arrays[0].size for arrays in slices)])
            cut = int(np.searchsorted(floats, floats[-1] / 2))
            on_two_threads(lambda: run(slices[:cut]), lambda: run(slices[cut:]))
        for (_, p), new in zip(params, news):
            p.data = new


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


@dataclass
class TrainResult:
    model: Model
    history: list[dict]
    best_epoch: int
    best_dev: EvalReport


def _epoch_entry(epoch: int, loss: float, train_report: EvalReport, dev_report: EvalReport) -> dict:
    return {
        "epoch": epoch,
        "train_loss": loss,
        "train_accuracy": train_report.accuracy,
        "train_micro_f": train_report.micro_f,
        "train_macro_f": train_report.macro_f,
        "dev_micro_f": dev_report.micro_f,
        "dev_macro_f": dev_report.macro_f,
        "dev_micro_precision": dev_report.micro_precision,
        "dev_macro_precision": dev_report.macro_precision,
        "dev_micro_recall": dev_report.micro_recall,
        "dev_macro_recall": dev_report.macro_recall,
    }


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # divergence ends in an OptimizationError
def train(
    config: TrainConfig,
    train_records: list[Record],
    dev_records: list[Record],
    log=None,
) -> TrainResult:
    """Mini-batch training with per-epoch dev scoring.

    The vocabulary comes from the training split only.  Batches are
    reshuffled every epoch from the seeded generator, so the whole run
    (and therefore the history and checkpoint) is reproducible from
    (seed, config, corpus).  The returned model carries the weights of
    the best dev-macro-F epoch.
    """
    if not train_records or not dev_records:
        raise ConfigError("training and dev corpora must be non-empty")
    records = train_records + dev_records
    check_records(records, classes=config.classes, max_len=config.max_len)
    for i, rec in enumerate(records):
        if rec.label is None:
            raise ConfigError(f"record {i} has no label")

    vocab = build_vocab(train_records, min_count=config.min_count)
    rng = np.random.default_rng(config.seed)
    model = Model(config, vocab, rng)
    optimizer = Adam(model.named_parameters(), lr=config.learning_rate, weight_decay=config.weight_decay)

    encoded = [model.encode(rec) for rec in train_records]
    dev_encoded = [model.encode(rec) for rec in dev_records]
    labels = [rec.label for rec in train_records]
    gold_dev = [rec.label for rec in dev_records]

    history: list[dict] = []
    best_state: dict[str, np.ndarray] | None = None
    best_epoch = -1
    best_dev: EvalReport | None = None

    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(len(train_records))
        epoch_loss = 0.0
        for start in range(0, len(order), config.batch_size):
            idx = order[start : start + config.batch_size]
            where = f"epoch {epoch}, batch {start // config.batch_size + 1}"
            model.zero_grad()
            logits = model.forward_batch([encoded[i] for i in idx], training=True, rng=rng)
            if not np.isfinite(logits.data).all():
                raise OptimizationError(f"{where}: non-finite logits")
            loss = total_loss(
                logits,
                [labels[i] for i in idx],
                model.penalized_weights(),
                config.lambda_orth,
                config.lambda_l2,
            )
            T.backward(loss)
            try:
                optimizer.step()
            except OptimizationError as exc:
                raise OptimizationError(f"{where}: {exc}") from None
            epoch_loss += loss.item() * len(idx)
        epoch_loss /= len(train_records)

        try:
            train_probs, dev_probs = model.probabilities(encoded), model.probabilities(dev_encoded)
        except ScoreError:
            raise OptimizationError(f"epoch {epoch}: non-finite class scores after the last batch") from None
        train_report = evaluate(train_probs.argmax(axis=1).tolist(), labels, config.classes)
        dev_report = evaluate(dev_probs.argmax(axis=1).tolist(), gold_dev, config.classes)
        history.append(_epoch_entry(epoch, epoch_loss, train_report, dev_report))
        if log is not None:
            log(history[-1])
        if best_dev is None or dev_report.macro_f > best_dev.macro_f:
            best_dev = dev_report
            best_epoch = epoch
            best_state = model.snapshot()

    model.load_snapshot(best_state)
    model.zero_grad()  # the last batch's gradients belong to other weights than the best epoch's
    return TrainResult(model=model, history=history, best_epoch=best_epoch, best_dev=best_dev)


def save_history(history: list[dict], path) -> None:
    """One JSON object per line, keys sorted: byte-stable across runs."""
    write_lines(path, (json.dumps(entry, sort_keys=True, allow_nan=False) for entry in history))


def load_history(path) -> list[dict]:
    with open(path, "rb") as fh:
        return [parse_json(line, ValueError, f"{path}: line {n}") for n, line in enumerate(fh, start=1)
                if line.strip()]


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

_MAGIC = b"SGCN"
_FORMAT_VERSION = 1


def save_checkpoint(model: Model, path) -> None:
    """Write config, vocabulary, and all parameter arrays to one file."""
    arrays = model.state_arrays()
    header = {
        "format_version": _FORMAT_VERSION,
        "config": model.config.to_dict(),
        "vocab_words": model.vocab.words,
        "arrays": [{"name": name, "shape": list(arr.shape)} for name, arr in arrays],
    }
    header_bytes = json.dumps(header, ensure_ascii=False, sort_keys=True).encode("utf-8")
    with atomic_open(path) as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<IQ", _FORMAT_VERSION, len(header_bytes)))
        fh.write(header_bytes)
        for _, arr in arrays:
            fh.write(np.ascontiguousarray(arr, dtype="<f8").data)  # from the buffer: no copy of the table


def state_shapes(config: TrainConfig, vocab_size: int):
    """(name, shape) of each of Model(config, vocab).state_arrays(), in order, allocating nothing."""
    d, h, c = config.embedding_size, config.hidden_neurons, config.classes
    yield "embedding.table", (vocab_size, d)
    for layer in range(config.lstm_layers):  # lazily: a header may ask for billions of layers
        for way, gate in itertools.product(("fwd", "bwd"), LstmCell.GATES):
            for part, shape in (("w_x", (2 * h if layer else d, h)), ("w_h", (h, h)), ("bias", (1, h))):
                yield f"bilstm.{layer}.{way}.{gate}.{part}", shape
    norm = [(f"batch_norm.{name}", (2 * h,)) for name in ("gamma", "beta", "running_mean", "running_var")]
    fc = [("fc_head.weight", (config.max_len * c, c)), ("fc_head.bias", (c,))]
    norm, fc = (norm if config.batch_norm else []), (fc if config.pooling == "fc" else [])
    yield from norm[:2] + [("gcn.weight", config.gcn_shape)] + fc + norm[2:]


def state_bytes(config: TrainConfig, vocab_size: int) -> int:
    """Bytes of the arrays state_shapes lists: each layer past the first adds what the second does."""
    one, two = (sum(math.prod(s) for _, s in state_shapes(replace(config, lstm_layers=k), vocab_size)) for k in (1, 2))
    return 8 * (one + (config.lstm_layers - 1) * (two - one))


def load_checkpoint(path) -> Model:
    """Rebuild a model from the file's arrays; raises CheckpointError on any inconsistency.

    Draws no initialisation and holds no copy of the payload: once the header
    and the file size match, each array is read from the file straight into
    the model's own array.
    """
    try:
        with open(path, "rb") as fh:
            return _read_checkpoint(fh, path)
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc


def _read_checkpoint(fh, path) -> Model:
    prefix = len(_MAGIC) + struct.calcsize("<IQ")
    head = fh.read(prefix)
    if len(head) < prefix or head[: len(_MAGIC)] != _MAGIC:
        raise CheckpointError(f"{path} is not a checkpoint file")
    version, header_len = struct.unpack("<IQ", head[len(_MAGIC) :])
    if version != _FORMAT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version} (expected {_FORMAT_VERSION})")
    payload = os.fstat(fh.fileno()).st_size - prefix - header_len
    if payload < 0:
        raise CheckpointError(f"{path} is truncated (header)")
    header = parse_json(fh.read(header_len), CheckpointError, f"{path} header")
    try:
        config = TrainConfig.from_dict(header["config"])  # a default for a missing field would be a guess here
        if missing := [f.name for f in fields(config) if f.name not in header["config"]]:
            raise CheckpointError(f"{path} has a corrupt header: config lacks {', '.join(missing)}")
        vocab = Vocabulary.from_words(header["vocab_words"])
        if vocab.words != header["vocab_words"] or not all(isinstance(w, str) for w in vocab.words):
            raise CheckpointError(f"{path}: vocab_words must be a list of distinct strings")
        manifest = [(entry["name"], tuple(entry["shape"])) for entry in header["arrays"]]
        # Before Model() allocates them, the config's arrays must be the manifest's, which the payload holds.
        shapes = list(itertools.islice(state_shapes(config, len(vocab)), len(manifest) + 1))
        for want, held in itertools.zip_longest(shapes, manifest):
            if want != held:
                raise CheckpointError(f"{path}: manifest array (name, shape) {held} is not the config's {want}")
    except KeyError as exc:
        raise CheckpointError(f"{path} has a corrupt header: missing field {exc}") from exc
    except (ValueError, TypeError) as exc:
        raise CheckpointError(f"{path} has a corrupt header: {exc}") from exc

    expected = state_bytes(config, len(vocab))
    if payload != expected:
        raise CheckpointError(f"{path} is truncated ({payload} of {expected} payload bytes)")

    def read_into(name: str, arr: np.ndarray) -> None:
        if fh.readinto(arr) != arr.nbytes:
            raise CheckpointError(f"{path} is truncated (array {name})")
        if not np.little_endian:  # the payload is little-endian
            arr.byteswap(inplace=True)
        if not np.isfinite(arr).all():
            raise CheckpointError(f"{path}: array {name} holds non-finite values")
        if name == "batch_norm.running_var" and (arr < 0).any():
            raise CheckpointError(f"{path}: array {name} holds negative variances")

    return Model(config, vocab, fill=read_into)


def predictions_to_lines(model: Model, records: list[Record]) -> list[str]:
    """JSON line per record: label name, id, and class probabilities."""
    names = label_names(model.config.classes)
    labels, probs = model.predict(records)
    return [json.dumps({"label": names[label], "label_id": label, "probabilities": [float(v) for v in p]},
                       sort_keys=True, allow_nan=False) for label, p in zip(labels, probs)]

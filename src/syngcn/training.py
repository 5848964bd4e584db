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

import contextlib
import json
import math
import os
import struct
from dataclasses import asdict, dataclass, fields, replace
from functools import reduce

import numpy as np

from . import tensor as T
from .corpus import Record, Vocabulary, build_graph, build_vocab, label_names
from .layers import (
    BatchNorm,
    BiLstm,
    EmbeddingTable,
    FcHead,
    GcnLayer,
    average_pool,
    orthogonal_init,
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


POOLING_MODES = ("percentile", "average", "fc")
ADJACENCY_MODES = ("syntax", "all_ones")

DEFAULT_SEED = 42


def _parse_bool(raw: str) -> bool:
    if raw.lower() not in ("true", "false", "1", "0"):
        raise ValueError(raw)
    return raw.lower() in ("true", "1")


# Per declared field type: the value types accepted (bool only for bool
# fields) and the parser of a --set string.
_FIELD_TYPES = {"bool": bool, "int": int, "float": (int, float), "str": str}
_PARSERS = {"bool": _parse_bool, "int": int, "float": float, "str": str}


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
    max_len: int = 140
    classes: int = 7
    adjacency_mode: str = "syntax"
    epochs: int = 100
    min_count: int = 1
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        for field in fields(self):
            value, kind = getattr(self, field.name), field.type
            typed = isinstance(value, _FIELD_TYPES[kind]) and isinstance(value, bool) == (kind == "bool")
            if not typed or (kind == "float" and not math.isfinite(value)):
                wanted = "finite float" if kind == "float" else kind
                raise ConfigError(f"{field.name} expects {wanted}, got {value!r}")
        if self.embedding_size < 1 or self.hidden_neurons < 1 or self.lstm_layers < 1:
            raise ConfigError("model dimensions must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout {self.dropout} outside [0, 1)")
        if self.pooling not in POOLING_MODES:
            raise ConfigError(f"pooling must be one of {POOLING_MODES}, got {self.pooling!r}")
        if not 0.0 <= self.pooling_p <= 100.0:
            raise ConfigError(f"pooling_p {self.pooling_p} outside [0, 100]")
        if self.adjacency_mode not in ADJACENCY_MODES:
            raise ConfigError(f"adjacency_mode must be one of {ADJACENCY_MODES}")
        if self.classes not in (7, 2):
            raise ConfigError(f"classes must be 7 or 2, got {self.classes}")
        if min(self.lambda_orth, self.lambda_l2, self.weight_decay) < 0:
            raise ConfigError("regularization rates must be non-negative")
        if self.learning_rate <= 0 or self.batch_size < 1 or self.epochs < 1 or self.max_len < 1:
            raise ConfigError("learning_rate, batch_size, epochs, max_len must be positive")

    @property
    def gcn_shape(self) -> tuple[int, int]:
        return (2 * self.hidden_neurons, self.classes)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "TrainConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
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
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc.msg})") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return TrainConfig.from_dict(data)


# ---------------------------------------------------------------------------
# model
# ---------------------------------------------------------------------------


class Model:
    """Embedding -> stacked Bi-LSTM -> batch norm -> GCN -> pooling head."""

    def __init__(self, config: TrainConfig, vocab: Vocabulary, rng: np.random.Generator | None = None):
        if rng is None:
            rng = np.random.default_rng(config.seed)
        self.config = config
        self.vocab = vocab
        self.embedding = EmbeddingTable(len(vocab), config.embedding_size, rng)
        self.bilstm = BiLstm(
            config.embedding_size, config.hidden_neurons, config.lstm_layers, config.dropout, rng
        )
        self.batch_norm = BatchNorm(self.bilstm.output_dim) if config.batch_norm else None
        self.gcn = GcnLayer(self.bilstm.output_dim, config.classes, rng)
        self.fc_head = FcHead(config.max_len, config.classes, rng) if config.pooling == "fc" else None

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        params = list(self.embedding.parameters())
        params += list(self.bilstm.parameters())
        if self.batch_norm is not None:
            params += list(self.batch_norm.parameters())
        params += list(self.gcn.parameters())
        if self.fc_head is not None:
            params += list(self.fc_head.parameters())
        return params

    def penalized_weights(self) -> list[Tensor]:
        """Weight matrices covered by the orthogonality and L2 penalties."""
        return list(self.bilstm.weight_matrices()) + [self.gcn.weight]

    def zero_grad(self) -> None:
        for _, p in self.named_parameters():
            p.zero_grad()

    def _pool(self, z: Tensor) -> Tensor:
        if self.config.pooling == "percentile":
            return percentile_pool(z, self.config.pooling_p)
        if self.config.pooling == "average":
            return average_pool(z)
        return self.fc_head(z)

    def forward_batch(
        self,
        encoded: list[tuple[np.ndarray, np.ndarray]],
        training: bool = False,
        rng: np.random.Generator | None = None,
    ) -> list[Tensor]:
        """Logit vectors for a batch of (token_ids, normalized_adjacency).

        Records run through the Bi-LSTM one at a time (each carries its
        own graph), but batch norm sees the whole batch at once so its
        statistics cover every token position in the batch.
        """
        features = []
        for token_ids, _ in encoded:
            x = self.embedding(token_ids)
            features.append(self.bilstm(x, training=training, rng=rng))
        if self.batch_norm is not None:
            stacked = T.concat_rows(features) if len(features) > 1 else features[0]
            normed = self.batch_norm(stacked, training=training)
            offsets = np.cumsum([0] + [f.shape[0] for f in features])
            features = [
                T.slice_rows(normed, offsets[i], offsets[i + 1]) for i in range(len(features))
            ]
        logits = []
        for feat, (_, adj) in zip(features, encoded):
            z = self.gcn(feat, adj)
            logits.append(self._pool(z))
        return logits

    def encode(self, record: Record) -> tuple[np.ndarray, np.ndarray]:
        graph = build_graph(record, self.config.adjacency_mode, self.config.max_len)
        return self.vocab.encode(record.tokens), graph.normalized

    def predict(self, records: list[Record]) -> tuple[list[int], np.ndarray]:
        """Predicted class ids and the full probability rows."""
        probs = np.zeros((len(records), self.config.classes))
        for i, rec in enumerate(records):
            logits = self.forward_batch([self.encode(rec)], training=False)[0]
            probs[i] = T.softmax(logits.data)
        labels = [int(np.argmax(p)) for p in probs]
        return labels, probs

    def state_arrays(self) -> list[tuple[str, np.ndarray]]:
        arrays = [(name, p.data) for name, p in self.named_parameters()]
        if self.batch_norm is not None:
            arrays += list(self.batch_norm.state_arrays())
        return arrays

    def snapshot(self) -> dict[str, np.ndarray]:
        return {name: arr.copy() for name, arr in self.state_arrays()}

    def load_snapshot(self, state: dict[str, np.ndarray]) -> None:
        expected = dict(self.state_arrays())
        if set(state) != set(expected):
            missing = sorted(set(expected) ^ set(state))
            raise CheckpointError(f"parameter set mismatch: {missing}")
        for name, current in expected.items():
            if np.shape(state[name]) != current.shape:
                raise CheckpointError(f"{name}: shape {np.shape(state[name])} != {current.shape}")
        for name, p in self.named_parameters():
            p.data = np.asarray(state[name], dtype=np.float64).copy()
        if self.batch_norm is not None:
            self.batch_norm.load_state(
                state["batch_norm.running_mean"], state["batch_norm.running_var"]
            )


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------


def orthogonality_penalty(weight: Tensor) -> Tensor:
    """||gram(W) - I||_F^2 with the gram taken on the smaller side."""
    rows, cols = weight.shape
    if rows >= cols:
        gram = T.transpose(weight) @ weight
    else:
        gram = weight @ T.transpose(weight)
    diff = gram - Tensor(np.eye(min(rows, cols)))
    return (diff * diff).sum()


def total_loss(
    batch_logits: list[Tensor],
    batch_labels: list[int],
    weights: list[Tensor],
    lambda_orth: float,
    lambda_l2: float,
) -> Tensor:
    """Mean cross-entropy plus orthogonality and L2 penalties."""
    if len(batch_logits) != len(batch_labels) or not batch_logits:
        raise ValueError("batch logits and labels must align and be non-empty")
    ce = reduce(T.add, map(T.softmax_cross_entropy, batch_logits, batch_labels))
    loss = ce * (1.0 / len(batch_logits))
    if lambda_orth > 0 and weights:
        loss = loss + reduce(T.add, map(orthogonality_penalty, weights)) * lambda_orth
    if lambda_l2 > 0 and weights:
        loss = loss + reduce(T.add, ((w * w).sum() for w in weights)) * lambda_l2
    return loss


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


class Adam:
    """Adam with decoupled weight decay (applied directly to the weights)."""

    def __init__(
        self,
        named_params: list[tuple[str, Tensor]],
        lr: float = 0.001,
        weight_decay: float = 0.0,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.named_params = list(named_params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = {name: np.zeros_like(p.data) for name, p in self.named_params}
        self.v = {name: np.zeros_like(p.data) for name, p in self.named_params}

    def step(self) -> None:
        self.t += 1
        for name, p in self.named_params:
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            elif not np.all(np.isfinite(g)):
                raise OptimizationError(f"non-finite gradient in {name}")
            if self.weight_decay > 0:
                p.data = p.data * (1.0 - self.lr * self.weight_decay)
            self.m[name] = self.beta1 * self.m[name] + (1 - self.beta1) * g
            self.v[name] = self.beta2 * self.v[name] + (1 - self.beta2) * g * g
            m_hat = self.m[name] / (1 - self.beta1**self.t)
            v_hat = self.v[name] / (1 - self.beta2**self.t)
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


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
    for i, rec in enumerate(train_records + dev_records):
        if rec.label is None:
            raise ConfigError(f"record {i} has no label")
        rec.validate(classes=config.classes, where=f"record {i}")

    vocab = build_vocab(train_records, min_count=config.min_count)
    rng = np.random.default_rng(config.seed)
    model = Model(config, vocab, rng)
    optimizer = Adam(model.named_parameters(), lr=config.learning_rate, weight_decay=config.weight_decay)

    encoded = [model.encode(rec) for rec in train_records]
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
            model.zero_grad()
            logits = model.forward_batch([encoded[i] for i in idx], training=True, rng=rng)
            loss = total_loss(
                logits,
                [labels[i] for i in idx],
                model.penalized_weights(),
                config.lambda_orth,
                config.lambda_l2,
            )
            T.backward(loss)
            # The padding embedding row must never move.
            model.embedding.table.grad[0] = 0.0
            optimizer.step()
            epoch_loss += loss.item() * len(idx)
        epoch_loss /= len(train_records)

        train_report = evaluate(model.predict(train_records)[0], labels, config.classes)
        dev_report = evaluate(model.predict(dev_records)[0], gold_dev, config.classes)
        history.append(_epoch_entry(epoch, epoch_loss, train_report, dev_report))
        if log is not None:
            log(history[-1])
        if best_dev is None or dev_report.macro_f > best_dev.macro_f:
            best_dev = dev_report
            best_epoch = epoch
            best_state = model.snapshot()

    model.load_snapshot(best_state)
    return TrainResult(model=model, history=history, best_epoch=best_epoch, best_dev=best_dev)


@contextlib.contextmanager
def _atomic_open(path):
    """Binary file handle on a temp file beside ``path``, renamed over ``path`` on success."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def save_history(history: list[dict], path) -> None:
    """One JSON object per line, keys sorted: byte-stable across runs."""
    with _atomic_open(path) as fh:
        for entry in history:
            fh.write((json.dumps(entry, sort_keys=True) + "\n").encode("utf-8"))


def load_history(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


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
    with _atomic_open(path) as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<IQ", _FORMAT_VERSION, len(header_bytes)))
        fh.write(header_bytes)
        for _, arr in arrays:
            fh.write(np.ascontiguousarray(arr, dtype=np.float64).tobytes())


def load_checkpoint(path) -> Model:
    """Rebuild a model; raises CheckpointError on any inconsistency."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    prefix = len(_MAGIC) + struct.calcsize("<IQ")
    if len(blob) < prefix or blob[: len(_MAGIC)] != _MAGIC:
        raise CheckpointError(f"{path} is not a checkpoint file")
    version, header_len = struct.unpack("<IQ", blob[len(_MAGIC) : prefix])
    if version != _FORMAT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version} (expected {_FORMAT_VERSION})")
    if len(blob) < prefix + header_len:
        raise CheckpointError(f"{path} is truncated (header)")
    try:
        header = json.loads(blob[prefix : prefix + header_len].decode("utf-8"))
        config = TrainConfig.from_dict(header["config"])
        vocab = Vocabulary.from_words(header["vocab_words"])
        shapes = [(entry["name"], tuple(entry["shape"])) for entry in header["arrays"]]
        for name, shape in shapes:
            if not isinstance(name, str) or any(type(d) is not int or d < 0 for d in shape):
                raise CheckpointError(f"{path}: manifest entry {name!r} needs a string name and "
                                      f"a shape of non-negative integers, got {list(shape)}")
    except KeyError as exc:
        raise CheckpointError(f"{path} has a corrupt header: missing field {exc}") from exc
    except (ValueError, TypeError) as exc:
        raise CheckpointError(f"{path} has a corrupt header: {exc}") from exc

    payload = blob[prefix + header_len :]
    expected = sum(math.prod(shape) for _, shape in shapes) * 8
    if len(payload) != expected:
        raise CheckpointError(f"{path} is truncated ({len(payload)} of {expected} payload bytes)")

    state: dict[str, np.ndarray] = {}
    offset = 0
    for name, shape in shapes:
        count = math.prod(shape)
        state[name] = np.frombuffer(payload, dtype="<f8", count=count, offset=offset).reshape(shape)
        offset += count * 8

    model = Model(config, vocab, rng=np.random.default_rng(0))
    model.load_snapshot(state)
    return model


def predictions_to_lines(model: Model, records: list[Record]) -> list[str]:
    """JSON line per record: label name, id, and class probabilities."""
    names = label_names(model.config.classes)
    labels, probs = model.predict(records)
    lines = []
    for label, p in zip(labels, probs):
        lines.append(
            json.dumps(
                {"label": names[label], "label_id": label, "probabilities": [float(v) for v in p]},
                sort_keys=True,
            )
        )
    return lines

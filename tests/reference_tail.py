"""Reference per-record tail: GCN, pooling and loss one record at a time, kept as a test oracle.

``Model.forward_batch`` runs the GCN and pooling once over the packed
batch, and ``total_loss`` takes one cross-entropy op over the [B, C]
logits and one op per penalty.  This module recomputes the same loss the
way the model used to: each record's rows sliced out of the packed
features, its own ``(A @ F) @ W`` and ReLU from primitive tape ops, a
single-record pool, 1-D cross-entropies and per-matrix penalties summed
with ``T.add``; the two must agree.  ``percentile_pool_reference`` is the
pooling loop itself, one record at a time, for the batched pool to match.
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np

from syngcn import tensor as T
from syngcn.layers import average_pool, percentile_pool
from syngcn.tensor import Tensor
from syngcn.training import orthogonality_penalty


def reshape(a: Tensor, shape) -> Tensor:
    """Tape op: a's entries in a new shape (the fc head's flattening)."""

    def rule(g):
        return (g.reshape(a.shape),)

    return T.apply_op((a,), a.data.reshape(shape).copy(), rule)


def percentile_pool_reference(z: Tensor, p: float, lengths=None) -> Tensor:
    """percentile_pool with each record's rows sorted on their own."""
    bounds = np.cumsum([0, *([z.shape[0]] if lengths is None else lengths)]).tolist()
    values = np.empty((len(bounds) - 1, z.shape[1]))
    selected = np.empty(values.shape, dtype=np.intp)
    for b, (start, stop) in enumerate(zip(bounds, bounds[1:])):
        rank = max(1, math.ceil(p * (stop - start) / 100.0))
        rows = z.data[start:stop]
        values[b] = np.sort(rows, axis=0)[rank - 1]
        selected[b] = start + np.argmax(rows == values[b], axis=0)

    def rule(g):
        gz = np.zeros_like(z.data)
        gz[selected, np.arange(z.shape[1])] = g.reshape(values.shape)
        return (gz,)

    return T.apply_op((z,), values if lengths is not None else values[0], rule)


def _pool(model, z: Tensor) -> Tensor:
    if model.config.pooling == "percentile":
        return percentile_pool(z, model.config.pooling_p)
    if model.config.pooling == "average":
        return average_pool(z)
    head = model.fc_head
    flat = reshape(z, (1, z.size)) @ T.slice_rows(head.weight, 0, z.size)
    return reshape(flat, (head.weight.shape[1],)) + head.bias


def per_record_logits(model, encoded, training=False, rng=None) -> list[Tensor]:
    """One 1-D logit tensor per record, each record's tail on its own."""
    lengths = [len(ids) for ids, _ in encoded]
    x = model.embedding(np.concatenate([ids for ids, _ in encoded]))
    features = model.bilstm(x, training=training, rng=rng, lengths=lengths)
    if model.batch_norm is not None:
        features = model.batch_norm(features, training=training)
    logits, start = [], 0
    for n, (_, adj) in zip(lengths, encoded):
        part = T.slice_rows(features, start, start + n)
        logits.append(_pool(model, T.relu(T.matmul(Tensor(adj), part) @ model.gcn.weight)))
        start += n
    return logits


def per_record_loss(model, logits: list[Tensor], labels) -> Tensor:
    """Mean 1-D cross-entropy of per_record_logits plus per-matrix orthogonality and L2 terms."""
    weights = model.penalized_weights()
    ce = reduce(T.add, map(T.softmax_cross_entropy, logits, labels))
    orth = reduce(T.add, map(orthogonality_penalty, weights))
    l2 = reduce(T.add, ((w * w).sum() for w in weights))
    return ce * (1.0 / len(logits)) + orth * model.config.lambda_orth + l2 * model.config.lambda_l2

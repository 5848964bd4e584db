"""Shared test utilities: finite-difference gradients, error metrics and fuzz strategies."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
from hypothesis import strategies as st

from syngcn.corpus import EMOTION_NAMES, POLARITY_NAMES, Record
from syngcn.tensor import Tensor

# Every class name of both sets; a JSON scalar of any type, the names included; nested lists of them.
_NAMES = st.sampled_from(EMOTION_NAMES + POLARITY_NAMES)
_LEAVES = st.none() | st.booleans() | st.integers(-3, 8) | st.floats(allow_nan=False) | st.text(max_size=3) | _NAMES
_JSON = st.recursive(_LEAVES, lambda inner: st.lists(inner, max_size=6), max_leaves=12)

# One corpus line as JSON: any of the four fields, each holding nested JSON of any type; or a
# one-sentence star tree (every token headed by the first), a line that loads whenever its label does.
CORPUS_ROWS = st.dictionaries(st.sampled_from(["tokens", "heads", "sent_bounds", "label"]), _JSON) | st.builds(
    lambda tokens, label: {"tokens": tokens, "heads": [0] + [1] * (len(tokens) - 1), "label": label},
    st.lists(st.text(max_size=3), min_size=1, max_size=6),
    _NAMES | _LEAVES,
)

# Python values of any type, nested in lists, tuples and dicts, for the fields of an in-memory Record.
_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 8) | st.floats() | st.text(max_size=3),
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(st.text(max_size=2), inner, max_size=2)),
    max_leaves=10,
)
# A valid one-sentence star-tree Record (every token headed by the first).
_STAR = st.lists(st.text(max_size=3), min_size=1, max_size=4).map(
    lambda t: Record(tuple(t), ((0, len(t)),), (0,) + (1,) * (len(t) - 1), 0)
)
# One entry of an in-memory record list: a star tree, one with a field swapped for any value, a
# Record whose four fields hold any values, or any value that is no Record at all.
RECORD_ENTRIES = st.one_of(
    _STAR,
    st.builds(lambda rec, name, value: replace(rec, **{name: value}),
              _STAR, st.sampled_from(["tokens", "sent_bounds", "heads", "label"]), _VALUES),
    st.builds(Record, _VALUES, _VALUES, _VALUES, _VALUES),
    _VALUES,
)

# JSON values of every type but a bare integer, for the typed fields of configs and checkpoint headers.
WRONG_TYPES = (
    st.none()
    | st.booleans()
    | st.floats()
    | st.text(max_size=4)
    | st.lists(st.integers(-2, 3), max_size=3)
    | st.dictionaries(st.text(max_size=2), st.integers(-2, 3), max_size=2)
)


def finite_difference(fn, params, eps: float = 1e-5):
    """Central finite differences of the scalar fn() w.r.t. each tensor.

    ``fn`` must recompute the forward pass from the tensors' current
    data; each element is wiggled in place by +-eps.
    """
    grads = []
    for p in params:
        grad = np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        grad_flat = grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = fn()
            flat[i] = orig - eps
            f_minus = fn()
            flat[i] = orig
            grad_flat[i] = (f_plus - f_minus) / (2.0 * eps)
        grads.append(grad)
    return grads


def max_rel_err(analytic, numeric, floor: float = 1.0) -> float:
    """Max elementwise |a-n| / max(|a|, |n|, floor).

    The floor turns the metric into an absolute bound for tiny values,
    where central differences themselves are noise-limited.
    """
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
    return float(np.max(np.abs(a - n) / denom)) if a.size else 0.0


def check_gradients(build, params, eps: float = 1e-5, floor: float = 1.0) -> float:
    """Backward vs finite differences for a scalar-valued builder.

    ``build`` constructs the loss tensor from current parameter data.
    Returns the worst relative error across all parameters.
    """
    for p in params:
        p.zero_grad()
    loss = build()
    loss.backward()
    analytic = [p.grad.copy() if p.grad is not None else np.zeros_like(p.data) for p in params]
    numeric = finite_difference(lambda: build().item(), params, eps=eps)
    return max(max_rel_err(a, n, floor=floor) for a, n in zip(analytic, numeric))


def rand_tensor(rng: np.random.Generator, shape, requires_grad: bool = True, low=-1.0, high=1.0) -> Tensor:
    return Tensor(rng.uniform(low, high, size=shape), requires_grad=requires_grad)

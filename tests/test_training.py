"""Config, loss, optimizer, training-loop, and checkpoint tests."""

import json
import math
import re
import struct
import sys
import threading
import time
import tracemalloc
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syngcn import layers, training
from syngcn import tensor as T
from syngcn.corpus import CorpusError, Record, Vocabulary, build_vocab, check_records
from syngcn.layers import orthogonal_init
from syngcn.synthetic import class_word_corpus
from syngcn.tensor import Tensor, backward, mul, softmax_cross_entropy, sum_all
from syngcn.training import (
    ADAM_BLOCK,
    ADAM_PARALLEL_MIN,
    Adam,
    CheckpointError,
    ConfigError,
    Model,
    OptimizationError,
    ScoreError,
    TrainConfig,
    l2_penalty,
    load_checkpoint,
    load_config,
    load_history,
    orthogonality_penalty,
    predictions_to_lines,
    save_checkpoint,
    save_history,
    state_bytes,
    state_shapes,
    total_loss,
    train,
)

import reference_tail
from reference_adam import ReferenceAdam
from helpers import RECORD_ENTRIES, WRONG_TYPES, check_gradients


class TestTrainConfig:
    def test_published_defaults(self):
        config = TrainConfig()
        assert config.embedding_size == 300
        assert config.hidden_neurons == 180
        assert config.lstm_layers == 2
        assert config.dropout == 0.5
        assert config.batch_norm is True
        assert config.pooling == "percentile" and config.pooling_p == 50.0
        assert config.lambda_orth == 1e-8 and config.lambda_l2 == 1e-8
        assert config.batch_size == 32
        assert config.learning_rate == 0.001
        assert config.weight_decay == 1e-8
        assert config.max_len == 140
        assert config.classes == 7
        assert config.adjacency_mode == "syntax"
        assert config.gcn_shape == (360, 7)

    def test_binary_mode_shape(self):
        assert TrainConfig(classes=2).gcn_shape == (360, 2)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"dropout": 1.0},
            {"dropout": -0.1},
            {"pooling": "sum"},
            {"pooling_p": 101.0},
            {"classes": 3},
            {"adjacency_mode": "funky"},
            {"learning_rate": 0.0},
            {"lambda_orth": -1.0},
            {"lstm_layers": 0},
            {"seed": -1},
            {"min_count": 0},
            {"embedding_size": 0},
            {"hidden_neurons": 0},
            {"batch_size": 0},
            {"epochs": 0},
            {"max_len": 0},
            {"lambda_l2": -1.0},
            {"weight_decay": -1.0},
            {"pooling_p": -1.0},
        ],
    )
    def test_invalid_values_rejected(self, overrides):
        [(field, value)] = overrides.items()
        with pytest.raises(ConfigError) as info:
            TrainConfig(**overrides)
        message = str(info.value)
        assert message.startswith(f"{field} ") and message.endswith(repr(value)), message

    def test_round_trip_dict(self):
        config = TrainConfig(hidden_neurons=8, classes=2, pooling="average")
        assert TrainConfig.from_dict(config.to_dict()) == config

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ConfigError, match="momentum"):
            TrainConfig.from_dict({"momentum": 0.9})

    @pytest.mark.parametrize("data", ["abc", ["pooling_p"], 7, None])
    def test_from_dict_rejects_a_non_mapping(self, data):
        with pytest.raises(ConfigError, match="^config must be a JSON object$"):
            TrainConfig.from_dict(data)

    def test_string_overrides_coerce_types(self):
        config = TrainConfig().with_overrides(
            {"hidden_neurons": "8", "dropout": "0.25", "batch_norm": "false", "pooling": "average"}
        )
        assert config.hidden_neurons == 8
        assert config.dropout == 0.25
        assert config.batch_norm is False
        assert config.pooling == "average"
        with pytest.raises(ConfigError):
            TrainConfig().with_overrides({"nonsense": "1"})
        with pytest.raises(ConfigError):
            TrainConfig().with_overrides({"batch_norm": "maybe"})

    @pytest.mark.parametrize(
        "data,field",
        [
            ({"epochs": "3"}, "epochs"),
            ({"dropout": None}, "dropout"),
            ({"batch_norm": "no"}, "batch_norm"),
            ({"epochs": True}, "epochs"),
            ({"pooling": 3}, "pooling"),
            ({"learning_rate": float("nan")}, "learning_rate"),
            ({"lambda_orth": float("inf")}, "lambda_orth"),
        ],
    )
    def test_mistyped_field_names_field(self, data, field):
        with pytest.raises(ConfigError, match=field):
            TrainConfig.from_dict(data)

    def test_float_fields_take_ints(self):
        assert TrainConfig.from_dict({"dropout": 0, "pooling_p": 100}).pooling_p == 100

    @pytest.mark.parametrize(
        "key,raw", [("epochs", "abc"), ("dropout", "0.5x"), ("seed", "1.5"), ("weight_decay", "nan")]
    )
    def test_unparsable_override_names_field(self, key, raw):
        with pytest.raises(ConfigError, match=key):
            TrainConfig().with_overrides({key: raw})

    def test_load_config_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"hidden_neurons": 12, "classes": 2}))
        config = load_config(path)
        assert config.hidden_neurons == 12 and config.classes == 2
        path.write_text("{broken")
        with pytest.raises(ConfigError):
            load_config(path)


class TestOrthogonalInitContract:
    def test_one_by_one_is_unit(self):
        w = orthogonal_init(1, 1, np.random.default_rng(3))
        assert abs(abs(w[0, 0]) - 1.0) < 1e-12

    def test_five_by_three_frobenius(self):
        w = orthogonal_init(5, 3, np.random.default_rng(5))
        assert np.linalg.norm(w.T @ w - np.eye(3)) < 1e-8

    def test_same_seed_same_matrix(self):
        a = orthogonal_init(7, 4, np.random.default_rng(9))
        b = orthogonal_init(7, 4, np.random.default_rng(9))
        np.testing.assert_array_equal(a, b)


class TestTotalLoss:
    def _batch(self, rng, n=3, classes=4):
        logits = Tensor(rng.uniform(-1.0, 1.0, size=(n, classes)), requires_grad=True)
        labels = [int(rng.integers(classes)) for _ in range(n)]
        return logits, labels

    def test_zero_lambdas_give_plain_mean_cross_entropy(self):
        # Both penalty terms are built at a zero lambda too: each adds exactly 0 to the loss and to the gradient.
        rng = np.random.default_rng(13)
        logits, labels = self._batch(rng)
        w = Tensor(rng.uniform(size=(3, 3)), requires_grad=True)
        loss = total_loss(logits, labels, [w], lambda_orth=0.0, lambda_l2=0.0)
        assert loss.item() == (softmax_cross_entropy(logits, labels) * (1 / len(labels))).item()
        backward(loss)
        np.testing.assert_array_equal(w.grad, np.zeros((3, 3)))

    def test_orthogonal_weight_contributes_nothing(self):
        rng = np.random.default_rng(17)
        logits, labels = self._batch(rng)
        w = Tensor(orthogonal_init(6, 3, rng), requires_grad=True)
        base = total_loss(logits, labels, [w], 0.0, 0.0).item()
        with_pen = total_loss(logits, labels, [w], 1.0, 0.0).item()
        assert with_pen == pytest.approx(base, abs=1e-12)

    def test_two_i_penalty_is_eighteen(self):
        w = Tensor(2.0 * np.eye(2), requires_grad=True)
        assert orthogonality_penalty(w).item() == pytest.approx(18.0)
        rng = np.random.default_rng(19)
        logits, labels = self._batch(rng)
        base = total_loss(logits, labels, [w], 0.0, 0.0).item()
        assert total_loss(logits, labels, [w], 1.0, 0.0).item() == pytest.approx(base + 18.0)

    def test_wide_matrix_penalty_uses_small_side(self):
        w = Tensor(np.hstack([2.0 * np.eye(2), np.zeros((2, 3))]), requires_grad=True)
        # W W' = 4I on the 2x2 side -> same 18 as the square case
        assert orthogonality_penalty(w).item() == pytest.approx(18.0)

    def test_penalties_sum_over_weights(self):
        rng = np.random.default_rng(41)
        weights = [Tensor(rng.normal(size=shape), requires_grad=True) for shape in ((4, 3), (3, 5), (2, 2))]
        joint = orthogonality_penalty(*weights).item()
        assert joint == pytest.approx(sum(orthogonality_penalty(w).item() for w in weights), rel=1e-14)
        squares = l2_penalty(*weights).item()
        assert squares == pytest.approx(sum(float((w.data**2).sum()) for w in weights), rel=1e-14)

    def test_penalty_keeps_the_bits_of_subtracting_an_identity(self):
        # The op subtracts 1.0 from each gram's diagonal alone; off it, x - 0.0 == x for every float, -0.0 too.
        rng = np.random.default_rng(43)
        shapes = ((7, 3), (3, 7), (5, 5), (1, 4), (4, 1))
        weights = [Tensor(rng.normal(size=shape), requires_grad=True) for shape in shapes]
        weights.append(Tensor(np.array([[-0.0, 1.0], [1.0, -0.0]]), requires_grad=True))  # signed zeros in the gram
        ws = [w.data for w in weights]
        tall = [w.shape[0] >= w.shape[1] for w in ws]
        diffs = [(w.T @ w if t else w @ w.T) - np.eye(min(w.shape)) for w, t in zip(ws, tall)]
        value = np.asarray(sum(float((d * d).sum()) for d in diffs))
        penalty = orthogonality_penalty(*weights)
        assert penalty.data.tobytes() == value.tobytes()
        backward(penalty * 0.3)
        for w, t, d in zip(weights, tall, diffs):
            assert w.grad.tobytes() == (4.0 * np.asarray(0.3) * (w.data @ d if t else d @ w.data)).tobytes()

    def test_l2_term(self):
        rng = np.random.default_rng(23)
        logits, labels = self._batch(rng)
        w = Tensor(2.0 * np.eye(2), requires_grad=True)
        base = total_loss(logits, labels, [w], 0.0, 0.0).item()
        loss = total_loss(logits, labels, [w], 0.0, 0.5).item()
        assert loss == pytest.approx(base + 0.5 * 8.0)  # ||2I||_F^2 = 8

    def test_non_negative(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            logits, labels = self._batch(rng, n=int(rng.integers(1, 6)))
            w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
            assert total_loss(logits, labels, [w], 1e-3, 1e-3).item() >= 0.0

    def test_penalty_gradient_vanishes_only_at_orthogonality(self):
        rng = np.random.default_rng(31)
        w = Tensor(orthogonal_init(5, 3, rng), requires_grad=True)
        backward(orthogonality_penalty(w))
        assert np.linalg.norm(w.grad) < 1e-10
        w2 = Tensor(2.0 * np.eye(2), requires_grad=True)
        backward(orthogonality_penalty(w2))
        assert np.linalg.norm(w2.grad) > 1.0

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(37)
        logits, labels = self._batch(rng)
        shapes = ((4, 3), (3, 5), (3, 3))
        tall, wide, square = (Tensor(rng.normal(size=shape), requires_grad=True) for shape in shapes)
        # gram on the column side, on the row side, then all three in one op
        for weights in ([tall], [wide], [tall, wide, square]):
            err = check_gradients(lambda: total_loss(logits, labels, weights, 0.7, 0.3), weights + [logits])
            assert err < 1e-5

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            total_loss(Tensor(np.zeros((0, 4))), [], [], 0.0, 0.0)
        with pytest.raises(ValueError):
            total_loss(Tensor(np.zeros((2, 4))), [1], [], 0.0, 0.0)


class TestAdam:
    def test_zero_gradient_keeps_parameters(self):
        w = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        opt = Adam([("w", w)], lr=0.1, weight_decay=0.0)
        w.grad = np.zeros(2)
        opt.step()
        np.testing.assert_array_equal(w.data, [1.0, -2.0])

    def test_single_step_descends(self):
        w = Tensor(np.array([1.0]), requires_grad=True)
        opt = Adam([("w", w)], lr=0.05)
        backward(sum_all(mul(w, w)))
        opt.step()
        assert 0.0 < w.data[0] < 1.0

    def test_quadratic_converges_in_200_steps(self):
        w = Tensor(np.array([1.0, -1.0]), requires_grad=True)
        opt = Adam([("w", w)], lr=0.05)
        for _ in range(200):
            w.zero_grad()
            backward(sum_all(mul(w, w)))
            opt.step()
        assert np.linalg.norm(w.data) < 1e-3

    def test_non_finite_gradient_names_parameter(self):
        w = Tensor(np.array([1.0]), requires_grad=True)
        opt = Adam([("embedding.table", w)], lr=0.05)
        w.grad = np.array([np.nan])
        with pytest.raises(OptimizationError, match="embedding.table"):
            opt.step()

    @pytest.mark.parametrize("split", [False, True], ids=["flat", "slices"])
    def test_non_finite_gradient_names_the_first_bad_parameter_and_writes_nothing(self, monkeypatch, split):
        # Below ADAM_PARALLEL_MIN one check covers the flat gradient; the first bad parameter is still named.
        if split:
            monkeypatch.setattr(training, "ADAM_PARALLEL_MIN", 0)
        params = [(name, Tensor(np.array([1.0, -2.0, 0.5]), requires_grad=True)) for name in ("a", "b", "c", "d")]
        grads = [np.array([0.5, 0.1, 0.2]), None, np.array([0.0, np.inf, 1.0]), np.array([np.nan, 0.0, 0.0])]
        for (_, p), g in zip(params, grads):
            p.grad = g
        opt = Adam(params, lr=0.1, weight_decay=0.5)
        with pytest.raises(OptimizationError, match="non-finite gradient in c$"):
            opt.step()
        assert opt.t == 0 and not opt.moments.any()
        assert all(p.data.tolist() == [1.0, -2.0, 0.5] for _, p in params)

    def test_moments_are_views_of_two_flat_arrays(self):
        params = [("w", Tensor(np.ones((3, 2)), requires_grad=True)), ("b", Tensor(np.ones(4), requires_grad=True))]
        opt = Adam(params, lr=0.1)
        assert opt.moments.shape == (2, 10)
        for name, p in params:
            assert opt.m[name].shape == opt.v[name].shape == p.shape
            assert np.shares_memory(opt.m[name], opt.moments[0]) and np.shares_memory(opt.v[name], opt.moments[1])

    def test_decoupled_weight_decay_shrinks_weights(self):
        w = Tensor(np.array([2.0]), requires_grad=True)
        opt = Adam([("w", w)], lr=0.1, weight_decay=0.5)
        w.grad = np.zeros(1)
        opt.step()
        assert w.data[0] == pytest.approx(2.0 * (1.0 - 0.1 * 0.5))

    def test_missing_gradient_moves_like_a_zero_gradient(self):
        # Weight decay still applies to a parameter that got no gradient, to the same bytes as a zero one.
        start = np.array([2.0, -3.0, 0.5])
        missing, zero = Tensor(start.copy(), requires_grad=True), Tensor(start.copy(), requires_grad=True)
        opt = Adam([("missing", missing), ("zero", zero)], lr=0.1, weight_decay=0.5)
        zero.grad = np.zeros(3)
        for _ in range(3):
            opt.step()
        assert missing.grad is None and not np.array_equal(missing.data, start)
        assert missing.data.tobytes() == zero.data.tobytes()
        assert opt.m["missing"].tobytes() == opt.m["zero"].tobytes()
        assert opt.v["missing"].tobytes() == opt.v["zero"].tobytes()

    def test_step_replaces_each_array(self):
        # An array held from before a step keeps its values: the step binds a new one.
        w = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        opt = Adam([("w", w)], lr=0.1, weight_decay=0.5)
        held, before = w.data, w.data.copy()
        w.grad = np.array([0.5, -0.5])
        opt.step()
        assert w.data is not held
        np.testing.assert_array_equal(held, before)
        assert not np.array_equal(w.data, before)

    def test_step_writes_into_an_array_only_its_parameter_holds(self):
        # Unheld, an array takes its update in place, the bits a new array gets; a view of it keeps it from that.
        alone, viewed = (Tensor(np.array([1.0, -2.0, 0.5]), requires_grad=True) for _ in range(2))
        opt = Adam([("alone", alone), ("viewed", viewed)], lr=0.1, weight_decay=0.5)
        ref, view = weakref.ref(alone.data), viewed.data[:2]
        kept = view.copy()
        alone.grad = viewed.grad = np.array([0.5, -0.5, 0.25])
        opt.step()
        assert alone.data is ref() and viewed.data is not view.base
        np.testing.assert_array_equal(view, kept)
        assert alone.data.tobytes() == viewed.data.tobytes()

    # (name, shape, has a gradient): rows that do not divide into blocks, a 1-D run of
    # several blocks, rows each wider than a block, and a multi-block parameter with no gradient.
    BLOCKED = [("ragged_rows", (1000, 300), True), ("long_vector", (2 * ADAM_BLOCK + 5,), True),
               ("wide_rows", (3, ADAM_BLOCK + 7), True), ("no_grad", (ADAM_BLOCK // 10 + 1, 30), False)]

    @pytest.mark.parametrize("weight_decay", [0.0, 0.5])
    def test_blocked_step_matches_the_whole_array_update(self, weight_decay):
        rng = np.random.default_rng(5)
        starts = [rng.standard_normal(shape) for _, shape, _ in self.BLOCKED]
        assert [ADAM_BLOCK * len(a) // a.size or 1 for a in starts] == [109, ADAM_BLOCK, 1, 1092]
        assert sum(a.size for a in starts) > ADAM_PARALLEL_MIN  # both threads update slices
        pairs = [(Tensor(a.copy(), requires_grad=True), Tensor(a.copy(), requires_grad=True)) for a in starts]
        blocked = Adam([(name, p) for (name, _, _), (p, _) in zip(self.BLOCKED, pairs)], 0.01, weight_decay)
        reference = ReferenceAdam([(name, q) for (name, _, _), (_, q) in zip(self.BLOCKED, pairs)], 0.01, weight_decay)
        for _ in range(3):
            for (_, shape, has_grad), (p, q) in zip(self.BLOCKED, pairs):
                p.grad = q.grad = rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 3) if has_grad else None
            blocked.step()
            reference.step()
        for (name, _, has_grad), (p, q), start in zip(self.BLOCKED, pairs, starts):
            assert np.array_equal(p.data, start) == (not has_grad and not weight_decay), name
            assert p.data.tobytes() == q.data.tobytes(), name
            assert blocked.m[name].tobytes() == reference.m[name].tobytes(), name
            assert blocked.v[name].tobytes() == reference.v[name].tobytes(), name

    @pytest.mark.parametrize("split", [False, True], ids=["below-the-cut", "cut-at-0"])
    def test_small_step_matches_the_reference_on_either_path(self, monkeypatch, split):
        # Below ADAM_PARALLEL_MIN no slice reaches the worker; from a cut of 0 floats every step splits.
        calls = []

        def on_two_threads(mine, theirs):
            assert split, "a step below ADAM_PARALLEL_MIN floats used the worker thread"
            calls.append(True)
            return layers.on_two_threads(mine, theirs)

        monkeypatch.setattr(training, "on_two_threads", on_two_threads)
        if split:
            monkeypatch.setattr(training, "ADAM_PARALLEL_MIN", 0)
        rng = np.random.default_rng(8)
        shapes = [(3,), (5, 4), (1, 7), (2 * ADAM_BLOCK // 3, 4), (2,)]  # the fourth has three slices
        pairs = [(Tensor(a, requires_grad=True), Tensor(a.copy(), requires_grad=True))
                 for a in (rng.standard_normal(shape) for shape in shapes)]
        assert sum(p.data.size for p, _ in pairs) < ADAM_PARALLEL_MIN
        split_adam = Adam([(f"p{k}", p) for k, (p, _) in enumerate(pairs)], 0.01, 0.5)
        reference = ReferenceAdam([(f"p{k}", q) for k, (_, q) in enumerate(pairs)], 0.01, 0.5)
        for _ in range(3):
            for p, q in pairs:
                p.grad = q.grad = rng.standard_normal(p.shape)
            split_adam.step()
            reference.step()
        assert len(calls) == (3 if split else 0)
        for k, (p, q) in enumerate(pairs):
            assert p.data.tobytes() == q.data.tobytes(), k
            assert split_adam.m[f"p{k}"].tobytes() == reference.m[f"p{k}"].tobytes(), k
            assert split_adam.v[f"p{k}"].tobytes() == reference.v[f"p{k}"].tobytes(), k

    def test_split_steps_on_many_threads_share_the_worker(self, monkeypatch):
        # More stepping threads than cores queue on the one worker; each gets its own reference bytes.
        monkeypatch.setattr(training, "ADAM_PARALLEL_MIN", 0)
        rng = np.random.default_rng(12)
        starts = [rng.standard_normal((3 * ADAM_BLOCK // 40, 10)) for _ in range(6)]
        grads = [rng.standard_normal(a.shape) for a in starts]
        results, interval = [None] * len(starts), sys.getswitchinterval()

        def steps(k, optimizer):
            w = Tensor(starts[k].copy(), requires_grad=True)
            opt = optimizer([("w", w)], 0.01, 0.5)
            for _ in range(3):
                w.grad = grads[k]
                opt.step()
            return w.data

        def call(k):
            results[k] = steps(k, Adam)

        threads = [threading.Thread(target=call, args=(k,)) for k in range(len(starts))]
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for k, got in enumerate(results):
            assert got.tobytes() == steps(k, ReferenceAdam).tobytes(), k

    def test_step_peaks_at_one_new_array(self):
        # The whole-array update holds about five parameter-sized temporaries at once; the blocked one
        # holds the new array and a few slices.  NumPy reports its buffers to tracemalloc.
        w = Tensor(np.ones((2048, 1024)), requires_grad=True)
        w.grad = np.full(w.shape, 0.5)
        opt = Adam([("w", w)], lr=0.1, weight_decay=0.5)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            opt.step()
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * w.data.nbytes, peak / w.data.nbytes

    def test_non_finite_gradient_in_the_last_block_changes_nothing(self):
        w = Tensor(np.random.default_rng(2).standard_normal((1000, 300)), requires_grad=True)
        opt = Adam([("gcn.weight", w)], lr=0.1, weight_decay=0.5)
        w.grad = np.ones(w.shape)
        opt.step()
        held, data, m, v = w.data, w.data.copy(), opt.m["gcn.weight"].copy(), opt.v["gcn.weight"].copy()
        w.grad = np.ones(w.shape)
        w.grad[-1, -1] = np.nan
        with pytest.raises(OptimizationError, match="^non-finite gradient in gcn.weight$"):
            opt.step()
        assert w.data is held and w.data.tobytes() == data.tobytes()
        assert opt.m["gcn.weight"].tobytes() == m.tobytes() and opt.v["gcn.weight"].tobytes() == v.tobytes()

    def test_non_finite_gradient_in_the_last_parameter_changes_nothing(self):
        # The table alone passes the cut, so a step splits; the check runs before either half.
        rng = np.random.default_rng(4)
        params = [("embedding.table", Tensor(rng.standard_normal((1000, 300)), requires_grad=True)),
                  ("gcn.weight", Tensor(rng.standard_normal((6, 7)), requires_grad=True))]
        assert params[0][1].data.size > ADAM_PARALLEL_MIN
        opt = Adam(params, lr=0.1, weight_decay=0.5)
        for _, p in params:
            p.grad = np.ones(p.shape)
        opt.step()
        held = {name: (p.data, p.data.copy(), opt.m[name].copy(), opt.v[name].copy()) for name, p in params}
        params[-1][1].grad[-1, -1] = np.nan
        with pytest.raises(OptimizationError, match="^non-finite gradient in gcn.weight$"):
            opt.step()
        assert opt.t == 1
        for name, p in params:
            data, values, m, v = held[name]
            assert p.data is data and p.data.tobytes() == values.tobytes(), name
            assert opt.m[name].tobytes() == m.tobytes() and opt.v[name].tobytes() == v.tobytes(), name


def tiny_config(**overrides):
    base = dict(
        embedding_size=6,
        hidden_neurons=5,
        lstm_layers=1,
        dropout=0.0,
        batch_size=4,
        epochs=2,
        max_len=20,
        seed=42,
    )
    base.update(overrides)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def tiny_corpus():
    records = class_word_corpus(12, classes=7, rng=np.random.default_rng(3))
    return records[:8], records[8:]


class TestTrainLoop:
    def test_empty_corpus_rejected(self, tiny_corpus):
        train_recs, dev_recs = tiny_corpus
        with pytest.raises(ConfigError):
            train(tiny_config(), [], dev_recs)
        with pytest.raises(ConfigError):
            train(tiny_config(), train_recs, [])

    @pytest.mark.parametrize("parallel", [False, True], ids=["sequential", "parallel"])
    def test_predicting_on_another_thread_leaves_training_alone(self, tiny_corpus, tmp_path, monkeypatch, parallel):
        # Model.predict scores under no_grad(); a training run on another thread must keep recording its tape.
        monkeypatch.setattr(layers, "PARALLEL_MIN_STEP_WORK", 0 if parallel else math.inf)
        train_recs, dev_recs = tiny_corpus
        config = tiny_config(epochs=3)
        serial, threaded = tmp_path / "serial.jsonl", tmp_path / "threaded.jsonl"
        save_history(train(config, train_recs, dev_recs).history, serial)
        other = Model(config, build_vocab(train_recs), np.random.default_rng(5))
        stop, predictions, interval = threading.Event(), [], sys.getswitchinterval()

        def keep_predicting():
            while not stop.is_set():
                predictions.append(other.predict(dev_recs)[0])

        predictor = threading.Thread(target=keep_predicting)
        sys.setswitchinterval(1e-5)
        predictor.start()
        try:
            while not predictions and predictor.is_alive():
                time.sleep(0.001)
            save_history(train(config, train_recs, dev_recs).history, threaded)
        finally:
            stop.set()
            predictor.join(timeout=60)
            sys.setswitchinterval(interval)
        assert threaded.read_bytes() == serial.read_bytes()
        assert len(predictions) > 1 and all(p == predictions[0] for p in predictions)

    def test_history_schema_and_loss_decreases(self, tiny_corpus):
        train_recs, dev_recs = tiny_corpus
        result = train(tiny_config(epochs=6), train_recs, dev_recs)
        assert len(result.history) == 6
        first = result.history[0]
        for key in (
            "epoch",
            "train_loss",
            "train_accuracy",
            "train_micro_f",
            "train_macro_f",
            "dev_micro_f",
            "dev_macro_f",
            "dev_macro_precision",
            "dev_macro_recall",
        ):
            assert key in first
        assert result.history[-1]["train_loss"] < first["train_loss"]

    def test_best_epoch_tracks_dev_macro_f(self, tiny_corpus):
        train_recs, dev_recs = tiny_corpus
        result = train(tiny_config(epochs=5), train_recs, dev_recs)
        best = max(h["dev_macro_f"] for h in result.history)
        assert result.best_dev.macro_f == pytest.approx(best)
        assert result.history[result.best_epoch - 1]["dev_macro_f"] == pytest.approx(best)

    def test_padding_embedding_row_never_moves(self, tiny_corpus):
        train_recs, dev_recs = tiny_corpus
        result = train(tiny_config(epochs=3), train_recs, dev_recs)
        np.testing.assert_array_equal(
            result.model.embedding.table.data[0], np.zeros(result.model.config.embedding_size)
        )

    def test_same_seed_identical_history(self, tiny_corpus):
        train_recs, dev_recs = tiny_corpus
        first = train(tiny_config(epochs=3), train_recs, dev_recs)
        second = train(tiny_config(epochs=3), train_recs, dev_recs)
        assert first.history == second.history

    def test_unlabeled_record_rejected(self, tiny_corpus):
        train_recs, dev_recs = tiny_corpus
        from syngcn.corpus import Record

        bad = Record(("x",), ((0, 1),), (0,), None)
        with pytest.raises(ConfigError):
            train(tiny_config(), train_recs + [bad], dev_recs)

    @pytest.mark.parametrize(
        "bad, message",
        [
            (Record(("a", "b", "c"), ((0, 3),), (0, 3, 2), 0), "heads form a cycle through token 1"),
            (Record(tuple("abcde"), ((0, 2), (2, 5)), (0, 1, 0, 3, 2), 0), "heads form a cycle through token 3"),
            # Before, train() took integer tokens and saved a vocabulary load_checkpoint refuses.
            (Record((1, 2), ((0, 2),), (0, 1), 0), "tokens must be a sequence of strings, got (1, 2)"),
            (Record(("w",) * 21, ((0, 21),), (0,) + (1,) * 20, 0), "21 tokens exceed max_len 20"),
            (Record(("a", "b"), ((0, 2),), (0, 1.0), 0), "heads must be a sequence of integers, got (0, 1.0)"),
            (Record(("a", "b"), ((0, 2),), (0, 1), 1.0), "label must be an integer, got 1.0"),
            (Record(("a", "b"), ((0, 2),), ("0", 1), 0), "heads must be a sequence of integers, got ('0', 1)"),
            (Record(("a", "b"), ((0,),), (0, 1), 0), "sent_bounds must be a sequence of integer pairs, got ((0,),)"),
        ],
        ids=["cycle", "cycle-after-a-valid-sentence", "non-string-token", "over-long", "float-head", "float-label",
             "str-head", "one-element-span"],
    )
    def test_bad_dev_record_named_by_index(self, tiny_corpus, bad, message):
        # Record 9 comes after the 8 training records and the first dev record.
        train_recs, dev_recs = tiny_corpus
        with pytest.raises(CorpusError, match=f"^record 9: {re.escape(message)}$"):
            train(tiny_config(), train_recs, [dev_recs[0], bad, *dev_recs[1:]])

    def test_dropout_and_batch_norm_paths_run(self, tiny_corpus):
        train_recs, dev_recs = tiny_corpus
        result = train(
            tiny_config(dropout=0.5, batch_norm=True, epochs=1), train_recs, dev_recs
        )
        assert math.isfinite(result.history[0]["train_loss"])

    def test_average_and_fc_pooling_paths_run(self, tiny_corpus):
        train_recs, dev_recs = tiny_corpus
        for pooling in ("average", "fc"):
            result = train(tiny_config(pooling=pooling, epochs=1), train_recs, dev_recs)
            assert math.isfinite(result.history[0]["train_loss"])

    @pytest.mark.parametrize(
        "overrides,records,message",
        [
            (dict(learning_rate=1e300), 8, r"epoch 1, batch 2: non-finite logits"),
            (dict(lambda_orth=1e308), 8, r"epoch 1, batch 1: non-finite gradient in bilstm\.0\.fwd\.input\.w_x"),
            (dict(learning_rate=1e300, epochs=1), 4, r"epoch 1: non-finite class scores after the last batch"),
        ],
        ids=["logits", "adam", "last-batch"],
    )
    def test_divergence_names_epoch_and_batch_without_warnings(self, tiny_corpus, overrides, records, message):
        train_recs, dev_recs = tiny_corpus
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OptimizationError, match=f"^{message}$"):
                train(tiny_config(**overrides), train_recs[:records], dev_recs)

    def test_returned_model_holds_no_gradients(self, tiny_corpus):
        # The last batch's gradients were taken at other weights than the restored best epoch's.
        train_recs, dev_recs = tiny_corpus
        result = train(tiny_config(epochs=2), train_recs, dev_recs)
        assert [name for name, p in result.model.named_parameters() if p.grad is not None] == []


class TestModelForward:
    def test_probabilities_name_the_first_non_finite_record(self):
        # Each record runs its own Bi-LSTM sequence, GCN block and pooling column,
        # so a NaN embedding row spoils only the records that hold its word.
        records = [Record(tuple(words), ((0, len(words)),), (0,) + (1,) * (len(words) - 1), 0)
                   for words in ("a", "b", "ca", "c")]
        model = Model(tiny_config(), Vocabulary.from_words(["a", "b", "c"]))
        model.embedding.table.data[model.vocab.lookup("c")] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ScoreError, match="^record 2: non-finite class scores$"):
                model.probabilities([model.encode(rec) for rec in records])

    def test_eval_forward_bit_identical(self, tiny_corpus):
        train_recs, _ = tiny_corpus
        from syngcn.corpus import build_vocab

        config = tiny_config()
        model = Model(config, build_vocab(train_recs), np.random.default_rng(config.seed))
        labels_a, probs_a = model.predict(train_recs[:4])
        labels_b, probs_b = model.predict(train_recs[:4])
        assert labels_a == labels_b
        np.testing.assert_array_equal(probs_a, probs_b)

    def test_batch_logits_equal_each_records_own(self, tiny_corpus):
        train_recs, _ = tiny_corpus
        from syngcn.corpus import build_vocab

        config = tiny_config(lstm_layers=2)
        model = Model(config, build_vocab(train_recs), np.random.default_rng(config.seed))
        rng = np.random.default_rng(4)
        norm = model.batch_norm
        norm.running_mean, norm.running_var = rng.normal(size=10), rng.uniform(0.5, 2.0, size=10)
        encoded = [model.encode(rec) for rec in train_recs]
        batch = model.forward_batch(encoded)
        assert batch.shape == (len(encoded), config.classes)
        for logits, enc in zip(batch.data, encoded):
            np.testing.assert_allclose(logits, model.forward_batch([enc]).data[0], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("training", [False, True], ids=["eval", "training"])
    def test_lstm_runs_once_per_cell_per_batch(self, tiny_corpus, monkeypatch, training):
        train_recs, _ = tiny_corpus
        from syngcn import layers
        from syngcn.corpus import build_vocab

        config = tiny_config(lstm_layers=2, dropout=0.5)
        model = Model(config, build_vocab(train_recs), np.random.default_rng(config.seed))
        calls = []
        original = layers.LstmCell.run
        monkeypatch.setattr(layers.LstmCell, "run", lambda cell, *a, **k: calls.append(1) or original(cell, *a, **k))
        for size in (1, 3, 8):
            calls.clear()
            batch = [model.encode(rec) for rec in train_recs[:size]]
            assert model.forward_batch(batch, training, np.random.default_rng(0)).shape[0] == size
            assert len(calls) == 4

    @pytest.mark.parametrize("pooling", ["percentile", "average", "fc"])
    def test_tape_ops_do_not_grow_with_batch_size(self, tiny_corpus, monkeypatch, pooling):
        train_recs, _ = tiny_corpus
        config = tiny_config(lstm_layers=2, dropout=0.5, pooling=pooling)
        model = Model(config, build_vocab(train_recs), np.random.default_rng(config.seed))
        ops = []
        original = T.apply_op
        monkeypatch.setattr(T, "apply_op", lambda *args: ops.append(1) or original(*args))
        counts = []
        for size in (1, 3, 8):
            ops.clear()
            batch = [model.encode(rec) for rec in train_recs[:size]]
            logits = model.forward_batch(batch, True, np.random.default_rng(0))
            total_loss(logits, [rec.label for rec in train_recs[:size]], model.penalized_weights(), 1e-3, 1e-3)
            counts.append(len(ops))
        assert counts[0] == counts[1] == counts[2], counts

    @pytest.mark.parametrize("size", [0, 1, 4, 5], ids=["none", "one", "batch_size", "batch_size_plus_one"])
    def test_predict_equals_each_records_own_forward(self, tiny_corpus, size):
        train_recs, _ = tiny_corpus
        config = tiny_config(lstm_layers=2)
        model = Model(config, build_vocab(train_recs), np.random.default_rng(config.seed))
        rng = np.random.default_rng(6)
        norm = model.batch_norm
        norm.running_mean, norm.running_var = rng.normal(size=10), rng.uniform(0.5, 2.0, size=10)
        records = (train_recs * 2)[:size]
        labels, probs = model.predict(records)
        assert probs.shape == (size, config.classes) and len(labels) == size
        for rec, label, row in zip(records, labels, probs):
            own = T.softmax(model.forward_batch([model.encode(rec)]).data[0])
            np.testing.assert_allclose(row, own, rtol=0, atol=1e-12)
            assert label == int(np.argmax(row))

    @pytest.mark.parametrize(
        "bad, message",
        [
            (Record(("a",), ((0, 1),), (5,), None), "head 5 of token 0 outside its 1-token sentence"),
            (Record(("a", "b", "c"), ((0, 3),), (0, 3, 2), None), "heads form a cycle through token 1"),
            (Record(("a", "b"), ((0, 2),), (0, -1), None), "head -1 of token 1 outside its 2-token sentence"),
            (Record(("a", "b"), ((0, 2),), (0, 1.0), None), "heads must be a sequence of integers, got (0, 1.0)"),
            (Record(("a", "b"), ((0, 2),), (0, True), None), "heads must be a sequence of integers, got (0, True)"),
            (Record(("w",) * 25, ((0, 25),), (0,) + (1,) * 24, None), "25 tokens exceed max_len 20"),
        ],
        ids=["head-out-of-range", "cycle", "negative-head", "float-head", "bool-head", "over-long"],
    )
    def test_predict_names_a_bad_record(self, tiny_corpus, bad, message):
        # Before, an out-of-range head died in build_graph with an IndexError and a cycle was scored.
        train_recs, _ = tiny_corpus
        model = Model(tiny_config(), build_vocab(train_recs))
        with pytest.raises(CorpusError, match=f"^record 2: {re.escape(message)}$"):
            model.predict([train_recs[0], train_recs[1], bad, train_recs[2]])

    @pytest.mark.parametrize(
        "bad, message",
        [
            (Record(("a",), ((0, 1),), (5,), None), "head 5 of token 0 outside its 1-token sentence"),
            (Record(("a", "b"), ((0, 2),), (0, -1), None), "head -1 of token 1 outside its 2-token sentence"),
            (Record(("w",) * 21, ((0, 21),), (0,) + (1,) * 20, None), "21 tokens exceed max_len 20"),
        ],
        ids=["head-out-of-range", "negative-head", "over-long"],
    )
    def test_encode_rejects_a_bad_record(self, tiny_corpus, bad, message):
        model = Model(tiny_config(), build_vocab(tiny_corpus[0]))
        with pytest.raises(CorpusError, match=f"^record: {re.escape(message)}$"):
            model.encode(bad)

    @settings(max_examples=200)
    @given(st.lists(RECORD_ENTRIES, min_size=1, max_size=3))
    def test_any_in_memory_records_pass_or_name_the_record(self, tiny_corpus, entries):
        # Before, heads=5 or sent_bounds=5 escaped as a TypeError, a dict entry as an AttributeError.
        config = tiny_config(embedding_size=4, hidden_neurons=4, epochs=1)
        model = Model(config, build_vocab(tiny_corpus[0]))
        for call, count in (
            (lambda: check_records(entries), len(entries)),
            (lambda: model.predict(entries), len(entries)),
            (lambda: train(config, entries, entries), 2 * len(entries)),
        ):
            try:
                call()
            except CorpusError as exc:
                assert int(re.match(r"record (\d+): ", str(exc))[1]) < count, exc
            except ConfigError as exc:
                assert re.fullmatch(r"record (\d+) has no label", str(exc)), exc

    @pytest.mark.parametrize("batch_norm", [True, False], ids=["norm", "no_norm"])
    @pytest.mark.parametrize("pooling", ["percentile", "average", "fc"])
    def test_probabilities_equal_the_taped_softmax(self, tiny_corpus, pooling, batch_norm):
        train_recs, _ = tiny_corpus
        config = tiny_config(lstm_layers=2, pooling=pooling, batch_norm=batch_norm, batch_size=3)
        model = Model(config, build_vocab(train_recs), np.random.default_rng(config.seed))
        if batch_norm:
            rng = np.random.default_rng(4)
            model.batch_norm.running_mean, model.batch_norm.running_var = rng.normal(size=10), rng.uniform(0.5, 2, 10)
        encoded = [model.encode(rec) for rec in train_recs]
        taped = [model.forward_batch(encoded[start : start + 3]) for start in range(0, len(encoded), 3)]
        assert all(logits.requires_grad for logits in taped)
        expected = np.concatenate([T.softmax(logits.data) for logits in taped])
        np.testing.assert_array_equal(model.probabilities(encoded), expected)

    def test_probabilities_peak_stays_under_four_cells_of_tape(self):
        # Each LSTM cell's rule holds acts [n, 4h], hs and cs [n, h].  A
        # tape of the 2-layer Bi-LSTM holds four such sets; without a tape
        # the peak is one cell's working set, about 2.5 sets.  NumPy reports
        # its buffers to tracemalloc, so the figure repeats exactly.
        records = _random_records(np.random.default_rng(11), [30] * 8)
        config = tiny_config(embedding_size=16, hidden_neurons=32, lstm_layers=2, batch_size=8, max_len=30)
        model = Model(config, build_vocab(records), np.random.default_rng(0))
        encoded = [model.encode(rec) for rec in records]
        one_cell = 6 * 8 * 30 * 32 * 8  # bytes
        tracemalloc.start()
        try:
            model.probabilities(encoded)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * one_cell

    def test_probabilities_normalized(self, tiny_corpus):
        train_recs, _ = tiny_corpus
        from syngcn.corpus import build_vocab

        config = tiny_config()
        model = Model(config, build_vocab(train_recs), np.random.default_rng(config.seed))
        _, probs = model.predict(train_recs)
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(len(train_recs)), atol=1e-12)


def _random_records(rng, lengths, words=("a", "b", "c", "d", "e", "f")):
    """Records of the given lengths with random one- or two-sentence dependency trees."""
    records = []
    for n in lengths:
        cut = int(rng.integers(1, n)) if n > 1 and rng.random() < 0.5 else n
        bounds = [(0, cut)] + ([(cut, n)] if cut < n else [])
        heads = []
        for start, stop in bounds:
            order = rng.permutation(stop - start)
            sentence = [0] * (stop - start)
            for k in range(1, stop - start):
                sentence[order[k]] = int(order[rng.integers(0, k)]) + 1
            heads += sentence
        tokens = tuple(rng.choice(words, size=n).tolist())
        records.append(Record(tokens, tuple(bounds), tuple(heads), int(rng.integers(7))))
    return records


class TestPerRecordTailOracle:
    """The packed GCN, pooling and loss against the per-record tail in reference_tail."""

    @pytest.mark.parametrize("adjacency_mode", ["syntax", "all_ones"])
    @pytest.mark.parametrize("pooling", ["percentile", "average", "fc"])
    def test_logits_loss_and_gradients_match(self, pooling, adjacency_mode):
        rng = np.random.default_rng(len(pooling) * 7 + len(adjacency_mode))
        config = tiny_config(
            lstm_layers=2, dropout=0.5, pooling=pooling, adjacency_mode=adjacency_mode, lambda_orth=0.1, lambda_l2=0.1
        )
        for trial in range(3):
            lengths = rng.permutation([1, 1, 4, 4] + rng.integers(1, 12, size=trial * 3).tolist()).tolist()
            records = _random_records(rng, lengths)
            model = Model(config, build_vocab(records), np.random.default_rng(trial))
            encoded = [model.encode(rec) for rec in records]
            labels = [rec.label for rec in records]

            model.zero_grad()
            logits = model.forward_batch(encoded, training=True, rng=np.random.default_rng(5))
            loss = total_loss(logits, labels, model.penalized_weights(), config.lambda_orth, config.lambda_l2)
            backward(loss)
            grads = {name: p.grad for name, p in model.named_parameters()}

            model.zero_grad()
            ref_logits = reference_tail.per_record_logits(model, encoded, True, np.random.default_rng(5))
            ref_loss = reference_tail.per_record_loss(model, ref_logits, labels)
            backward(ref_loss)

            np.testing.assert_allclose(logits.data, np.stack([t.data for t in ref_logits]), rtol=0, atol=1e-12)
            assert abs(loss.item() - ref_loss.item()) <= 1e-12
            for name, p in model.named_parameters():
                np.testing.assert_allclose(grads[name], p.grad, rtol=0, atol=1e-12, err_msg=name)


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    records = class_word_corpus(12, classes=7, rng=np.random.default_rng(3))
    result = train(tiny_config(epochs=2), records[:8], records[8:])
    path = tmp_path_factory.mktemp("ckpt") / "model.sgcn"
    save_checkpoint(result.model, path)
    return result.model, path, records


class TestCheckpoint:
    @pytest.mark.parametrize("layers", [1, 3])
    @pytest.mark.parametrize("batch_norm", [True, False])
    @pytest.mark.parametrize("pooling", ["percentile", "average", "fc"])
    def test_state_shapes_match_a_built_model(self, pooling, batch_norm, layers):
        config = tiny_config(pooling=pooling, batch_norm=batch_norm, lstm_layers=layers)
        vocab = build_vocab(class_word_corpus(4, classes=7, rng=np.random.default_rng(0)))
        arrays = list(Model(config, vocab).state_arrays())
        assert list(state_shapes(config, len(vocab))) == [(name, arr.shape) for name, arr in arrays]
        assert state_bytes(config, len(vocab)) == sum(arr.nbytes for _, arr in arrays)

    @pytest.mark.parametrize("layers", [1, 3])
    @pytest.mark.parametrize("pooling", ["percentile", "average", "fc"])
    def test_init_draws_table_then_one_gaussian_per_weight(self, pooling, layers):
        # train()'s batch order and dropout masks follow the init on the same generator.
        config = tiny_config(pooling=pooling, lstm_layers=layers)
        vocab = build_vocab(class_word_corpus(4, classes=7, rng=np.random.default_rng(0)))
        rng, by_hand = np.random.default_rng(11), np.random.default_rng(11)
        Model(config, vocab, rng)
        by_hand.uniform(-0.05, 0.05, size=(len(vocab), config.embedding_size))
        for name, shape in state_shapes(config, len(vocab)):
            if name.endswith((".w_x", ".w_h", "gcn.weight", "fc_head.weight")):
                by_hand.standard_normal(shape)
        assert rng.bit_generator.state == by_hand.bit_generator.state

    @pytest.mark.parametrize("batch_norm", [True, False])
    @pytest.mark.parametrize("pooling", ["percentile", "average", "fc"])
    def test_load_draws_no_initialisation(self, trained, tmp_path, monkeypatch, pooling, batch_norm):
        model, _, _ = trained
        saved = Model(replace(model.config, pooling=pooling, batch_norm=batch_norm), model.vocab)
        path = tmp_path / "model.sgcn"
        save_checkpoint(saved, path)

        def refuse(*args, **kwargs):
            raise AssertionError("load_checkpoint drew an initialisation")

        monkeypatch.setattr(np.linalg, "svd", refuse)
        monkeypatch.setattr(np.random, "default_rng", refuse)
        loaded = load_checkpoint(path)
        assert [name for name, _ in loaded.state_arrays()] == [name for name, _ in saved.state_arrays()]
        for (name, want), (_, got) in zip(saved.state_arrays(), loaded.state_arrays()):
            assert want.tobytes() == got.tobytes(), name

    def test_loaded_arrays_are_owned_and_trainable(self, trained):
        _, path, records = trained
        loaded = load_checkpoint(path)
        arrays = [arr for _, arr in loaded.state_arrays()]
        for name, arr in loaded.state_arrays():
            assert arr.dtype == np.float64 and arr.flags.c_contiguous and arr.flags.aligned, name
            assert arr.flags.writeable and arr.flags.owndata, name
        for i, a in enumerate(arrays):
            assert not any(np.shares_memory(a, b) for b in arrays[i + 1 :])
        optimizer = Adam(loaded.named_parameters())
        logits = loaded.forward_batch([loaded.encode(rec) for rec in records[:4]])
        backward(total_loss(logits, [rec.label for rec in records[:4]], loaded.penalized_weights(), 1e-8, 1e-8))
        before = loaded.snapshot()
        optimizer.step()
        assert any(not np.array_equal(before[name], arr) for name, arr in loaded.state_arrays())

    def test_load_holds_no_copy_of_the_payload(self, tmp_path):
        # Each array is read straight into the model's own: the peak is the model, the
        # header's objects and one finiteness mask, not the model twice.
        config = tiny_config(embedding_size=64, hidden_neurons=64, lstm_layers=2)
        saved = Model(config, Vocabulary.from_words([f"word{i}" for i in range(500)]))
        path = tmp_path / "model.sgcn"
        save_checkpoint(saved, path)
        model_bytes = sum(arr.nbytes for _, arr in saved.state_arrays())
        header_len = struct.unpack("<IQ", path.read_bytes()[4:16])[1]
        del saved
        tracemalloc.start()
        try:
            loaded = load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(arr.nbytes for _, arr in loaded.state_arrays()) == model_bytes
        assert peak < 1.3 * (model_bytes + header_len)

    def test_round_trip_bit_identical(self, trained):
        model, path, _ = trained
        loaded = load_checkpoint(path)
        assert loaded.config == model.config
        assert loaded.vocab.word_to_id == model.vocab.word_to_id
        for (name_a, arr_a), (name_b, arr_b) in zip(model.state_arrays(), loaded.state_arrays()):
            assert name_a == name_b
            np.testing.assert_array_equal(arr_a, arr_b)

    def test_predictions_survive_round_trip(self, trained):
        model, path, records = trained
        loaded = load_checkpoint(path)
        labels_a, probs_a = model.predict(records[:10])
        labels_b, probs_b = loaded.predict(records[:10])
        assert labels_a == labels_b
        np.testing.assert_array_equal(probs_a, probs_b)

    def test_truncated_file_rejected(self, trained, tmp_path):
        _, path, _ = trained
        blob = path.read_bytes()
        for cut in (4, 10, len(blob) // 2, len(blob) - 1):
            clipped = tmp_path / f"cut{cut}.sgcn"
            clipped.write_bytes(blob[:cut])
            with pytest.raises(CheckpointError):
                load_checkpoint(clipped)

    def test_wrong_magic_rejected(self, trained, tmp_path):
        _, path, _ = trained
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        bad = tmp_path / "magic.sgcn"
        bad.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="not a checkpoint"):
            load_checkpoint(bad)

    @pytest.mark.parametrize("target", ["missing", "directory"])
    def test_unreadable_path_rejected(self, tmp_path, target):
        path = tmp_path / "absent.sgcn" if target == "missing" else tmp_path
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(path)
        assert str(info.value).startswith(f"cannot read checkpoint {path}: "), info.value

    def test_version_mismatch_rejected(self, trained, tmp_path):
        import struct

        _, path, _ = trained
        blob = bytearray(path.read_bytes())
        blob[4:8] = struct.pack("<I", 99)
        bad = tmp_path / "version.sgcn"
        bad.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(bad)

    def test_corrupt_header_rejected(self, trained, tmp_path):
        _, path, _ = trained
        blob = bytearray(path.read_bytes())
        blob[20] = ord("!")  # deface the JSON header
        bad = tmp_path / "header.sgcn"
        bad.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError):
            load_checkpoint(bad)

    @pytest.mark.parametrize("byte", [b"\xff", b"!"], ids=["not_utf8", "not_json"])
    def test_header_bytes_name_the_fault(self, trained, tmp_path, byte):
        _, path, _ = trained
        blob = path.read_bytes()
        bad = tmp_path / "header.sgcn"
        bad.write_bytes(blob[:16] + byte + blob[17:])
        with pytest.raises(CheckpointError, match="header.sgcn header: (not UTF-8|invalid JSON)"):
            load_checkpoint(bad)

    @pytest.mark.parametrize(
        "field, pooling, array",
        [
            ("embedding_size", "percentile", "embedding.table"),
            ("hidden_neurons", "percentile", "bilstm.0.fwd.input.w_x"),
            ("lstm_layers", "percentile", "bilstm.1.fwd.input.w_x"),
            ("max_len", "fc", "fc_head.weight"),
        ],
    )
    def test_oversized_config_rejected_before_allocating(self, trained, tmp_path, field, pooling, array):
        # A billion in any of these asks Model() for more memory than a host has, or for a billion layers.
        model, _, _ = trained
        source = tmp_path / "source.sgcn"
        save_checkpoint(Model(replace(model.config, pooling=pooling), model.vocab), source)
        bad = tmp_path / "huge.sgcn"
        huge = self._rewrite_header(source.read_bytes(), lambda header: header["config"].update({field: 10**9}))
        bad.write_bytes(huge)
        with pytest.raises(CheckpointError, match=f"is not the config's \\('{array}'"):
            load_checkpoint(bad)

    def test_out_of_range_config_names_field_and_value(self, trained, tmp_path):
        _, path, _ = trained
        bad = tmp_path / "zero.sgcn"
        zero = self._rewrite_header(path.read_bytes(), lambda header: header["config"].update(hidden_neurons=0))
        bad.write_bytes(zero)
        with pytest.raises(CheckpointError, match="corrupt header: hidden_neurons must be at least 1, got 0"):
            load_checkpoint(bad)

    def test_a_header_config_missing_fields_names_them(self, trained, tmp_path):
        # Read with their defaults, these two would load as pooling_p 50.0 and adjacency_mode "syntax".
        model, _, _ = trained
        source = tmp_path / "source.sgcn"
        save_checkpoint(Model(replace(model.config, pooling_p=25.0, adjacency_mode="all_ones"), model.vocab), source)

        def edit(header):
            del header["config"]["adjacency_mode"], header["config"]["pooling_p"]

        bad = tmp_path / "short.sgcn"
        bad.write_bytes(self._rewrite_header(source.read_bytes(), edit))
        with pytest.raises(CheckpointError, match="corrupt header: config lacks pooling_p, adjacency_mode$"):
            load_checkpoint(bad)

    @pytest.mark.parametrize("config", ["abc", ["pooling_p"], 7])
    def test_a_header_config_of_another_json_type_is_named(self, trained, tmp_path, config):
        _, path, _ = trained
        bad = tmp_path / "mistyped.sgcn"
        bad.write_bytes(self._rewrite_header(path.read_bytes(), lambda header: header.update(config=config)))
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(bad)
        assert str(info.value) == f"{bad} has a corrupt header: config must be a JSON object"

    def test_large_max_len_loads_without_an_fc_head(self, trained, tmp_path):
        _, path, _ = trained
        wide = tmp_path / "wide.sgcn"
        long = self._rewrite_header(path.read_bytes(), lambda header: header["config"].update(max_len=10**9))
        wide.write_bytes(long)
        assert load_checkpoint(wide).config.max_len == 10**9

    @staticmethod
    def _rewrite_header(blob: bytes, edit) -> bytes:
        header_len = struct.unpack("<Q", blob[8:16])[0]
        header = json.loads(blob[16 : 16 + header_len])
        edit(header)
        raw = json.dumps(header, sort_keys=True).encode("utf-8")
        return blob[:8] + struct.pack("<Q", len(raw)) + raw + blob[16 + header_len :]

    @classmethod
    def _rewrite_manifest(cls, blob: bytes, edit) -> bytes:
        return cls._rewrite_header(blob, lambda header: edit(header["arrays"]))

    @pytest.mark.parametrize(
        "edit, field",
        [
            (lambda arrays: arrays[0].pop("shape"), "shape"),
            (lambda arrays: arrays[0].pop("name"), "name"),
            (lambda arrays: arrays[0].update(shape=[2.5, 4]), "shape"),
            (lambda arrays: arrays[0].update(shape=[-1, 4]), "shape"),
            (lambda arrays: arrays[0].update(shape="34"), "shape"),
            (lambda arrays: arrays[-1]["shape"].append(1), "batch_norm.running_var"),
        ],
    )
    def test_malformed_manifest_entry_rejected(self, trained, tmp_path, edit, field):
        _, path, _ = trained
        bad = tmp_path / "manifest.sgcn"
        bad.write_bytes(self._rewrite_manifest(path.read_bytes(), edit))
        with pytest.raises(CheckpointError, match=field):
            load_checkpoint(bad)

    @settings(max_examples=150)
    @given(
        key=st.sampled_from(["name", "shape"]),
        value=st.recursive(
            st.none() | st.booleans() | st.integers(-2, 40) | st.floats(allow_nan=False) | st.text(max_size=4),
            lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
            max_leaves=6,
        ),
    )
    def test_any_manifest_value_loads_or_raises_checkpoint_error(self, trained, tmp_path, key, value):
        _, path, _ = trained
        bad = tmp_path / "fuzz.sgcn"
        bad.write_bytes(self._rewrite_manifest(path.read_bytes(), lambda arrays: arrays[1].update({key: value})))
        try:
            load_checkpoint(bad)
        except CheckpointError:
            pass

    @pytest.mark.parametrize(
        "name, value",
        [("gcn.weight", np.nan), ("embedding.table", -np.inf), ("batch_norm.running_var", np.inf)],
    )
    def test_non_finite_array_rejected(self, trained, tmp_path, name, value):
        _, path, _ = trained
        model = load_checkpoint(path)
        dict(model.state_arrays())[name].flat[-1] = value
        bad = tmp_path / "nonfinite.sgcn"
        save_checkpoint(model, bad)
        with pytest.raises(CheckpointError, match=name):
            load_checkpoint(bad)

    def test_negative_running_variance_rejected(self, trained, tmp_path):
        # A flipped sign bit: the variance's square root would be NaN in every prediction.
        _, path, _ = trained
        model = load_checkpoint(path)
        model.batch_norm.running_var[-1] *= -1.0
        bad = tmp_path / "negative.sgcn"
        save_checkpoint(model, bad)
        with pytest.raises(CheckpointError, match="batch_norm.running_var holds negative variances"):
            load_checkpoint(bad)

    @pytest.mark.parametrize("first", [None, 0, 1.5, True, ["a"], "DUPLICATE"])
    def test_vocab_words_must_be_distinct_strings(self, trained, tmp_path, first):
        _, path, _ = trained

        def edit(header):
            words = header["vocab_words"]
            words[0] = words[1] if first == "DUPLICATE" else first

        bad = tmp_path / "vocab.sgcn"
        bad.write_bytes(self._rewrite_header(path.read_bytes(), edit))
        with pytest.raises(CheckpointError, match="vocab_words must be|unhashable"):
            load_checkpoint(bad)

    @settings(max_examples=300)
    @given(data=st.data())
    def test_any_corruption_raises_checkpoint_error_or_loads_finite(self, trained, tmp_path, data):
        _, path, _ = trained
        blob = path.read_bytes()
        header_end = 16 + struct.unpack("<Q", blob[8:16])[0]
        kinds = ["truncate", "prefix", "header", "payload", "value", "word", "float", "drop", "config"]
        kind, dropped, mistyped = data.draw(st.sampled_from(kinds)), None, False
        if kind == "truncate":
            bad = blob[: data.draw(st.integers(0, len(blob) - 1))]
        elif kind == "float":
            slot = header_end + 8 * data.draw(st.integers(0, (len(blob) - header_end) // 8 - 1))
            value = struct.pack("<d", data.draw(st.sampled_from([np.nan, np.inf, -np.inf, 1e308, -0.0])))
            bad = blob[:slot] + value + blob[slot + 8 :]
        elif kind == "word":
            index = data.draw(st.integers(0, 7))
            value = data.draw(WRONG_TYPES | st.sampled_from(["filler0", "classword6", "unseen"]))
            bad = self._rewrite_header(blob, lambda header: header["vocab_words"].__setitem__(index, value))
        elif kind == "value":
            # Integers as large as 2**40 too: no config may allocate before the manifest bounds it.
            fields = [f"config.{name}" for name in TrainConfig.__dataclass_fields__]
            key = data.draw(st.sampled_from(["config", "vocab_words", "arrays", "format_version", *fields]))
            value = data.draw(WRONG_TYPES | st.integers(-2, 2**40))

            def edit(header):
                owner = header["config"] if key.startswith("config.") else header
                owner[key.removeprefix("config.")] = value

            bad = self._rewrite_header(blob, edit)
        elif kind == "config":  # a config of any JSON type but an object
            value = data.draw(st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
                              | st.lists(st.sampled_from([*TrainConfig.__dataclass_fields__, 0]), max_size=3))
            bad, mistyped = self._rewrite_header(blob, lambda header: header.update(config=value)), True
        elif kind == "drop":  # a checkpoint's config must hold every field: none may fall back to a default
            dropped = data.draw(st.sampled_from(list(TrainConfig.__dataclass_fields__)))
            bad = self._rewrite_header(blob, lambda header: header["config"].pop(dropped))
        else:
            low, high = {"prefix": (0, 16), "header": (16, header_end), "payload": (header_end, len(blob))}[kind]
            flipped = bytearray(blob)
            flipped[data.draw(st.integers(low, high - 1))] ^= 1 << data.draw(st.integers(0, 7))
            bad = bytes(flipped)
        target = tmp_path / "fuzz.sgcn"
        target.write_bytes(bad)
        try:
            model = load_checkpoint(target)
        except CheckpointError as exc:
            assert dropped is None or str(exc).endswith(f"config lacks {dropped}")
            assert not mistyped or str(exc) == f"{target} has a corrupt header: config must be a JSON object"
            return
        assert dropped is None and not mistyped
        assert all(np.isfinite(arr).all() for _, arr in model.state_arrays())
        assert all(isinstance(word, str) for word in model.vocab.words)

    def test_failed_save_leaves_existing_file(self, trained, tmp_path, monkeypatch):
        model, _, _ = trained
        target = tmp_path / "model.sgcn"
        save_checkpoint(model, target)
        before = target.read_bytes()

        class DiskFull:
            shape = (2,)

            def __array__(self, dtype=None, copy=None):
                raise OSError("disk full")

        arrays = model.state_arrays()
        monkeypatch.setattr(model, "state_arrays", lambda: arrays[:1] + [("boom", DiskFull())] + arrays[1:])
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(model, target)
        assert target.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.sgcn"]

    def test_non_finite_probabilities_are_not_written(self, trained):
        _, path, records = trained
        model = load_checkpoint(path)
        model.gcn.weight.data[0, 0] = np.nan
        with pytest.raises(ValueError):
            predictions_to_lines(model, records[:2])

    def test_save_twice_identical_bytes(self, trained, tmp_path):
        model, _, _ = trained
        a, b = tmp_path / "a.sgcn", tmp_path / "b.sgcn"
        save_checkpoint(model, a)
        save_checkpoint(model, b)
        assert a.read_bytes() == b.read_bytes()


class TestHistoryFiles:
    def test_round_trip_and_stable_bytes(self, tmp_path):
        history = [
            {"epoch": 1, "train_loss": 1.5, "dev_macro_f": 0.25},
            {"epoch": 2, "train_loss": 1.1, "dev_macro_f": 0.5},
        ]
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_history(history, a)
        save_history(history, b)
        assert load_history(a) == history
        assert a.read_bytes() == b.read_bytes()

    def test_failed_save_leaves_existing_file(self, tmp_path):
        path = tmp_path / "history.jsonl"
        save_history([{"epoch": 1}], path)
        before = path.read_bytes()
        with pytest.raises(TypeError):
            save_history([{"epoch": 2}, {"epoch": object()}], path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["history.jsonl"]

    def test_bad_line_names_path_and_line(self, tmp_path):
        path = tmp_path / "history.jsonl"
        path.write_bytes(b'{"epoch": 1}\n\n{"epoch": \n')
        with pytest.raises(ValueError, match="history.jsonl: line 3: invalid JSON"):
            load_history(path)

    def test_non_finite_value_is_not_written(self, tmp_path):
        path = tmp_path / "history.jsonl"
        save_history([{"epoch": 1}], path)
        with pytest.raises(ValueError):
            save_history([{"epoch": 2, "train_loss": float("nan")}], path)
        assert load_history(path) == [{"epoch": 1}]

"""Config, loss, optimizer, training-loop, and checkpoint tests."""

import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from syngcn.layers import orthogonal_init
from syngcn.synthetic import class_word_corpus
from syngcn.tensor import Tensor, backward, mul, softmax_cross_entropy, sum_all
from syngcn.training import (
    Adam,
    CheckpointError,
    ConfigError,
    Model,
    OptimizationError,
    TrainConfig,
    load_checkpoint,
    load_config,
    load_history,
    orthogonality_penalty,
    save_checkpoint,
    save_history,
    total_loss,
    train,
)

from helpers import check_gradients


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
        ],
    )
    def test_invalid_values_rejected(self, overrides):
        with pytest.raises(ConfigError):
            TrainConfig(**overrides)

    def test_round_trip_dict(self):
        config = TrainConfig(hidden_neurons=8, classes=2, pooling="average")
        assert TrainConfig.from_dict(config.to_dict()) == config

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ConfigError, match="momentum"):
            TrainConfig.from_dict({"momentum": 0.9})

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
        logits = [Tensor(rng.uniform(-1.0, 1.0, size=classes), requires_grad=True) for _ in range(n)]
        labels = [int(rng.integers(classes)) for _ in range(n)]
        return logits, labels

    def test_zero_lambdas_give_plain_mean_cross_entropy(self):
        rng = np.random.default_rng(13)
        logits, labels = self._batch(rng)
        w = Tensor(rng.uniform(size=(3, 3)), requires_grad=True)
        loss = total_loss(logits, labels, [w], lambda_orth=0.0, lambda_l2=0.0)
        expected = np.mean(
            [softmax_cross_entropy(Tensor(l.data), y).item() for l, y in zip(logits, labels)]
        )
        assert loss.item() == pytest.approx(expected, rel=1e-12)

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
        w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        err = check_gradients(
            lambda: total_loss(logits, labels, [w], 0.7, 0.3), [w] + logits
        )
        assert err < 1e-5

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            total_loss([], [], [], 0.0, 0.0)


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

    def test_decoupled_weight_decay_shrinks_weights(self):
        w = Tensor(np.array([2.0]), requires_grad=True)
        opt = Adam([("w", w)], lr=0.1, weight_decay=0.5)
        w.grad = np.zeros(1)
        opt.step()
        assert w.data[0] == pytest.approx(2.0 * (1.0 - 0.1 * 0.5))


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


class TestModelForward:
    def test_eval_forward_bit_identical(self, tiny_corpus):
        train_recs, _ = tiny_corpus
        from syngcn.corpus import build_vocab

        config = tiny_config()
        model = Model(config, build_vocab(train_recs), np.random.default_rng(config.seed))
        labels_a, probs_a = model.predict(train_recs[:4])
        labels_b, probs_b = model.predict(train_recs[:4])
        assert labels_a == labels_b
        np.testing.assert_array_equal(probs_a, probs_b)

    def test_probabilities_normalized(self, tiny_corpus):
        train_recs, _ = tiny_corpus
        from syngcn.corpus import build_vocab

        config = tiny_config()
        model = Model(config, build_vocab(train_recs), np.random.default_rng(config.seed))
        _, probs = model.predict(train_recs)
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(len(train_recs)), atol=1e-12)


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    records = class_word_corpus(12, classes=7, rng=np.random.default_rng(3))
    result = train(tiny_config(epochs=2), records[:8], records[8:])
    path = tmp_path_factory.mktemp("ckpt") / "model.sgcn"
    save_checkpoint(result.model, path)
    return result.model, path, records


class TestCheckpoint:
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

    @staticmethod
    def _rewrite_manifest(blob: bytes, edit) -> bytes:
        import struct

        header_len = struct.unpack("<Q", blob[8:16])[0]
        header = json.loads(blob[16 : 16 + header_len])
        edit(header["arrays"])
        raw = json.dumps(header, sort_keys=True).encode("utf-8")
        return blob[:8] + struct.pack("<Q", len(raw)) + raw + blob[16 + header_len :]

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

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
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

"""Layer tests: embeddings, Bi-LSTM, batch norm, GCN, pooling, init."""

import math
from fractions import Fraction

import numpy as np
import pytest

from syngcn import tensor as T
from syngcn.corpus import Vocabulary
from syngcn.layers import (
    BatchNorm,
    BiLstm,
    EmbeddingTable,
    FcHead,
    GcnLayer,
    LstmCell,
    _sigmoid,
    average_pool,
    orthogonal_init,
    percentile_pool,
)
from syngcn.tensor import ShapeError, Tensor, backward, mul, sum_all

import reference_lstm
from helpers import check_gradients, rand_tensor


class TestEmbedding:
    def test_lookup_returns_table_rows(self):
        rng = np.random.default_rng(3)
        table = EmbeddingTable(vocab_size=6, dim=4, rng=rng)
        out = table([3])
        np.testing.assert_array_equal(out.data, table.table.data[3:4])

    def test_oov_maps_to_unknown_row(self):
        rng = np.random.default_rng(3)
        table = EmbeddingTable(vocab_size=6, dim=4, rng=rng)
        vocab = Vocabulary.from_words(["a", "b"])
        ids = vocab.encode(["b", "never-seen"])
        out = table(ids)
        np.testing.assert_array_equal(out.data[1], table.table.data[Vocabulary.UNK])

    def test_padding_row_is_zero(self):
        table = EmbeddingTable(vocab_size=5, dim=3, rng=np.random.default_rng(0))
        np.testing.assert_array_equal(table.table.data[0], np.zeros(3))

    def test_gradient_counts_occurrences(self):
        table = EmbeddingTable(vocab_size=5, dim=3, rng=np.random.default_rng(1))
        backward(sum_all(table([2, 4, 2, 2])))
        grad = table.table.grad
        np.testing.assert_array_equal(grad[2], np.full(3, 3.0))
        np.testing.assert_array_equal(grad[4], np.full(3, 1.0))
        np.testing.assert_array_equal(grad[[0, 1, 3]], np.zeros((3, 3)))


def _cell_outputs_and_grads(run, cell, x_data, cotangent):
    """Output of run(x), then x.grad and the 12 per-gate gradients."""
    x = Tensor(x_data, requires_grad=True)
    for _, p in cell.parameters():
        p.zero_grad()
    out = run(x)
    backward(sum_all(mul(out, Tensor(cotangent))))
    return [out.data, x.grad] + [p.grad for _, p in cell.parameters()]


class TestLstmCell:
    @pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reverse"])
    @pytest.mark.parametrize("n", [1, 2, 23, 41])
    def test_run_matches_per_step_oracle(self, n, reverse):
        rng = np.random.default_rng(1000 * n + reverse)
        for _ in range(3):
            d, hidden = (int(v) for v in rng.integers(1, 9, size=2))
            cell = LstmCell(d, hidden, rng, name="cell")
            for gate in LstmCell.GATES:
                cell.bias[gate].data[...] = rng.normal(size=(1, hidden))
            x = rng.normal(size=(n, d))
            cot = rng.normal(size=(n, hidden))
            fused = _cell_outputs_and_grads(lambda t: cell.run(t, reverse=reverse), cell, x, cot)
            oracle = _cell_outputs_and_grads(lambda t: reference_lstm.run(cell, t, reverse), cell, x, cot)
            assert len(fused) == 14
            for got, want in zip(fused, oracle):
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)

    def test_run_is_one_tape_op(self):
        rng = np.random.default_rng(3)
        cell = LstmCell(4, 3, rng, name="cell")
        x = rand_tensor(rng, (6, 4))
        out = cell.run(x)
        assert out.shape == (6, 3)
        assert out._parents == (x, *(p for _, p in cell.parameters()))

    def test_sigmoid_at_zero(self):
        assert _sigmoid(np.array(0.0)) == 0.5

    def test_saturating_inputs_stay_finite(self):
        rng = np.random.default_rng(5)
        cell = LstmCell(3, 4, rng, name="cell")
        x = np.array([[1000.0, -1000.0, 500.0], [-1000.0, 1000.0, -500.0], [1000.0, 1000.0, 1000.0]])
        for reverse in (False, True):
            results = _cell_outputs_and_grads(
                lambda t: cell.run(t, reverse=reverse), cell, x, rng.normal(size=(3, 4))
            )
            for arr in results:
                assert np.all(np.isfinite(arr))
        np.testing.assert_allclose(_sigmoid(np.array([-1000.0, 1000.0])), [0.0, 1.0], atol=1e-12)


def tie_directions(bilstm):
    """Copy each forward cell's weights onto its backward twin."""
    for fwd, bwd in bilstm.cells:
        for gate in LstmCell.GATES:
            bwd.w_x[gate].data[...] = fwd.w_x[gate].data
            bwd.w_h[gate].data[...] = fwd.w_h[gate].data
            bwd.bias[gate].data[...] = fwd.bias[gate].data


class TestBiLstm:
    def test_output_shape(self):
        rng = np.random.default_rng(5)
        net = BiLstm(input_dim=4, hidden=6, layers=2, dropout=0.0, rng=rng)
        assert net(rand_tensor(rng, (1, 4))).shape == (1, 12)
        assert net(rand_tensor(rng, (7, 4))).shape == (7, 12)
        assert net.output_dim == 12

    def test_forget_bias_starts_at_one(self):
        net = BiLstm(input_dim=3, hidden=4, layers=1, dropout=0.0, rng=np.random.default_rng(7))
        fwd, bwd = net.cells[0]
        np.testing.assert_array_equal(fwd.bias["forget"].data, np.ones((1, 4)))
        np.testing.assert_array_equal(fwd.bias["input"].data, np.zeros((1, 4)))
        np.testing.assert_array_equal(bwd.bias["forget"].data, np.ones((1, 4)))

    def test_reversal_swaps_halves_under_tied_weights(self):
        rng = np.random.default_rng(11)
        net = BiLstm(input_dim=3, hidden=4, layers=1, dropout=0.0, rng=rng)
        tie_directions(net)
        x = rng.uniform(-1.0, 1.0, size=(5, 3))
        out = net(Tensor(x)).data
        out_rev = net(Tensor(x[::-1].copy())).data
        h = net.hidden
        # reversing the sequence exchanges the directional halves
        np.testing.assert_allclose(out_rev[::-1, :h], out[:, h:], atol=1e-12)
        np.testing.assert_allclose(out_rev[::-1, h:], out[:, :h], atol=1e-12)

    def test_eval_forward_is_deterministic(self):
        rng = np.random.default_rng(13)
        net = BiLstm(input_dim=3, hidden=4, layers=2, dropout=0.5, rng=rng)
        x = Tensor(rng.uniform(-1.0, 1.0, size=(4, 3)))
        first = net(x).data
        second = net(x).data
        np.testing.assert_array_equal(first, second)

    def test_training_dropout_needs_rng_and_perturbs(self):
        rng = np.random.default_rng(17)
        net = BiLstm(input_dim=3, hidden=4, layers=1, dropout=0.5, rng=rng)
        x = Tensor(rng.uniform(-1.0, 1.0, size=(4, 3)))
        with pytest.raises(ValueError):
            net(x, training=True)
        dropped = net(x, training=True, rng=np.random.default_rng(99)).data
        clean = net(x).data
        assert not np.allclose(dropped, clean)
        again = net(x, training=True, rng=np.random.default_rng(99)).data
        np.testing.assert_array_equal(dropped, again)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(19)
        net = BiLstm(input_dim=4, hidden=5, layers=2, dropout=0.0, rng=rng)
        x = rand_tensor(rng, (3, 4))
        cot = Tensor(rng.uniform(-1.0, 1.0, size=(3, 10)))
        params = [x] + [t for _, t in net.parameters()]
        err = check_gradients(lambda: sum_all(mul(net(x), cot)), params)
        assert err < 1e-4


class TestBatchNorm:
    def test_training_normalizes_columns(self):
        rng = np.random.default_rng(23)
        bn = BatchNorm(features=4)
        x = Tensor(rng.normal(3.0, 2.5, size=(64, 4)))
        out = bn(x, training=True).data
        np.testing.assert_allclose(out.mean(axis=0), np.zeros(4), atol=1e-10)
        np.testing.assert_allclose(out.std(axis=0), np.ones(4), atol=1e-3)

    def test_running_statistics_update(self):
        rng = np.random.default_rng(29)
        bn = BatchNorm(features=3, momentum=0.1)
        x = rng.normal(1.0, 2.0, size=(50, 3))
        bn(Tensor(x), training=True)
        np.testing.assert_allclose(bn.running_mean, 0.1 * x.mean(axis=0), atol=1e-12)
        np.testing.assert_allclose(bn.running_var, 0.9 * 1.0 + 0.1 * x.var(axis=0, ddof=1), atol=1e-12)

    def test_eval_uses_running_statistics(self):
        bn = BatchNorm(features=2)
        bn.load_state(np.array([1.0, -1.0]), np.array([4.0, 0.25]))
        out = bn(Tensor([[3.0, 0.0]])).data
        expected = (np.array([[3.0, 0.0]]) - [1.0, -1.0]) / np.sqrt(np.array([4.0, 0.25]) + bn.eps)
        np.testing.assert_allclose(out, expected, rtol=1e-12)
        np.testing.assert_array_equal(bn.running_mean, [1.0, -1.0])  # eval never updates

    def test_training_gradients_match_finite_differences(self):
        rng = np.random.default_rng(31)
        bn = BatchNorm(features=4)
        bn.gamma.data[...] = rng.uniform(0.5, 1.5, size=4)
        bn.beta.data[...] = rng.uniform(-0.5, 0.5, size=4)
        x = rand_tensor(rng, (6, 4))
        cot = Tensor(rng.uniform(-1.0, 1.0, size=(6, 4)))
        err = check_gradients(lambda: sum_all(mul(bn(x, training=True), cot)), [x, bn.gamma, bn.beta])
        assert err < 1e-6

    def test_eval_gradients_match_finite_differences(self):
        rng = np.random.default_rng(37)
        bn = BatchNorm(features=3)
        bn.load_state(rng.normal(size=3), rng.uniform(0.5, 2.0, size=3))
        x = rand_tensor(rng, (5, 3))
        cot = Tensor(rng.uniform(-1.0, 1.0, size=(5, 3)))
        err = check_gradients(lambda: sum_all(mul(bn(x), cot)), [x, bn.gamma, bn.beta])
        assert err < 1e-6


class TestGcn:
    def test_identity_adjacency_collapses(self):
        rng = np.random.default_rng(41)
        layer = GcnLayer(input_dim=6, classes=3, rng=rng)
        features = Tensor(rng.uniform(-1.0, 1.0, size=(1, 6)))
        out = layer(features, np.eye(1))
        expected = np.maximum(features.data @ layer.weight.data, 0.0)
        np.testing.assert_allclose(out.data, expected, rtol=1e-12)

    def test_zero_weight_gives_zero(self):
        rng = np.random.default_rng(43)
        layer = GcnLayer(input_dim=4, classes=3, rng=rng)
        layer.weight.data[...] = 0.0
        out = layer(Tensor(rng.uniform(-1.0, 1.0, size=(5, 4))), np.eye(5))
        np.testing.assert_array_equal(out.data, np.zeros((5, 3)))

    def test_matches_dense_oracle_on_chain(self):
        from syngcn.corpus import build_graph

        from test_corpus import make_record

        rng = np.random.default_rng(47)
        graph = build_graph(make_record(["a", "b", "c"], [2, 0, 2]))
        layer = GcnLayer(input_dim=8, classes=7, rng=rng)
        features = Tensor(rng.uniform(-1.0, 1.0, size=(3, 8)))
        out = layer(features, graph.normalized)
        oracle = np.maximum(graph.normalized @ features.data @ layer.weight.data, 0.0)
        np.testing.assert_allclose(out.data, oracle, atol=1e-12)

    def test_padded_rows_stay_zero_through_full_matrix(self):
        from syngcn.corpus import build_graph

        from test_corpus import make_record

        rng = np.random.default_rng(53)
        graph = build_graph(make_record(["a", "b", "c"], [2, 0, 2]))
        layer = GcnLayer(input_dim=4, classes=3, rng=rng)
        padded = np.zeros((10, 4))
        padded[:3] = rng.uniform(-1.0, 1.0, size=(3, 4))
        out = layer(Tensor(padded), np.pad(graph.normalized, (0, 7)))
        np.testing.assert_array_equal(out.data[3:], np.zeros((7, 3)))
        block = layer(Tensor(padded[:3].copy()), graph.normalized)
        np.testing.assert_allclose(out.data[:3], block.data, atol=1e-14)

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(59)
        layer = GcnLayer(input_dim=4, classes=3, rng=rng)
        with pytest.raises(ShapeError):
            layer(Tensor(np.zeros((3, 4))), np.eye(2))
        with pytest.raises(ShapeError):
            layer(Tensor(np.zeros((3, 5))), np.eye(3))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(61)
        layer = GcnLayer(input_dim=5, classes=3, rng=rng)
        adj = np.eye(4) * 0.7 + 0.1
        features = rand_tensor(rng, (4, 5))
        cot = Tensor(rng.uniform(-1.0, 1.0, size=(4, 3)))
        err = check_gradients(lambda: sum_all(mul(layer(features, adj), cot)), [features, layer.weight])
        assert err < 1e-4


def percentile_oracle(column, p):
    """Exact nearest-rank selection by explicit sort and indexing."""
    ordered = sorted(column)
    rank = max(1, math.ceil(Fraction(p) * len(column) / 100))
    return ordered[rank - 1]


class TestPercentilePool:
    def test_max_median_min_special_cases(self):
        z = Tensor(np.array([[3.0], [1.0], [2.0]]))
        assert percentile_pool(z, 100).data[0] == 3.0
        assert percentile_pool(z, 50).data[0] == 2.0
        assert percentile_pool(z, 0).data[0] == 1.0

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(67)
        for _ in range(100):
            n = int(rng.integers(1, 141))
            col = rng.uniform(-5.0, 5.0, size=(n, 1))
            for p in range(0, 101, 10):
                got = percentile_pool(Tensor(col), p).data[0]
                assert got == percentile_oracle(col[:, 0].tolist(), p)

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(71)
        z = rng.uniform(-1.0, 1.0, size=(9, 4))
        shuffled = z[rng.permutation(9)]
        for p in (0, 30, 50, 80, 100):
            np.testing.assert_array_equal(
                percentile_pool(Tensor(z), p).data, percentile_pool(Tensor(shuffled), p).data
            )

    def test_p100_equals_column_max(self):
        rng = np.random.default_rng(73)
        z = rng.uniform(-2.0, 2.0, size=(17, 5))
        np.testing.assert_array_equal(percentile_pool(Tensor(z), 100).data, z.max(axis=0))

    def test_p50_is_median_on_odd_n(self):
        rng = np.random.default_rng(79)
        z = rng.uniform(-2.0, 2.0, size=(11, 3))
        np.testing.assert_array_equal(percentile_pool(Tensor(z), 50).data, np.median(z, axis=0))

    def test_backward_routes_to_selected_rows(self):
        z = Tensor(np.array([[3.0, 0.5], [1.0, 2.5], [2.0, 1.5]]), requires_grad=True)
        backward(sum_all(mul(percentile_pool(z, 100), Tensor([10.0, 20.0]))))
        expected = np.zeros((3, 2))
        expected[0, 0] = 10.0  # 3.0 was the column-0 max
        expected[1, 1] = 20.0  # 2.5 was the column-1 max
        np.testing.assert_array_equal(z.grad, expected)

    def test_ties_route_to_lowest_index(self):
        z = Tensor(np.array([[1.0], [1.0], [1.0]]), requires_grad=True)
        backward(sum_all(percentile_pool(z, 100)))
        np.testing.assert_array_equal(z.grad, [[1.0], [0.0], [0.0]])

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(83)
        worst = 0.0
        for _ in range(50):
            n = int(rng.integers(2, 12))
            # distinct, well-separated values keep the selection stable under wiggling
            base = rng.permutation(n * 3)[: n * 3].astype(np.float64).reshape(n, 3) * 0.1
            z = Tensor(base, requires_grad=True)
            cot = Tensor(rng.uniform(-1.0, 1.0, size=3))
            p = float(rng.integers(0, 101))
            worst = max(worst, check_gradients(lambda: sum_all(mul(percentile_pool(z, p), cot)), [z]))
        assert worst < 1e-6

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            percentile_pool(Tensor(np.ones((2, 2))), 101)
        with pytest.raises(ShapeError):
            percentile_pool(Tensor(np.ones((0, 2))), 50)


class TestAveragePool:
    def test_column_mean(self):
        np.testing.assert_array_equal(average_pool(Tensor([[1.0], [3.0]])).data, [2.0])

    def test_constant_column(self):
        np.testing.assert_allclose(average_pool(Tensor(np.full((7, 2), 1.5))).data, [1.5, 1.5])

    def test_gradient_is_one_over_n(self):
        z = Tensor(np.arange(8.0).reshape(4, 2), requires_grad=True)
        backward(sum_all(average_pool(z)))
        np.testing.assert_allclose(z.grad, np.full((4, 2), 0.25))

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            average_pool(Tensor(np.ones((0, 3))))


class TestFcHead:
    def test_zero_input_gives_bias(self):
        rng = np.random.default_rng(89)
        head = FcHead(max_len=6, classes=3, rng=rng)
        head.bias.data[...] = [1.0, -2.0, 0.5]
        out = head(Tensor(np.zeros((4, 3))))
        np.testing.assert_allclose(out.data, [1.0, -2.0, 0.5])

    def test_output_length_for_any_n(self):
        rng = np.random.default_rng(97)
        head = FcHead(max_len=6, classes=3, rng=rng)
        for n in (1, 3, 6):
            assert head(Tensor(np.ones((n, 3)))).shape == (3,)
        with pytest.raises(ShapeError):
            head(Tensor(np.ones((7, 3))))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(101)
        head = FcHead(max_len=5, classes=3, rng=rng)
        z = rand_tensor(rng, (3, 3))
        cot = Tensor(rng.uniform(-1.0, 1.0, size=3))
        err = check_gradients(lambda: sum_all(mul(head(z), cot)), [z, head.weight, head.bias])
        assert err < 1e-4


class TestOrthogonalInit:
    def test_tall_matrix_has_orthonormal_columns(self):
        rng = np.random.default_rng(103)
        for rows, cols in ((8, 3), (5, 5), (300, 7)):
            w = orthogonal_init(rows, cols, rng)
            assert w.shape == (rows, cols)
            np.testing.assert_allclose(w.T @ w, np.eye(cols), atol=1e-10)

    def test_wide_matrix_has_orthonormal_rows(self):
        rng = np.random.default_rng(107)
        w = orthogonal_init(3, 9, rng)
        assert w.shape == (3, 9)
        np.testing.assert_allclose(w @ w.T, np.eye(3), atol=1e-10)

    def test_invalid_shape_rejected(self):
        with pytest.raises(ValueError):
            orthogonal_init(0, 3, np.random.default_rng(1))

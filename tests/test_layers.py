"""Layer tests: embeddings, Bi-LSTM, batch norm, GCN, pooling, init."""

import math
import os
import signal
import sys
import threading
import time
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest

from syngcn import layers
from syngcn import tensor as T
from syngcn.corpus import Vocabulary
from syngcn.layers import (
    BN_EPS,
    BatchNorm,
    BiLstm,
    EmbeddingTable,
    FcHead,
    GcnLayer,
    LstmCell,
    average_pool,
    orthogonal_init,
    percentile_pool,
)
from syngcn.tensor import GraphError, ShapeError, Tensor, backward, mul, sum_all

import reference_lstm
import reference_tail
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

    def test_backward_peak_stays_near_one_table(self):
        # The table's gradient is the one dense array gather_rows' rule returns: no second table-sized buffer.
        rng = np.random.default_rng(2)
        table = EmbeddingTable(vocab_size=4000, dim=300, rng=rng)
        ids = rng.integers(2, 4000, size=64)
        loss = sum_all(mul(table(ids), Tensor(rng.standard_normal((64, 300)))))
        tracemalloc.start()
        try:
            backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * table.table.data.nbytes


def _cell_outputs_and_grads(run, cell, x_data, cotangent):
    """Output of run(x), then x.grad and the 12 per-gate gradients."""
    x = Tensor(x_data, requires_grad=True)
    for _, p in cell.parameters():
        p.zero_grad()
    out = run(x)
    backward(sum_all(mul(out, Tensor(cotangent))))
    return [out.data, x.grad] + [p.grad for _, p in cell.parameters()]


def _same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    """Equal shapes and bytes: unlike np.array_equal, a zero's sign counts, and so does a NaN."""
    return got.shape == want.shape and got.tobytes() == want.tobytes()


# Ragged batches: ties, one-row sequences, and more rows than one projection block.
RAGGED = ([1], [5, 5, 1, 5], [1, 40, 7, 40, 1, 300, 3, 7, 1])


def _watch_pass_arrays(monkeypatch) -> list:
    """Weak references to the n-row arrays of each _CellPass built: acts, cs, the recorded states and the packed dz."""
    held, build, arrays = [], layers._CellPass.__init__, layers._CellPass.backward_arrays

    def watched_build(walk, *args):
        build(walk, *args)
        held.extend(weakref.ref(arr) for arr in (walk.acts, walk.cs, walk.h))

    def watched_arrays(walk):
        dz, *rest = arrays(walk)
        held.append(weakref.ref(dz))
        return dz, *rest

    monkeypatch.setattr(layers._CellPass, "__init__", watched_build)
    monkeypatch.setattr(layers._CellPass, "backward_arrays", watched_arrays)
    return held


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

    @pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reverse"])
    def test_packed_run_matches_separate_runs(self, reverse):
        rng = np.random.default_rng(7 + reverse)
        for trial in range(9):
            d, hidden = (int(v) for v in rng.integers(1, 7, size=2))
            cell = LstmCell(d, hidden, rng, name="cell")
            for gate in LstmCell.GATES:
                cell.bias[gate].data[...] = rng.normal(size=(1, hidden))
            # Six batches of 2-5 sequences, then 31-40 sequences of 1-12 rows:
            # many ties, so the count of running sequences drops many times.
            count, longest = (int(rng.integers(1, 5)), 8) if trial < 6 else (int(rng.integers(30, 40)), 12)
            lengths = [1, *rng.integers(1, longest + 1, size=count).tolist()]
            rng.shuffle(lengths)
            bounds = np.cumsum([0, *lengths])
            x = rng.normal(size=(bounds[-1], d))
            cot = rng.normal(size=(bounds[-1], hidden))

            def separate(run):
                def each(t):
                    parts = [T.slice_rows(t, a, b) for a, b in zip(bounds[:-1], bounds[1:])]
                    return T.concat([run(part) for part in parts])

                return _cell_outputs_and_grads(each, cell, x, cot)

            packed = _cell_outputs_and_grads(
                lambda t: cell.run(t, reverse=reverse, lengths=lengths), cell, x, cot
            )
            # The per-sequence runs share run()'s step schedule; the per-step
            # tape oracle shares none of it.
            runs = separate(lambda part: cell.run(part, reverse=reverse))
            steps = separate(lambda part: reference_lstm.run(cell, part, reverse))
            assert len(packed) == 14
            for got, want, oracle in zip(packed, runs, steps):
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
                np.testing.assert_allclose(got, oracle, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reverse"])
    def test_run_past_one_projection_block_matches_per_step_oracle(self, reverse):
        # 298 rows: the forward projects the inputs in two blocks, 149 rows each.
        rng = np.random.default_rng(23 + reverse)
        cell = LstmCell(5, 4, rng, name="cell")
        for gate in LstmCell.GATES:
            cell.bias[gate].data[...] = rng.normal(size=(1, 4))
        lengths = [257, 1, 40]
        bounds = np.cumsum([0, *lengths])
        assert bounds[-1] > layers.PROJECTION_ROWS
        x, cot = rng.normal(size=(bounds[-1], 5)), rng.normal(size=(bounds[-1], 4))

        def each(t):
            parts = [T.slice_rows(t, a, b) for a, b in zip(bounds[:-1], bounds[1:])]
            return T.concat([reference_lstm.run(cell, part, reverse) for part in parts])

        packed = _cell_outputs_and_grads(lambda t: cell.run(t, reverse=reverse, lengths=lengths), cell, x, cot)
        oracle = _cell_outputs_and_grads(each, cell, x, cot)
        for got, want in zip(packed, oracle):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("lengths", [[3, 0, 2], [6, -1], [2, 2], [4, 2], []])
    def test_bad_lengths_rejected(self, lengths):
        cell = LstmCell(2, 3, np.random.default_rng(9), name="cell")
        with pytest.raises(ShapeError):
            cell.run(Tensor(np.ones((5, 2))), lengths=lengths)

    @pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reverse"])
    def test_walks_give_the_packed_row_oracles_bits(self, monkeypatch, reverse):
        # The oracle tests above allow rounding; the packed-row walk is the earlier design, bit for bit.
        rng, walks = np.random.default_rng(31 + reverse), (layers._CellPass, reference_lstm.PackedRowPass)
        for lengths in RAGGED:
            cell = LstmCell(6, 5, rng, name="cell")
            for gate in LstmCell.GATES:
                cell.bias[gate].data[...] = rng.normal(size=(1, 5))
            x, cot = rng.normal(size=(sum(lengths), 6)), rng.normal(size=(sum(lengths), 5))

            def run(t):
                return cell.run(t, reverse=reverse, lengths=lengths)

            results = []
            for walk in walks:
                monkeypatch.setattr(layers, "_CellPass", walk)
                with T.no_grad():
                    predicted = run(Tensor(x)).data
                results.append([*_cell_outputs_and_grads(run, cell, x, cot), predicted])
            assert len(results[0]) == 15
            for got, want in zip(*results):
                assert _same_bits(got, want)

    def test_run_is_one_tape_op(self):
        rng = np.random.default_rng(3)
        cell = LstmCell(4, 3, rng, name="cell")
        x = rand_tensor(rng, (6, 4))
        out = cell.run(x)
        assert out.shape == (6, 3)
        assert out._parents == (x, *(p for _, p in cell.parameters()))

    def test_backward_frees_the_arrays_only_the_rule_held(self, monkeypatch):
        held = _watch_pass_arrays(monkeypatch)
        rng = np.random.default_rng(3)
        cell = LstmCell(4, 3, rng, name="cell")
        out = cell.run(rand_tensor(rng, (6, 4)), lengths=[2, 4])
        loss = sum_all(mul(out, out))
        backward(loss)
        assert len(held) == 4 and all(ref() is None for ref in held)
        assert all(p.grad is not None for _, p in cell.parameters())
        with pytest.raises(GraphError):
            backward(loss)
        with pytest.raises(GraphError):
            backward(sum_all(out))

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

    def test_packed_training_matches_per_sequence_calls(self):
        rng = np.random.default_rng(23)
        net = BiLstm(input_dim=3, hidden=4, layers=2, dropout=0.5, rng=rng)
        lengths = [3, 1, 5, 2]
        bounds = np.cumsum([0, *lengths])
        x_data, cot = rng.normal(size=(11, 3)), Tensor(rng.normal(size=(11, 8)))
        results = []
        for packed in (True, False):
            x, drop_rng = Tensor(x_data, requires_grad=True), np.random.default_rng(99)
            for _, p in net.parameters():
                p.zero_grad()
            if packed:
                out = net(x, training=True, rng=drop_rng, lengths=lengths)
            else:
                out = T.concat([
                    net(T.slice_rows(x, a, b), training=True, rng=drop_rng)
                    for a, b in zip(bounds[:-1], bounds[1:])
                ])
            backward(sum_all(mul(out, cot)))
            results.append([out.data, x.grad] + [p.grad for _, p in net.parameters()])
        for got, want in zip(*results):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("layers", [1, 3])
    def test_weight_matrices_are_the_w_x_and_w_h_parameters_in_order(self, layers):
        # The orthogonality penalty sums its floats in this order, so its bits depend on it.
        net = BiLstm(input_dim=3, hidden=4, layers=layers, dropout=0.0, rng=np.random.default_rng(3))
        by_name = [p for name, p in net.parameters() if name.endswith((".w_x", ".w_h"))]
        by_cell = [w[gate] for cells in net.cells for cell in cells for gate in LstmCell.GATES
                   for w in (cell.w_x, cell.w_h)]
        got = list(net.weight_matrices())
        assert len(got) == 16 * layers
        assert [id(p) for p in got] == [id(p) for p in by_name] == [id(p) for p in by_cell]

    @pytest.mark.parametrize("parallel", [False, True], ids=["sequential", "parallel"])
    def test_prediction_peak_is_acts_the_output_and_a_projection_block(self, monkeypatch, parallel):
        # Under no_grad a walk's states overwrite its spent input-gate columns: the peak is each running
        # walk's acts [n, 4h] and projection block, the [n, 2h] output, and less than half an [n, h] array
        # per walk for the row map, the weights and one step's buffers.  That excess read 0.33-0.36 of an
        # [n, h] array per walk; the packed-row walk's read 0.50-0.56, and a walk keeping its own [n, h]
        # states would read 1.3 or more.
        monkeypatch.setattr(layers, "PARALLEL_MIN_STEP_WORK", 0 if parallel else math.inf)
        rng = np.random.default_rng(41)
        d, hidden, lengths = 8, 32, [90, 1, 60, 90, 33, 1, 7, 90] * 4
        n, walks = sum(lengths), 2 if parallel else 1
        net = BiLstm(input_dim=d, hidden=hidden, layers=1, dropout=0.0, rng=rng)
        x = Tensor(rng.normal(size=(n, d)))
        tracemalloc.start()
        try:
            with T.no_grad():
                net(x, lengths=lengths)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        acts, out, state = n * 4 * hidden * 8, n * 2 * hidden * 8, n * hidden * 8
        block = layers.PROJECTION_ROWS * d * 8
        assert peak < walks * (acts + block + state / 2) + out

    @pytest.mark.parametrize("parallel", [False, True], ids=["sequential", "parallel"])
    def test_gradients_match_finite_differences(self, monkeypatch, parallel):
        monkeypatch.setattr(layers, "PARALLEL_MIN_STEP_WORK", 0 if parallel else math.inf)
        rng = np.random.default_rng(19)
        net = BiLstm(input_dim=4, hidden=5, layers=2, dropout=0.0, rng=rng)
        x = rand_tensor(rng, (3, 4))
        cot = Tensor(rng.uniform(-1.0, 1.0, size=(3, 10)))
        params = [x] + [t for _, t in net.parameters()]
        err = check_gradients(lambda: sum_all(mul(net(x), cot)), params)
        assert err < 1e-4


def _bilstm_results(net, x_data, lengths, cot):
    """Training output (dropout on) with x.grad and every parameter gradient; then the no_grad output."""
    x = Tensor(x_data, requires_grad=True)
    for _, p in net.parameters():
        p.zero_grad()
    out = net(x, training=True, rng=np.random.default_rng(99), lengths=lengths)
    backward(sum_all(mul(out, Tensor(cot))))
    with T.no_grad():
        predicted = net(Tensor(x_data), lengths=lengths)
    return [out.data, x.grad, *(p.grad for _, p in net.parameters()), predicted.data]


class TestParallelLayer:
    """A layer at or above PARALLEL_MIN_STEP_WORK runs its backward cell on the worker thread."""

    @staticmethod
    def _net_and_batch(depth=2, dropout=0.5):
        rng = np.random.default_rng(43)
        net = BiLstm(input_dim=5, hidden=4, layers=depth, dropout=dropout, rng=rng)
        lengths = [1, 6, 1, 3, 6, 2]
        return net, rng.normal(size=(sum(lengths), 5)), lengths, rng.normal(size=(sum(lengths), 8))

    def test_both_paths_give_the_same_bits(self, monkeypatch):
        net, x, lengths, cot = self._net_and_batch()
        results = []
        for threshold in (math.inf, 0):
            monkeypatch.setattr(layers, "PARALLEL_MIN_STEP_WORK", threshold)
            results.append(_bilstm_results(net, x, lengths, cot))
        assert len(results[0]) == 2 + 24 * 2 + 1
        for sequential, parallel in zip(*results):
            np.testing.assert_array_equal(parallel, sequential)

    @pytest.mark.parametrize("parallel", [False, True], ids=["sequential", "parallel"])
    def test_projection_blocks_give_the_whole_products_bits(self, monkeypatch, parallel):
        # 257 and 769 rows: blocks of 256 rows and a remainder would leave a one-row block, which
        # NumPy multiplies with gemv; the near-equal blocks (two of 128-129, four of 192-193) do not.
        monkeypatch.setattr(layers, "PARALLEL_MIN_STEP_WORK", 0 if parallel else math.inf)
        rng = np.random.default_rng(29)
        for lengths in ([257], [300, 1, 211, 257]):
            net = BiLstm(input_dim=5, hidden=4, layers=2, dropout=0.5, rng=rng)
            x, cot = rng.normal(size=(sum(lengths), 5)), rng.normal(size=(sum(lengths), 8))
            results = []
            for rows in (10**9, 256):  # one product over every row, as a single block; then the default blocks
                monkeypatch.setattr(layers, "PROJECTION_ROWS", rows)
                results.append(_bilstm_results(net, x, lengths, cot))
            for whole, blocked in zip(*results):
                np.testing.assert_array_equal(blocked, whole)

    @pytest.mark.parametrize("parallel", [False, True], ids=["sequential", "parallel"])
    def test_walks_give_the_packed_row_oracles_bits(self, monkeypatch, parallel):
        monkeypatch.setattr(layers, "PARALLEL_MIN_STEP_WORK", 0 if parallel else math.inf)
        rng, walks = np.random.default_rng(37), (layers._CellPass, reference_lstm.PackedRowPass)
        for lengths in RAGGED:
            net = BiLstm(input_dim=5, hidden=4, layers=2, dropout=0.5, rng=rng)
            x, cot = rng.normal(size=(sum(lengths), 5)), rng.normal(size=(sum(lengths), 8))
            results = []
            for walk in walks:
                monkeypatch.setattr(layers, "_CellPass", walk)
                results.append(_bilstm_results(net, x, lengths, cot))
            for got, want in zip(*results):
                assert _same_bits(got, want)

    def test_a_layer_is_one_tape_op(self, monkeypatch):
        monkeypatch.setattr(layers, "PARALLEL_MIN_STEP_WORK", 0)
        net, x, lengths, _ = self._net_and_batch(depth=1, dropout=0.0)
        x = Tensor(x, requires_grad=True)
        out = net(x, lengths=lengths)
        assert out.shape == (len(x.data), 8)
        assert out._parents == (x, *(p for _, p in net.parameters()))

    def test_backward_frees_the_arrays_only_the_rule_held(self, monkeypatch):
        monkeypatch.setattr(layers, "PARALLEL_MIN_STEP_WORK", 0)
        held = _watch_pass_arrays(monkeypatch)
        net, x, lengths, _ = self._net_and_batch(depth=1, dropout=0.0)
        out = net(Tensor(x), lengths=lengths)
        loss = sum_all(mul(out, out))
        backward(loss)
        assert len(held) == 2 * 4 and all(ref() is None for ref in held)
        assert all(p.grad is not None for _, p in net.parameters())
        with pytest.raises(GraphError):
            backward(loss)
        with pytest.raises(GraphError):
            backward(sum_all(out))

    @pytest.mark.parametrize("hidden, parents", [(16, 2), (180, 25)])
    def test_the_crossover_picks_the_path(self, hidden, parents):
        # 32 sequences of 4 rows: 32 * 16^2 per step is below the crossover, 32 * 180^2 above it.
        net = BiLstm(input_dim=3, hidden=hidden, layers=1, dropout=0.0, rng=np.random.default_rng(2))
        out = net(rand_tensor(np.random.default_rng(3), (128, 3)), lengths=[4] * 32)
        assert len(out._parents) == parents  # two cells' ops to concatenate, or x and both cells' parameters

    @pytest.mark.parametrize("parallel", [False, True], ids=["sequential", "parallel"])
    def test_worker_keeps_the_callers_error_state(self, monkeypatch, parallel):
        # An overflow in the backward cell's BPTT raises where np.errstate says so, on either thread.
        monkeypatch.setattr(layers, "PARALLEL_MIN_STEP_WORK", 0 if parallel else math.inf)
        net, x, lengths, cot = self._net_and_batch(depth=1, dropout=0.0)
        cot[:, 4:] = 1e308
        with np.errstate(over="ignore"):  # the loss itself overflows, in the forward
            loss = sum_all(mul(net(Tensor(x, requires_grad=True), lengths=lengths), Tensor(cot)))
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            backward(loss)

    @pytest.mark.parametrize("failing", ["worker", "caller"])
    def test_a_failing_half_fails_the_call_once_both_are_done(self, monkeypatch, failing):
        net, x, lengths, _ = self._net_and_batch(depth=1, dropout=0.0)
        expected = net(Tensor(x), lengths=lengths).data
        original, threads, finished = layers._CellPass.forward, {}, []

        def forward(walk):
            on_worker = walk.direction == -1
            threads[on_worker] = threading.get_ident()
            try:
                if on_worker:
                    time.sleep(0.05)  # the caller's half ends first
                if on_worker == (failing == "worker"):
                    raise RuntimeError(failing)
                return original(walk)
            finally:
                finished.append(on_worker)

        monkeypatch.setattr(layers, "PARALLEL_MIN_STEP_WORK", 0)
        monkeypatch.setattr(layers._CellPass, "forward", forward)
        with pytest.raises(RuntimeError, match=failing):
            net(Tensor(x), lengths=lengths)
        assert sorted(finished) == [False, True]
        assert threads[True] != threads[False] == threading.get_ident()
        monkeypatch.setattr(layers._CellPass, "forward", original)
        np.testing.assert_array_equal(net(Tensor(x), lengths=lengths).data, expected)


    def test_callers_on_many_threads_share_the_worker(self, monkeypatch):
        # More calling threads than cores queue on the one worker; each gets its own layer's bits,
        # while other threads' no_grad() passes come and go.
        monkeypatch.setattr(layers, "PARALLEL_MIN_STEP_WORK", 0)
        _, x, lengths, cot = self._net_and_batch()
        expected = _bilstm_results(self._net_and_batch()[0], x, lengths, cot)
        results, interval = [None] * 6, sys.getswitchinterval()

        def call(k):
            results[k] = _bilstm_results(self._net_and_batch()[0], x, lengths, cot)

        threads = [threading.Thread(target=call, args=(k,)) for k in range(len(results))]
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for got in results:
            for a, b in zip(got, expected):
                np.testing.assert_array_equal(a, b)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_starts_its_own_worker(self, monkeypatch):
        monkeypatch.setattr(layers, "PARALLEL_MIN_STEP_WORK", 0)
        net, x, lengths, _ = self._net_and_batch(depth=1, dropout=0.0)
        expected = net(Tensor(x), lengths=lengths).data  # the worker thread runs in this process now
        pid = os.fork()
        if pid == 0:  # the child: exit 0 only if the parallel layer runs there and gives the same bits
            signal.alarm(30)  # a child that waits on its parent's worker thread ends instead of hanging
            ok = False
            try:
                ok = np.array_equal(net(Tensor(x), lengths=lengths).data, expected)
            finally:
                os._exit(0 if ok else 1)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0


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
        bn = BatchNorm(features=3)
        x = rng.normal(1.0, 2.0, size=(50, 3))
        mean, var = bn.running_mean, bn.running_var
        bn(Tensor(x), training=True)
        assert bn.running_mean is mean and bn.running_var is var  # updated in place, never rebound
        np.testing.assert_allclose(mean, 0.1 * x.mean(axis=0), atol=1e-12)
        np.testing.assert_allclose(var, 0.9 * 1.0 + 0.1 * x.var(axis=0, ddof=1), atol=1e-12)

    def test_eval_uses_running_statistics(self):
        bn = BatchNorm(features=2)
        bn.running_mean, bn.running_var = np.array([1.0, -1.0]), np.array([4.0, 0.25])
        out = bn(Tensor([[3.0, 0.0]])).data
        expected = (np.array([[3.0, 0.0]]) - [1.0, -1.0]) / np.sqrt(np.array([4.0, 0.25]) + BN_EPS)
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
        bn.running_mean, bn.running_var = rng.normal(size=3), rng.uniform(0.5, 2.0, size=3)
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
        out = layer(features, graph)
        oracle = np.maximum(graph @ features.data @ layer.weight.data, 0.0)
        np.testing.assert_allclose(out.data, oracle, atol=1e-12)

    def test_padded_rows_stay_zero_through_full_matrix(self):
        from syngcn.corpus import build_graph

        from test_corpus import make_record

        rng = np.random.default_rng(53)
        graph = build_graph(make_record(["a", "b", "c"], [2, 0, 2]))
        layer = GcnLayer(input_dim=4, classes=3, rng=rng)
        padded = np.zeros((10, 4))
        padded[:3] = rng.uniform(-1.0, 1.0, size=(3, 4))
        out = layer(Tensor(padded), np.pad(graph, (0, 7)))
        np.testing.assert_array_equal(out.data[3:], np.zeros((7, 3)))
        block = layer(Tensor(padded[:3].copy()), graph)
        np.testing.assert_allclose(out.data[:3], block.data, atol=1e-14)

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(59)
        layer = GcnLayer(input_dim=4, classes=3, rng=rng)
        with pytest.raises(ShapeError):
            layer(Tensor(np.zeros((3, 4))), np.eye(2))
        with pytest.raises(ShapeError):
            layer(Tensor(np.zeros((3, 5))), np.eye(3))
        with pytest.raises(ShapeError):
            layer(Tensor(np.zeros((3, 4))), np.ones((3, 2)))
        with pytest.raises(ShapeError):
            layer(Tensor(np.zeros((3, 4))), np.eye(1), np.eye(1))
        with pytest.raises(ShapeError):
            layer(Tensor(np.zeros((3, 4))))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(61)
        layer = GcnLayer(input_dim=5, classes=3, rng=rng)
        adj = np.eye(4) * 0.7 + 0.1
        features = rand_tensor(rng, (4, 5))
        cot = Tensor(rng.uniform(-1.0, 1.0, size=(4, 3)))
        err = check_gradients(lambda: sum_all(mul(layer(features, adj), cot)), [features, layer.weight])
        assert err < 1e-4

    def test_packed_records_match_separate_calls(self):
        rng = np.random.default_rng(63)
        layer = GcnLayer(input_dim=5, classes=3, rng=rng)
        lengths = [1, 4, 4, 2, 1, 7]
        adjs = [rng.uniform(0.0, 1.0, size=(n, n)) for n in lengths]  # asymmetric: A and A' differ
        features = rand_tensor(rng, (sum(lengths), 5))
        cot = rng.uniform(-1.0, 1.0, size=(sum(lengths), 3))
        packed = layer(features, *adjs)
        backward(sum_all(mul(packed, Tensor(cot))))
        grads = features.grad.copy(), layer.weight.grad.copy()
        features.zero_grad()
        layer.weight.zero_grad()
        start, singles = 0, []
        for n, adj in zip(lengths, adjs):  # each record on its own, from primitive ops
            part = T.matmul(Tensor(adj), T.slice_rows(features, start, start + n))
            singles.append(T.relu(part @ layer.weight))
            start += n
        backward(sum_all(mul(T.concat(singles), Tensor(cot))))
        np.testing.assert_allclose(packed.data, np.concatenate([t.data for t in singles]), rtol=0, atol=1e-12)
        np.testing.assert_allclose(grads[0], features.grad, rtol=0, atol=1e-12)
        np.testing.assert_allclose(grads[1], layer.weight.grad, rtol=0, atol=1e-12)


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

    def test_matches_per_record_reference(self):
        # Bit for bit against one sort per record: ties, planted +-inf and NaN included.
        rng = np.random.default_rng(89)
        for _ in range(300):
            lengths = rng.integers(1, 10, size=int(rng.integers(1, 6))).tolist()
            data = rng.integers(-2, 3, size=(sum(lengths), 3)).astype(np.float64)
            planted = rng.random(data.shape) < 0.2
            data[planted] = rng.choice([np.inf, -np.inf, np.nan], size=int(planted.sum()))
            p = float(rng.choice([0, 10, 25, 50, 75, 90, 100, rng.uniform(0, 100)]))
            lengths = None if len(lengths) == 1 else lengths  # one record: the [C] form
            cot = Tensor(rng.uniform(-1.0, 1.0, size=(3,) if lengths is None else (len(lengths), 3)))
            got, want = Tensor(data, requires_grad=True), Tensor(data, requires_grad=True)
            outs = [percentile_pool(got, p, lengths), reference_tail.percentile_pool_reference(want, p, lengths)]
            for out in outs:
                with np.errstate(invalid="ignore"):  # the loss sums +inf and -inf
                    backward(sum_all(mul(out, cot)))
            assert np.array_equal(outs[0].data, outs[1].data, equal_nan=True)
            np.testing.assert_array_equal(got.grad, want.grad)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            percentile_pool(Tensor(np.ones((2, 2))), 101)
        with pytest.raises(ShapeError):
            percentile_pool(Tensor(np.ones((0, 2))), 50)


class TestPerRecordPooling:
    """A packed call with lengths equals one call per record, in values and gradients."""

    @pytest.mark.parametrize("mode", ["percentile", "average", "fc"])
    def test_records_equal_separate_calls(self, mode):
        rng = np.random.default_rng(109)
        head = FcHead(max_len=7, classes=3, rng=rng)
        for _ in range(30):
            lengths = [1, 3, 3] + rng.integers(1, 8, size=int(rng.integers(0, 6))).tolist()
            lengths = rng.permutation(lengths).tolist()
            # Few distinct values, so columns hold ties.
            z = Tensor(rng.integers(-2, 3, size=(sum(lengths), 3)).astype(np.float64), requires_grad=True)
            p = float(rng.choice([0, 30, 50, 100, rng.integers(0, 101)]))
            pool = {
                "percentile": lambda t, lengths=None: percentile_pool(t, p, lengths),
                "average": average_pool,
                "fc": lambda t, lengths=None: head(t, lengths),
            }[mode]
            cot = rng.uniform(-1.0, 1.0, size=(len(lengths), 3))
            packed = pool(z, lengths)
            assert packed.shape == (len(lengths), 3)
            backward(sum_all(mul(packed, Tensor(cot))))
            packed_grad = z.grad
            start = 0
            for b, n in enumerate(lengths):
                part = Tensor(z.data[start : start + n], requires_grad=True)
                single = pool(part)
                assert single.shape == (3,)
                backward(sum_all(mul(single, Tensor(cot[b]))))
                if mode == "fc":
                    np.testing.assert_allclose(packed.data[b], single.data, rtol=0, atol=1e-12)
                    np.testing.assert_allclose(packed_grad[start : start + n], part.grad, rtol=0, atol=1e-12)
                else:
                    np.testing.assert_array_equal(packed.data[b], single.data)
                    np.testing.assert_array_equal(packed_grad[start : start + n], part.grad)
                start += n
            z.zero_grad()

    def test_fc_head_parameter_gradients_sum_over_records(self):
        rng = np.random.default_rng(113)
        head = FcHead(max_len=5, classes=3, rng=rng)
        lengths = [2, 5, 1]
        z = rand_tensor(rng, (sum(lengths), 3))
        cot = Tensor(rng.uniform(-1.0, 1.0, size=(len(lengths), 3)))
        err = check_gradients(lambda: sum_all(mul(head(z, lengths), cot)), [z, head.weight, head.bias])
        assert err < 1e-6

    @pytest.mark.parametrize("lengths", [[3, 0, 2], [6, -1], [2, 2], [4, 2], []])
    def test_bad_lengths_rejected(self, lengths):
        z = Tensor(np.ones((5, 3)))
        for pool in (lambda: percentile_pool(z, 50, lengths), lambda: average_pool(z, lengths)):
            with pytest.raises(ShapeError):
                pool()
        with pytest.raises(ShapeError):
            FcHead(max_len=5, classes=3, rng=np.random.default_rng(1))(z, lengths)

    def test_fc_head_checks_each_record_length(self):
        head = FcHead(max_len=4, classes=3, rng=np.random.default_rng(2))
        assert head(Tensor(np.ones((8, 3))), [4, 4]).shape == (2, 3)
        with pytest.raises(ShapeError):
            head(Tensor(np.ones((8, 3))), [5, 3])


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

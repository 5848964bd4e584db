"""Acceptance gate: the eight binding checks for this package.

Each test prints one [PASS]/[FAIL] line (visible under pytest -s, and in
the captured output otherwise) and asserts the same condition.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from syngcn.corpus import Record, build_graph
from syngcn.layers import (
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
from syngcn.synthetic import class_word_corpus, root_label_corpus, split_records
from syngcn.tensor import Tensor, mul, softmax_cross_entropy, sum_all
from syngcn.training import (
    TrainConfig,
    orthogonality_penalty,
    save_checkpoint,
    save_history,
    train,
)

from helpers import check_gradients, rand_tensor


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _chain_record(n: int, label: int = 0) -> Record:
    # token i depends on token i+1; the last token is the root
    heads = tuple(i + 2 for i in range(n - 1)) + (0,)
    return Record(tuple(f"w{i}" for i in range(n)), ((0, n),), heads, label)


def test_gradient_correctness():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    errs: dict[str, float] = {}

    table = EmbeddingTable(vocab_size=9, dim=4, rng=rng)
    ids = np.array([2, 5, 2])
    cot = Tensor(rng.uniform(-1.0, 1.0, size=(3, 4)))
    errs["embedding"] = check_gradients(lambda: sum_all(mul(table(ids), cot)), [table.table])

    net = BiLstm(input_dim=4, hidden=3, layers=2, dropout=0.0, rng=rng)
    x = rand_tensor(rng, (3, 4))
    cot_l = Tensor(rng.uniform(-1.0, 1.0, size=(3, 6)))

    def lstm_loss():
        return sum_all(mul(net(x), cot_l))

    for gate in LstmCell.GATES:
        gate_params = [t for name, t in net.parameters() if f".{gate}." in name]
        errs[f"lstm_{gate}_gate"] = check_gradients(lstm_loss, gate_params)
    errs["lstm_input"] = check_gradients(lstm_loss, [x])

    graph = build_graph(_chain_record(4))
    gcn = GcnLayer(input_dim=6, classes=3, rng=rng)
    feats = rand_tensor(rng, (4, 6))
    cot_g = Tensor(rng.uniform(-1.0, 1.0, size=(4, 3)))
    errs["gcn"] = check_gradients(
        lambda: sum_all(mul(gcn(feats, graph), cot_g)), [feats, gcn.weight]
    )

    z = Tensor(rng.permutation(12).astype(np.float64).reshape(4, 3) * 0.1, requires_grad=True)
    cot_p = Tensor(rng.uniform(-1.0, 1.0, size=3))
    errs["pool_percentile"] = check_gradients(
        lambda: sum_all(mul(percentile_pool(z, 50), cot_p)), [z]
    )
    errs["pool_average"] = check_gradients(lambda: sum_all(mul(average_pool(z), cot_p)), [z])

    head = FcHead(max_len=4, classes=3, rng=rng)
    errs["fc_head"] = check_gradients(
        lambda: sum_all(mul(head(z), cot_p)), [z, head.weight, head.bias]
    )

    # end-to-end: embedding -> 2-layer Bi-LSTM with dropout -> batch norm
    # -> GCN -> median pooling -> penalized cross-entropy, batch of two
    records = [_chain_record(3, label=0), _chain_record(4, label=2)]
    graphs = [build_graph(r) for r in records]
    id_rows = [np.array([2, 3, 4]), np.array([5, 6, 7, 8])]
    e2e_table = EmbeddingTable(vocab_size=9, dim=4, rng=rng)
    e2e_net = BiLstm(input_dim=4, hidden=3, layers=2, dropout=0.5, rng=rng)
    bn = BatchNorm(features=6)
    e2e_gcn = GcnLayer(input_dim=6, classes=3, rng=rng)

    def end_to_end():
        from syngcn import tensor as T

        drop_rng = np.random.default_rng(77)  # same mask on every evaluation
        feats = [e2e_net(e2e_table(ids), training=True, rng=drop_rng) for ids in id_rows]
        stacked = T.concat(feats)
        normed = bn(stacked, training=True)
        logits = []
        offset = 0
        for adj in graphs:
            n = adj.shape[0]
            part = T.slice_rows(normed, offset, offset + n)
            logits.append(percentile_pool(e2e_gcn(part, adj), 50))
            offset += n
        ce = softmax_cross_entropy(logits[0], 0) + softmax_cross_entropy(logits[1], 2)
        penalized = [w for w in e2e_net.weight_matrices()] + [e2e_gcn.weight]
        pen = orthogonality_penalty(penalized[0])
        for w in penalized[1:]:
            pen = pen + orthogonality_penalty(w)
        l2 = (penalized[0] * penalized[0]).sum()
        for w in penalized[1:]:
            l2 = l2 + (w * w).sum()
        return ce * 0.5 + pen * 0.5 + l2 * 0.25

    e2e_params = [e2e_table.table, bn.gamma, bn.beta, e2e_gcn.weight]
    e2e_params += [t for _, t in e2e_net.parameters()]
    errs["end_to_end"] = check_gradients(end_to_end, e2e_params)

    elapsed = time.time() - t0
    worst_name = max(errs, key=errs.get)
    ok = max(errs.values()) < 1e-4 and elapsed < 60.0
    _report(
        "gradient-correctness",
        ok,
        f"worst rel err {errs[worst_name]:.2e} ({worst_name}) < 1e-4, {elapsed:.1f}s < 60s",
    )


def test_percentile_pooling_oracle():
    rng = np.random.default_rng(1001)
    checked = 0
    for _ in range(1000):
        n = int(rng.integers(1, 141))
        col = rng.uniform(-10.0, 10.0, size=(n, 1))
        values = col[:, 0]
        ordered = sorted(values)
        for p in range(0, 101, 10):
            got = percentile_pool(Tensor(col), p).data[0]
            rank = max(1, math.ceil(Fraction(p) * n / 100))
            assert got == ordered[rank - 1], f"n={n} p={p}"
            checked += 1
        assert percentile_pool(Tensor(col), 100).data[0] == values.max()
        if n % 2 == 1:
            assert percentile_pool(Tensor(col), 50).data[0] == np.median(values)
    _report(
        "percentile-oracle",
        checked == 11000,
        f"{checked} pooled values equal the sort-and-nearest-rank oracle exactly",
    )


def test_graph_construction():
    rng = np.random.default_rng(1002)

    def random_tree(n):
        order = rng.permutation(n)
        heads = [0] * n
        for k in range(1, n):
            heads[order[k]] = int(order[rng.integers(0, k)]) + 1
        return heads

    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(1, 141))
        n_sents = int(rng.integers(1, min(3, n) + 1))
        cuts = sorted(rng.choice(np.arange(1, n), size=n_sents - 1, replace=False).tolist()) if n_sents > 1 else []
        bounds, heads, pos = [], [], 0
        for stop in cuts + [n]:
            bounds.append((pos, stop))
            heads.extend(random_tree(stop - pos))
            pos = stop
        rec = Record(tuple(f"w{i}" for i in range(n)), tuple(bounds), tuple(heads), 0)
        rec.validate(classes=7)
        g = build_graph(rec)

        a = (g > 0) * 1.0
        assert np.array_equal(a, a.T)
        assert np.array_equal(np.diag(a)[:n], np.ones(n))
        assert a[n:].sum() == 0.0 and a[:, n:].sum() == 0.0
        block_mask = np.zeros_like(a, dtype=bool)
        for start, stop in bounds:
            block_mask[start:stop, start:stop] = True
        assert a[~block_mask].sum() == 0.0  # block-diagonal by sentence

        deg = a.sum(axis=1)
        inv = np.zeros_like(deg)
        inv[deg > 0] = deg[deg > 0] ** -0.5
        oracle = np.diag(inv) @ a @ np.diag(inv)
        worst = max(worst, float(np.abs(g - oracle).max()))

    chain = build_graph(Record(("a", "b", "c"), ((0, 3),), (2, 0, 2), 0))
    chain_err = abs(chain[0, 1] - 1.0 / math.sqrt(6.0))
    ok = worst <= 1e-12 and chain_err < 1e-15
    _report(
        "graph-construction",
        ok,
        f"500 trees: max |A_hat - oracle| = {worst:.2e} <= 1e-12; chain A_hat[0][1] err {chain_err:.1e}",
    )


def test_orthogonal_init_and_penalty():
    rng = np.random.default_rng(1003)
    worst = 0.0
    for _ in range(50):
        rows = int(rng.integers(1, 200))
        cols = int(rng.integers(1, 200))
        w = orthogonal_init(rows, cols, rng)
        gram = w.T @ w if rows >= cols else w @ w.T
        worst = max(worst, float(np.linalg.norm(gram - np.eye(min(rows, cols)))))
    penalty = orthogonality_penalty(Tensor(2.0 * np.eye(2), requires_grad=True)).item()
    ok = worst < 1e-8 and penalty == pytest.approx(18.0, abs=1e-12)
    _report(
        "orthogonal-init",
        ok,
        f"50 shapes: max ||W'W - I||_F = {worst:.2e} < 1e-8; penalty(2I) = {penalty:.1f} == 18",
    )


def test_metrics_oracle():
    from syngcn.metrics import evaluate

    rng = np.random.default_rng(1004)
    for _ in range(1000):
        classes = int(rng.choice([2, 7]))
        n = int(rng.integers(1, 60))
        gold = rng.integers(0, classes, size=n).tolist()
        pred = ([int(rng.integers(classes))] * n) if rng.random() < 0.25 else rng.integers(
            0, classes, size=n
        ).tolist()
        report = evaluate(pred, gold, classes)

        per_p, per_r = [], []
        for c in range(classes):
            n_gold = sum(1 for g in gold if g == c)
            n_prop = sum(1 for p in pred if p == c)
            n_corr = sum(1 for p, g in zip(pred, gold) if p == c and g == c)
            score = report.classes[c]
            assert (score.gold, score.proposed, score.correct) == (n_gold, n_prop, n_corr)
            per_p.append(Fraction(n_corr, n_prop) if n_prop else Fraction(0))
            per_r.append(Fraction(n_corr, n_gold) if n_gold else Fraction(0))
        macro_p = sum(per_p) / classes
        macro_r = sum(per_r) / classes
        macro_f = 2 * macro_p * macro_r / (macro_p + macro_r) if macro_p + macro_r else Fraction(0)
        micro = Fraction(sum(1 for p, g in zip(pred, gold) if p == g), n)
        assert report.macro_precision == pytest.approx(float(macro_p), abs=1e-12)
        assert report.macro_recall == pytest.approx(float(macro_r), abs=1e-12)
        assert report.macro_f == pytest.approx(float(macro_f), abs=1e-12)
        assert report.micro_precision == pytest.approx(float(micro), abs=1e-12)
        assert report.micro_recall == pytest.approx(float(micro), abs=1e-12)
        assert report.micro_f == pytest.approx(float(micro), abs=1e-12)

    hand = evaluate([0, 1, 1, 1], [0, 0, 1, 1], classes=2)
    ok = hand.micro_f == 0.75
    _report(
        "metrics-oracle",
        ok,
        f"1000 random pairs match the counting oracle; 4-sample binary micro F = {hand.micro_f} == 0.75",
    )


def test_overfit_small_corpus():
    t0 = time.time()
    records = class_word_corpus(20, classes=7, rng=np.random.default_rng(7))
    config = TrainConfig(embedding_size=16, hidden_neurons=16, epochs=200, seed=42)
    result = train(config, records, records)
    accs = [e["train_accuracy"] for e in result.history]
    first = next((i + 1 for i, a in enumerate(accs) if a == 1.0), None)
    elapsed = time.time() - t0
    ok = first is not None and elapsed < 120.0
    _report(
        "overfit",
        ok,
        f"100% train accuracy at epoch {first} <= 200, {elapsed:.0f}s < 120s",
    )


def test_syntax_sensitivity():
    records = root_label_corpus(250, classes=7, rng=np.random.default_rng(11))
    train_recs, dev_recs = split_records(records, 0.2, np.random.default_rng(12))
    assert len(train_recs) + len(dev_recs) == 500

    best = {}
    for mode in ("syntax", "all_ones"):
        config = TrainConfig(
            embedding_size=16,
            hidden_neurons=16,
            dropout=0.0,
            learning_rate=0.02,
            epochs=10,
            adjacency_mode=mode,
            seed=42,
        )
        result = train(config, train_recs, dev_recs)
        best[mode] = max(e["dev_macro_f"] for e in result.history)

    ok = best["syntax"] > best["all_ones"]
    _report(
        "syntax-sensitivity",
        ok,
        f"dev macro-F syntax {best['syntax']:.4f} > all_ones {best['all_ones']:.4f} (identical seeds)",
    )


def test_determinism(tmp_path):
    records = class_word_corpus(10, classes=7, rng=np.random.default_rng(5))
    config = TrainConfig(
        embedding_size=6, hidden_neurons=5, lstm_layers=1, batch_size=4, epochs=3, max_len=20, seed=42
    )
    files = []
    for tag in ("first", "second"):
        result = train(config, records[:7], records[7:])
        ckpt = tmp_path / f"{tag}.sgcn"
        hist = tmp_path / f"{tag}.history"
        save_checkpoint(result.model, ckpt)
        save_history(result.history, hist)
        files.append((ckpt.read_bytes(), hist.read_bytes()))
    ok = files[0][0] == files[1][0] and files[0][1] == files[1][1]
    _report(
        "determinism",
        ok,
        f"two identical runs: checkpoints byte-equal ({len(files[0][0])} bytes), histories byte-equal",
    )

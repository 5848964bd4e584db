"""Tests of the benchmark itself: the generator, the tracer, and every
check, each shown to fail on a perturbed output so none passes vacuously.

    PYTHONPATH=src python -m pytest benchmarks -q
"""

import json
import signal
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import gen  # noqa: E402
import hostspeed  # noqa: E402
import run as entry  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from syngcn import corpus, layers, tensor, training  # noqa: E402
from syngcn.corpus import Record, build_vocab, label_names  # noqa: E402
from syngcn.metrics import evaluate  # noqa: E402
from syngcn.training import Model, TrainConfig  # noqa: E402

TINY = dict(embedding_size=5, hidden_neurons=4, batch_size=4)


def _record(raw: dict) -> Record:
    return Record(
        tuple(raw["tokens"]), tuple(tuple(b) for b in raw["sent_bounds"]), tuple(raw["heads"]), raw.get("label")
    )


@pytest.fixture(scope="module")
def paper(tmp_path_factory):
    raw = gen.paper_corpus(np.random.default_rng([5, 1]), n_records=40)
    path = tmp_path_factory.mktemp("paper") / "train.jsonl"
    gen.write_jsonl(raw, path)
    records, _ = corpus.load_corpus(path)
    return raw, records


@pytest.fixture(scope="module")
def tiny_model(paper):
    _, records = paper
    config = TrainConfig(**TINY, seed=3)
    return Model(config, build_vocab(records)), config


# -- generator -----------------------------------------------------------------


def test_generated_records_are_valid_and_seeded():
    for make in (
        lambda rng: gen.paper_corpus(rng, n_records=30),
        lambda rng: gen.predict_corpus(rng, chunks=3),
        lambda rng: gen.twin_corpus(rng, n_pairs=20),
    ):
        raw = make(np.random.default_rng(11))
        assert raw == make(np.random.default_rng(11))
        assert raw != make(np.random.default_rng(12))
        for i, rec in enumerate(raw):
            _record(rec).validate(classes=gen.CLASSES, where=f"record {i}")


def test_generated_shapes():
    paper = gen.paper_corpus(np.random.default_rng(1), n_records=200)
    assert all(34 <= len(r["tokens"]) <= 46 and len(r["sent_bounds"]) >= 2 for r in paper)
    assert 38 <= np.mean([len(r["tokens"]) for r in paper]) <= 42
    for chunk in range(4):
        lengths = sorted(gen.predict_lengths(np.random.default_rng(chunk)))
        assert len(lengths) == gen.CHUNK and lengths[0] <= 12 and lengths[-2] > gen.MAX_TOKENS
    for rec in gen.twin_corpus(np.random.default_rng(2), n_pairs=50):
        root = rec["heads"].index(0)
        assert 3 <= len(rec["tokens"]) <= 6 and rec["tokens"][root] == f"classword{rec['label']}"


def test_truncate_matches_load_corpus(tmp_path):
    raw = [r for r in gen.predict_corpus(np.random.default_rng(4), chunks=2) if len(r["tokens"]) > gen.MAX_TOKENS]
    gen.write_jsonl(raw, tmp_path / "long.jsonl")
    loaded, report = corpus.load_corpus(tmp_path / "long.jsonl", schema="eval")
    assert report.truncated == len(raw) > 0
    assert loaded == [_record(gen.truncate(r)) for r in raw]


# -- train_paper checks ----------------------------------------------------------


def test_adjacency_check(paper, tiny_model):
    raw, records = paper
    model, _ = tiny_model
    encoded = model.encode(records[0])[1]
    assert checks.adjacency(raw[0], encoded)[0]
    bad = encoded.copy()
    bad[0, 1] += 1e-9
    assert not checks.adjacency(raw[0], bad)[0]
    assert not checks.adjacency(raw[1], encoded)[0]


def test_directional_derivative_check(paper, tiny_model):
    _, records = paper
    model, config = tiny_model
    batch = [model.encode(r) for r in records[:2]]
    labels = [r.label for r in records[:2]]
    before = model.snapshot()
    f_plus, f_minus, grad_dot_v = workloads.directional_difference(model, config, batch, labels, seed=1)
    after = model.snapshot()
    assert all(np.array_equal(before[k], after[k]) for k in before)
    assert checks.directional_derivative(f_plus, f_minus, workloads.FD_EPS, grad_dot_v)[0]
    assert not checks.directional_derivative(f_plus, f_minus, workloads.FD_EPS, 1.01 * grad_dot_v)[0]
    assert not checks.directional_derivative(f_plus, f_minus, workloads.FD_EPS, -grad_dot_v)[0]


def test_step_checks():
    assert checks.finite_loss(1.5)[0]
    assert not checks.finite_loss(float("nan"))[0] and not checks.finite_loss(float("inf"))[0]
    table = np.zeros((3, 2))
    table[1:] = 0.5
    assert checks.padding_row(table)[0]
    table[0, 1] = 1e-12
    assert not checks.padding_row(table)[0]


# -- predict_paper checks --------------------------------------------------------


@pytest.fixture(scope="module")
def predictions(paper, tiny_model):
    _, records = paper
    model, _ = tiny_model
    return model, records[:12], training.predictions_to_lines(model, records[:12])


def test_prediction_line_check(predictions):
    model, _, lines = predictions
    names = label_names(model.config.classes)
    assert checks.prediction_lines(lines, names)[0]

    def edited(edit):
        row = json.loads(lines[0])
        edit(row)
        return [json.dumps(row)] + lines[1:]

    def nudge(row):
        row["probabilities"][0] += 1e-6

    def wrong_id(row):
        row["label_id"] = (row["label_id"] + 1) % len(names)

    def wrong_name(row):
        row["label"] = names[(row["label_id"] + 1) % len(names)]

    def negative(row):
        row["probabilities"][0] -= 2.0
        row["probabilities"][1] += 2.0

    for edit in (nudge, wrong_id, wrong_name, negative):
        assert not checks.prediction_lines(edited(edit), names)[0], edit.__name__


def test_shuffle_and_truncation_checks(predictions):
    model, records, lines = predictions
    probs = checks.probabilities(lines)
    perm = np.random.default_rng(0).permutation(len(records))
    shuffled = checks.probabilities(training.predictions_to_lines(model, [records[i] for i in perm]))
    assert checks.same_rows(probs[perm], shuffled, "shuffle")[0]
    swapped = shuffled.copy()
    swapped[[0, 1]] = swapped[[1, 0]]
    assert not checks.same_rows(probs[perm], swapped, "shuffle")[0]
    nudged = shuffled.copy()
    nudged[3, 2] += 1e-6
    assert not checks.same_rows(probs[perm], nudged, "shuffle")[0]
    assert not checks.same_rows(probs[:3], probs[:4], "shapes")[0]


def test_truncated_copy_predicts_the_same(tmp_path, tiny_model):
    model, _ = tiny_model
    raw = [r for r in gen.predict_corpus(np.random.default_rng(6), chunks=1) if len(r["tokens"]) > gen.MAX_TOKENS]
    gen.write_jsonl(raw, tmp_path / "long.jsonl")
    gen.write_jsonl([gen.truncate(r) for r in raw], tmp_path / "cut.jsonl")
    long, _ = corpus.load_corpus(tmp_path / "long.jsonl", schema="eval")
    cut, _ = corpus.load_corpus(tmp_path / "cut.jsonl", schema="eval")
    a = checks.probabilities(training.predictions_to_lines(model, long))
    b = checks.probabilities(training.predictions_to_lines(model, cut))
    assert checks.same_rows(a, b, "truncation")[0]
    # A copy cut one token short is a different input.
    short = [Record(r.tokens[:-1], ((0, len(r) - 1),), (0,) * (len(r) - 1), None) for r in cut]
    c = checks.probabilities(training.predictions_to_lines(model, short))
    assert not checks.same_rows(a, c, "truncation")[0]


def test_rows_differ_check(predictions):
    _, _, lines = predictions
    probs = checks.probabilities(lines)
    assert checks.rows_differ(probs)[0]
    assert not checks.rows_differ(np.repeat(probs[:1], len(probs), axis=0))[0]
    assert not checks.rows_differ(probs[:1])[0]


# -- epochs_small checks ---------------------------------------------------------


@pytest.fixture(scope="module")
def small_training(tmp_path_factory):
    rng = np.random.default_rng(3)
    train_raw, dev_raw = gen.split(rng, gen.twin_corpus(rng, n_pairs=30))
    tr = [_record(r) for r in train_raw]
    dv = [_record(r) for r in dev_raw]
    config = TrainConfig(embedding_size=6, hidden_neurons=5, dropout=0.0, learning_rate=0.02, epochs=3, seed=4)
    result = training.train(config, tr, dv)
    ckpt = tmp_path_factory.mktemp("small") / "model.sgcn"
    training.save_checkpoint(result.model, ckpt)
    return result, dv, ckpt


def test_best_dev_check(small_training):
    result, dev, _ = small_training
    gold = [r.label for r in dev]
    pred, _ = result.model.predict(dev)
    classes = result.model.config.classes
    assert checks.best_dev(pred, gold, classes, result.best_dev)[0]
    right = next(i for i in range(len(pred)) if pred[i] == gold[i])
    changed = list(pred)
    changed[right] = (pred[right] + 1) % classes
    assert not checks.best_dev(changed, gold, classes, result.best_dev)[0]
    # Two swapped predictions, one of them right: the counts change.
    pred, gold = [0, 1, 2, 2, 3], [0, 1, 2, 3, 3]
    report = evaluate(pred, gold, 7)
    assert checks.best_dev(pred, gold, 7, report)[0]
    assert not checks.best_dev([1, 0, 2, 2, 3], gold, 7, report)[0]


def test_counting_oracle_matches_hand_counts():
    scores = checks.macro_micro([0, 1, 1, 1], [0, 0, 1, 1], classes=2)
    # class 0: P 1/1, R 1/2; class 1: P 2/3, R 2/2
    p, r = (1 + checks.Fraction(2, 3)) / 2, (checks.Fraction(1, 2) + 1) / 2
    assert scores["macro_f"] == 2 * p * r / (p + r) and scores["micro_f"] == checks.Fraction(3, 4)


def test_history_checks(small_training):
    result, _, _ = small_training
    history = result.history
    assert checks.best_epoch(history, result.best_epoch)[0]
    assert not checks.best_epoch(history, result.best_epoch % len(history) + 1)[0]
    tied = [dict(h, dev_macro_f=0.5) for h in history]
    assert checks.best_epoch(tied, 1)[0] and not checks.best_epoch(tied, 2)[0]
    assert checks.loss_decreased(history)[0]
    assert not checks.loss_decreased(list(reversed(history)))[0]


def test_reload_check(small_training):
    result, dev, ckpt = small_training
    _, probs = result.model.predict(dev)
    _, reloaded = training.load_checkpoint(ckpt).predict(dev)
    assert checks.same_rows(probs, reloaded, "reload")[0]
    reloaded[0, 0] += 1e-6
    assert not checks.same_rows(probs, reloaded, "reload")[0]


# -- host speed and timed operations -------------------------------------------


def test_sampler_samples_inside_the_block_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    sampler = hostspeed.Sampler()
    with sampler:
        end = time.perf_counter() + 1.2
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.speeds) >= 4  # entry, two alarms, exit
    assert sampler.factor() == pytest.approx(sum(sampler.speeds) / len(sampler.speeds))
    assert min(sampler.speeds) > 0


def test_failed_operation_is_counted_and_scaled(tmp_path):
    run = workloads.Run(seed=1, seconds=1.0, trace=False, workdir=tmp_path)

    def boom():
        raise ValueError("boom")

    assert run.operation(boom)[0] is None
    assert run.operation(lambda: 7)[0] == 7
    assert (run.attempted, run.failed, run.correct) == (2, 1, True)
    run.end_to_end(tokens=10, ops=2)
    assert len(run.call_s) == len(run.call_factor) == 2
    scaled = sum(t * f for t, f in zip(run.call_s, run.call_factor))
    assert run.metrics["op_s"][0] == pytest.approx(scaled / 2)
    assert run.details["wall_op_s"] == pytest.approx(sum(run.call_s) / 2)


# -- tracer ----------------------------------------------------------------------


def test_tracer_attributes_backward_and_restores(paper, tiny_model):
    _, records = paper
    model, config = tiny_model
    originals = (tensor.apply_op, tensor.backward, layers.LstmCell.run, training.total_loss, training.Adam.step)
    optimizer = training.Adam(model.named_parameters())
    saved = model.snapshot()
    batch = [model.encode(r) for r in records[:4]]
    with tracing.Tracer() as tracer:
        tracer.begin("run")
        model.zero_grad()
        logits = model.forward_batch(batch, training=True, rng=np.random.default_rng(0))
        loss = training.total_loss(logits, [r.label for r in records[:4]], model.penalized_weights(), 1e-8, 1e-8)
        tensor.backward(loss)
        optimizer.step()
        wall = tracer.end()
    model.load_snapshot(saved)
    assert originals == (tensor.apply_op, tensor.backward, layers.LstmCell.run, training.total_loss, training.Adam.step)
    parts = tracer.self_times()
    assert sum(parts.values()) == pytest.approx(wall, rel=1e-9)
    for name in ("embedding", "bilstm.0.fwd", "bilstm.1.bwd", "batch_norm", "gcn", "pool", "glue", "loss"):
        assert parts[name] > 0 and parts[name + ".backward"] > 0, name
    figures = tracing.per_layer(tracing.Tracer(), tracer, ops=1, tokens=sum(len(r) for r in records[:4]))
    assert figures["training.adam.floats_per_step"] > 0
    # Every reachable node runs one backward rule, except the parameter leaves.
    leaves = sum(1 for _, p in model.named_parameters())
    assert figures["tensor.tape_nodes_per_step"] == tracer.rule_calls + leaves


def test_benchmark_json_names_what_runs_report():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(entry.END_TO_END)
    reported = set(tracing.per_layer(tracing.Tracer(), tracing.Tracer(), ops=1, tokens=1))
    reported.add("corpus.graph_bytes_per_record")
    assert {m["name"] for m in spec["per_layer"]} == reported
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)

"""The three workloads.  Each runs in one process as a closed loop: every
call into the program starts when the previous one has returned.

A workload generates its inputs from the seed, writes them as files,
sets up (timed, several times, median reported), runs checks that need
no timed output, then runs whole operations until ``seconds`` of them
have been timed, and checks their outputs outside the timed region.

With tracing on, the timed operations are then replayed over identical
work (same parameters, optimizer state, batch order and dropout masks)
inside a Tracer.  The traced wall time less the timed seconds of the
plain operations is the tracing overhead.
"""

from __future__ import annotations

import gc
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import gen
import hostspeed
from syngcn import corpus, tensor, training
from syngcn.corpus import build_vocab, label_names
from syngcn.training import Adam, Model, TrainConfig
from tracing import Tracer, per_layer

_now = time.perf_counter

MIN_STEPS = 2  # the second step's forward runs while the first step's tape is alive, as in train()
FD_EPS = 1e-6
FD_RECORDS = 2
ADJACENCY_SAMPLES = 8
PREDICT_CHUNKS = 12
SMALL_EPOCHS = 2
# Set-up takes 6 ms on epochs_small and 1 s on train_paper; repeating it for
# a few seconds lets its median cover the host's slow and fast spells.
MIN_SETUPS = 3
SETUP_SECONDS = 2.0


@dataclass
class Run:
    """What one run reports: operations, check results and figures."""

    seed: int
    seconds: float
    trace: bool
    workdir: Path
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    details: dict = field(default_factory=dict)
    spans: list[dict] = field(default_factory=list)
    call_s: list[float] = field(default_factory=list)  # wall seconds of each timed call, in order
    call_factor: list[float] = field(default_factory=list)  # reference-host seconds per wall second, per call
    sampler: hostspeed.Sampler = field(default_factory=hostspeed.Sampler)

    @property
    def correct(self) -> bool:
        return not self.failures

    def check(self, name: str, result: tuple[bool, str]) -> None:
        ok, detail = result
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}")
            print(f"check failed: {name}: {detail}", file=sys.stderr)

    def operation(self, fn, *args):
        """One timed operation; returns (result or None, wall seconds)."""
        self.attempted += 1
        result = error = None
        with self.sampler:
            start = _now()
            try:
                result = fn(*args)
            except Exception:  # a failed operation is counted and the loop goes on
                error = traceback.format_exc()
            self.call_s.append(_now() - start)
        self.call_factor.append(self.sampler.factor())
        if error is not None:
            self.failed += 1
            print(error, file=sys.stderr, end="")
        return result, self.call_s[-1]

    def setups(self, setup):
        """Run set-up at least MIN_SETUPS times and for at least SETUP_SECONDS;
        report the median in reference-host seconds, keep the last state."""
        times, state = [], None
        with self.sampler:
            while len(times) < MIN_SETUPS or sum(times) < SETUP_SECONDS:
                state = None
                gc.collect()
                start = _now()
                state = setup()
                times.append(_now() - start)
        factor = self.sampler.factor()
        self.metrics["setup_s"] = (statistics.median(times) * factor, "s")
        self.details.update(setup_s_each=times, setup_host_factor=factor)
        return state

    def end_to_end(self, tokens: int, ops: int) -> None:
        """Figures of the timed calls; times in reference-host seconds (see hostspeed)."""
        busy = sum(self.call_s)
        scaled = sum(t * f for t, f in zip(self.call_s, self.call_factor))
        self.metrics["tok_per_s"] = (tokens / scaled, "tok/s")
        self.metrics["op_s"] = (scaled / ops, "s")
        self.metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        self.details.update(
            timed_ops=ops,
            timed_tokens=tokens,
            timed_s=busy,
            timed_reference_s=scaled,
            wall_tok_per_s=tokens / busy,
            wall_op_s=busy / ops,
            timed_call_s=self.call_s,
            host_factor=self.call_factor,
        )

    def traced(self, setup_tracer: Tracer, replay, graph_bytes: float) -> None:
        """Replay the timed operations inside a Tracer and report per-layer figures.

        The host is sampled during the replay as during the timed calls, so
        the overhead can also be given in reference-host seconds, which
        leaves out the host's change of state between the two passes.
        """
        ops, tokens, untraced_s = (self.details[k] for k in ("timed_ops", "timed_tokens", "timed_s"))
        with self.sampler, Tracer() as tracer:
            tracer.begin("run")
            replay()
            wall = tracer.end()
        traced_ref, untraced_ref = wall * self.sampler.factor(), self.details["timed_reference_s"]
        self_s = tracer.self_times()
        parts = {name: round(v, 6) for name, v in sorted(self_s.items(), key=lambda kv: -kv[1])}
        self.details["trace"] = {
            "traced_wall_s": wall,
            "untraced_wall_s": untraced_s,
            "overhead_s": wall - untraced_s,
            "traced_reference_s": traced_ref,
            "untraced_reference_s": untraced_ref,
            "overhead_reference_s": traced_ref - untraced_ref,
            "sum_of_self_s": sum(self_s.values()),
            "self_s": parts,
        }
        figures = per_layer(setup_tracer, tracer, ops, tokens)
        figures["corpus.graph_bytes_per_record"] = graph_bytes
        for name, value in figures.items():
            unit = "count" if name.endswith(("_calls", "_per_step")) else "s"
            unit = {"corpus.graph_bytes_per_record": "B", "tensor.apply_op_calls_per_token": "1/tok"}.get(name, unit)
            self.metrics[name] = (value, unit)
        self.spans = setup_tracer.dump() + tracer.dump()


def _graph_bytes(model: Model, records) -> float:
    """Mean bytes an encoded record's adjacency keeps alive, following .base."""
    total = 0
    for rec in records:
        base = model.encode(rec)[1]
        while base.base is not None:
            base = base.base
        total += base.nbytes
    return total / len(records)


def _tokens(records) -> int:
    return sum(len(r) for r in records)


def _setup_or_trace(run: Run, setup):
    """Timed set-ups for an untraced run; one traced set-up for a traced run."""
    tracer = Tracer()
    if not run.trace:
        return run.setups(setup), tracer
    with tracer:
        tracer.begin("setup")
        state = setup()
        tracer.end()
    return state, tracer


# ---------------------------------------------------------------------------
# train_paper
# ---------------------------------------------------------------------------


@dataclass
class _TrainState:
    records: list
    model: Model
    optimizer: Adam
    encoded: list
    rng: np.random.Generator


def train_paper(run: Run) -> None:
    rng = np.random.default_rng([run.seed, 1])
    raw = gen.paper_corpus(rng)
    path = run.workdir / "train.jsonl"
    gen.write_jsonl(raw, path)
    config = TrainConfig(seed=run.seed)

    def setup() -> _TrainState:
        # The steps train() takes before its first batch.
        records, _ = corpus.load_corpus(path, classes=config.classes, max_len=config.max_len)
        vocab = build_vocab(records, min_count=config.min_count)
        step_rng = np.random.default_rng(config.seed)
        model = Model(config, vocab, step_rng)
        optimizer = Adam(model.named_parameters(), lr=config.learning_rate, weight_decay=config.weight_decay)
        encoded = [model.encode(rec) for rec in records]
        return _TrainState(records, model, optimizer, encoded, step_rng)

    state, setup_tracer = _setup_or_trace(run, setup)
    model, encoded = state.model, state.encoded
    labels = [rec.label for rec in state.records]
    run.details["vocabulary"] = len(model.vocab)

    for i in rng.choice(len(raw), size=ADJACENCY_SAMPLES, replace=False):
        run.check("adjacency", checks.adjacency(raw[i], encoded[i][1]))

    # As train(): the batch order comes from the generator that built the model.
    order = state.rng.permutation(len(encoded))
    _gradient_check(run, model, config, [encoded[i] for i in order[:FD_RECORDS]], [labels[i] for i in order[:FD_RECORDS]])

    start_state = model.snapshot()
    rng_state = state.rng.bit_generator.state

    def batches():
        perm = order
        while True:
            for start in range(0, len(perm), config.batch_size):
                yield perm[start : start + config.batch_size]
            perm = state.rng.permutation(len(encoded))

    def steps(count: int | None, optimizer: Adam, check: bool):
        # Mirrors the inner loop of train(), including which results stay
        # referenced while the next batch runs forward.
        done, tokens, busy = 0, 0, 0.0
        logits = loss = None
        for idx in batches():
            if done >= count if count is not None else done >= MIN_STEPS and busy >= run.seconds:
                break

            def step():
                nonlocal logits, loss
                model.zero_grad()
                logits = model.forward_batch([encoded[i] for i in idx], training=True, rng=state.rng)
                loss = training.total_loss(
                    logits, [labels[i] for i in idx], model.penalized_weights(), config.lambda_orth, config.lambda_l2
                )
                tensor.backward(loss)
                model.embedding.table.grad[0] = 0.0
                optimizer.step()
                return loss.item()

            value, elapsed = run.operation(step) if check else (step(), 0.0)
            busy += elapsed
            done += 1
            tokens += sum(len(state.records[i]) for i in idx)
            if check:
                run.check("finite loss", checks.finite_loss(value if value is not None else float("nan")))
                run.check("padding row", checks.padding_row(model.embedding.table.data))
        return done, tokens, busy

    count, tokens, _ = steps(None, state.optimizer, check=True)
    run.end_to_end(tokens, count)
    run.details["train_tokens_per_batch"] = tokens / count
    if run.trace:

        def replay():
            model.load_snapshot(start_state)
            state.rng.bit_generator.state = rng_state
            steps(count, Adam(model.named_parameters(), lr=config.learning_rate, weight_decay=config.weight_decay), check=False)

        run.traced(setup_tracer, replay, _graph_bytes(model, state.records[:64]))


def directional_difference(model: Model, config: TrainConfig, batch, labels, seed: int, eps: float = FD_EPS):
    """Loss at theta + eps v and theta - eps v, and <grad, v>, for a random
    unit direction v over every parameter and a fixed dropout mask.

    Leaves the model as it found it (batch norm's running statistics move
    in training mode, so they are restored too) with gradients cleared.
    """
    saved = model.snapshot()

    def loss_value():
        logits = model.forward_batch(batch, training=True, rng=np.random.default_rng([seed, 7]))
        return training.total_loss(logits, labels, model.penalized_weights(), config.lambda_orth, config.lambda_l2)

    params = [p for _, p in model.named_parameters()]
    model.zero_grad()
    tensor.backward(loss_value())
    grads = [p.grad if p.grad is not None else np.zeros_like(p.data) for p in params]
    direction_rng = np.random.default_rng([seed, 8])
    v = [direction_rng.standard_normal(p.shape) for p in params]
    norm = np.sqrt(sum(float((d * d).sum()) for d in v))
    grad_dot_v = sum(float((g * d).sum()) for g, d in zip(grads, v)) / norm
    base = [p.data for p in params]
    values = []
    for sign in (1.0, -1.0):
        for p, b, d in zip(params, base, v):
            p.data = b + (sign * eps / norm) * d
        values.append(loss_value().item())
    model.load_snapshot(saved)
    model.zero_grad()
    return values[0], values[1], grad_dot_v


def _gradient_check(run: Run, model: Model, config: TrainConfig, batch, labels) -> None:
    f_plus, f_minus, grad_dot_v = directional_difference(model, config, batch, labels, run.seed)
    run.details["gradient_check"] = {"grad_dot_v": grad_dot_v, "f_plus": f_plus, "f_minus": f_minus, "eps": FD_EPS}
    run.check("directional derivative", checks.directional_derivative(f_plus, f_minus, FD_EPS, grad_dot_v))


# ---------------------------------------------------------------------------
# predict_paper
# ---------------------------------------------------------------------------


def predict_paper(run: Run) -> None:
    rng = np.random.default_rng([run.seed, 2])
    train_path, inputs_path, ckpt = run.workdir / "train.jsonl", run.workdir / "predict.jsonl", run.workdir / "model.sgcn"
    gen.write_jsonl(gen.paper_corpus(rng), train_path)
    raw = gen.predict_corpus(rng, PREDICT_CHUNKS)
    gen.write_jsonl(raw, inputs_path)
    # The model to predict with: paper defaults over the train_paper vocabulary.
    config = TrainConfig(seed=run.seed)
    train_records, _ = corpus.load_corpus(train_path)
    training.save_checkpoint(Model(config, build_vocab(train_records)), ckpt)
    del train_records

    def setup():
        model = training.load_checkpoint(ckpt)
        records, report = corpus.load_corpus(inputs_path, schema="eval", classes=model.config.classes)
        return model, records, report

    (model, records, report), setup_tracer = _setup_or_trace(run, setup)
    run.details["truncated_records"] = report.truncated
    chunks = [records[i : i + gen.CHUNK] for i in range(0, len(records), gen.CHUNK)]

    def predict(count: int | None, keep: list | None):
        done, tokens, busy = 0, 0, 0.0
        while (done < count) if count is not None else (done == 0 or busy < run.seconds):
            chunk = chunks[done % len(chunks)]
            if keep is None:
                training.predictions_to_lines(model, chunk)
            else:
                lines, elapsed = run.operation(training.predictions_to_lines, model, chunk)
                run.attempted += len(chunk) - 1  # one operation per predicted record
                if lines is None:
                    run.failed += len(chunk) - 1
                busy += elapsed
                keep.append(lines)
            done += 1
            tokens += _tokens(chunk)
        return done, tokens, busy

    outputs: list = []
    count, tokens, _ = predict(None, outputs)
    ops = sum(len(chunks[i % len(chunks)]) for i in range(count))
    run.end_to_end(tokens, ops)
    run.details["chunks"] = count

    names = label_names(model.config.classes)
    for lines in outputs:
        run.check("probability rows", checks.prediction_lines(lines or [], names) if lines else (False, "no output"))
    first = checks.probabilities(outputs[0] or [])
    all_rows = np.vstack([checks.probabilities(lines) for lines in outputs[: len(chunks)] if lines])
    run.check("rows differ", checks.rows_differ(all_rows))

    perm = np.random.default_rng([run.seed, 9]).permutation(len(chunks[0]))
    shuffled = checks.probabilities(training.predictions_to_lines(model, [chunks[0][i] for i in perm]))
    run.check("shuffled inputs", checks.same_rows(first[perm], shuffled, "shuffled chunk 0"))

    long = [i for i in range(len(chunks[0])) if len(raw[i]["tokens"]) > corpus.MAX_TOKENS]
    trunc_path = run.workdir / "truncated.jsonl"
    gen.write_jsonl([gen.truncate(raw[i]) for i in long], trunc_path)
    copies, _ = corpus.load_corpus(trunc_path, schema="eval", classes=model.config.classes)
    truncated = checks.probabilities(training.predictions_to_lines(model, copies))
    for row, i in enumerate(long):
        run.check("truncation", checks.same_rows(first[i : i + 1], truncated[row : row + 1], f"record {i}"))

    if run.trace:
        run.traced(setup_tracer, lambda: predict(count, None), _graph_bytes(model, chunks[0]))


# ---------------------------------------------------------------------------
# epochs_small
# ---------------------------------------------------------------------------


def epochs_small(run: Run) -> None:
    rng = np.random.default_rng([run.seed, 3])
    train_raw, dev_raw = gen.split(rng, gen.twin_corpus(rng))
    train_path, dev_path = run.workdir / "train.jsonl", run.workdir / "dev.jsonl"
    gen.write_jsonl(train_raw, train_path)
    gen.write_jsonl(dev_raw, dev_path)
    ckpt, history_path = run.workdir / "model.sgcn", run.workdir / "history.jsonl"
    # The acceptance-test configuration of the syntax-sensitivity gate.
    config = TrainConfig(
        embedding_size=16, hidden_neurons=16, dropout=0.0, learning_rate=0.02, epochs=SMALL_EPOCHS, seed=run.seed
    )

    def setup():
        return corpus.load_corpus(train_path)[0], corpus.load_corpus(dev_path)[0]

    (train_records, dev_records), setup_tracer = _setup_or_trace(run, setup)
    gold = [rec.label for rec in dev_records]

    def rounds(count: int | None, results: list | None):
        done, busy = 0, 0.0
        while (done < count) if count is not None else (done == 0 or busy < run.seconds):
            if results is None:
                result = training.train(config, train_records, dev_records)
            else:
                result, elapsed = run.operation(training.train, config, train_records, dev_records)
                run.attempted += config.epochs - 1  # one operation per epoch
                if result is None:
                    run.failed += config.epochs - 1
                busy += elapsed
                results.append(result)
            if result is not None:
                training.save_checkpoint(result.model, ckpt)
                training.save_history(result.history, history_path)
            if results is not None and result is not None:
                _check_training(run, result, dev_records, gold, ckpt)
            done += 1
        return done, busy

    results: list = []
    count, _ = rounds(None, results)
    epochs = count * config.epochs
    tokens = _tokens(train_records) * epochs
    run.end_to_end(tokens, epochs)
    run.details["best_epochs"] = [r.best_epoch for r in results if r is not None]

    if run.trace:
        run.traced(setup_tracer, lambda: rounds(count, None), _graph_bytes(results[0].model, train_records[:64]))


def _check_training(run: Run, result, dev_records, gold, ckpt) -> None:
    classes = result.model.config.classes
    pred, probs = result.model.predict(dev_records)
    run.check("best_dev", checks.best_dev(pred, gold, classes, result.best_dev))
    run.check("best_epoch", checks.best_epoch(result.history, result.best_epoch))
    _, reloaded = training.load_checkpoint(ckpt).predict(dev_records)
    run.check("checkpoint reload", checks.same_rows(probs, reloaded, "dev probabilities"))
    run.check("loss decreased", checks.loss_decreased(result.history))


WORKLOADS = {"train_paper": train_paper, "predict_paper": predict_paper, "epochs_small": epochs_small}

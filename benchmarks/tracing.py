"""Spans around the calls into the program's layers, recorded from outside.

A ``Tracer`` replaces, for as long as it is installed, the module and
class attributes through which the program reaches each layer with
wrappers that open a span (name, start, end, parent).  It also wraps
``tensor.apply_op``: every op registered while a span is open gets its
backward rule wrapped, so backward time is charged to the layer whose
span was open when the op ran forward.  Spans stay in memory; the run
writes them out when it ends.

Self time of a span is its duration minus its child spans and the
backward rules run inside it; the self times of all spans and rules
under the root span add up to the root's wall time.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

import numpy as np

from syngcn import corpus, layers, tensor, training

_now = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent index
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        # Hot-path tallies, kept apart from the Counter for speed.
        self.apply_op_calls = 0
        self.rule_calls = 0
        self.rule_s: defaultdict[str, float] = defaultdict(float)  # layer -> backward rule seconds
        self._open: list[list] = []  # [name, start, index, child seconds]
        self._restore: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------------

    def begin(self, name: str) -> None:
        index = len(self.spans)
        self.spans.append((name, 0.0, 0.0, self._open[-1][2] if self._open else -1))
        self._open.append([name, _now(), index, 0.0])

    def end(self) -> float:
        stop = _now()
        name, start, index, child = self._open.pop()
        self.spans[index] = (name, start, stop, self.spans[index][3])
        self.self_s[name] += stop - start - child
        self.counts[name] += 1
        if self._open:
            self._open[-1][3] += stop - start
        return stop - start


    # -- installation ----------------------------------------------------------

    def _patch(self, owner, attr: str, name) -> None:
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            tracer.begin(name(args) if callable(name) else name)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.end()

        setattr(owner, attr, traced)
        self._restore.append((owner, attr, original))

    def _patch_apply_op(self) -> None:
        original = tensor.apply_op
        tracer = self
        opened = self._open

        def apply_op(parents, data, backward_rule):
            tracer.apply_op_calls += 1
            return original(parents, data, _TimedRule(tracer, opened[-1][0] if opened else "untraced", backward_rule))

        tensor.apply_op = apply_op
        self._restore.append((tensor, "apply_op", original))

    def _patch_adam(self) -> None:
        # Count the parameter floats one step changes.  Adam rebinds each
        # p.data to a new array, so the old arrays stay valid for the count,
        # which runs outside the "adam" span.
        original = training.Adam.step
        tracer = self

        @functools.wraps(original)
        def step(opt):
            before = [p.data for _, p in opt.named_params]
            tracer.counts["tape_leaves"] += sum(1 for _, p in opt.named_params if p.grad is not None)
            tracer.begin("adam")
            try:
                return original(opt)
            finally:
                tracer.end()
                tracer.counts["adam_floats_changed"] += sum(
                    int(np.count_nonzero(old != p.data)) for old, (_, p) in zip(before, opt.named_params)
                )

        training.Adam.step = step
        self._restore.append((training.Adam, "step", original))

    def __enter__(self) -> "Tracer":
        self._patch_apply_op()
        self._patch_adam()
        self._patch(corpus, "load_corpus", "load_corpus")
        self._patch(training, "build_graph", "build_graph")
        self._patch(training.Model, "encode", "encode")
        self._patch(training.Model, "forward_batch", "glue")
        self._patch(training.Model, "predict", "predict")
        self._patch(layers.EmbeddingTable, "__call__", "embedding")
        self._patch(layers.LstmCell, "run", lambda args: args[0].name)
        self._patch(layers.BatchNorm, "__call__", "batch_norm")
        self._patch(layers.GcnLayer, "__call__", "gcn")
        self._patch(training, "percentile_pool", "pool")
        self._patch(training, "average_pool", "pool")
        self._patch(layers.FcHead, "__call__", "pool")
        self._patch(training, "total_loss", "loss")
        self._patch(tensor, "backward", "backward")
        self._patch(training, "evaluate", "evaluate")
        self._patch(training, "train", "train")
        self._patch(training, "save_checkpoint", "checkpoint_save")
        self._patch(training, "load_checkpoint", "checkpoint_load")
        self._patch(training, "save_history", "history_save")
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def self_times(self) -> dict[str, float]:
        """Self seconds per span name, plus "<layer>.backward" for backward rules."""
        out = dict(self.self_s)
        out.update({f"{layer}.backward": v for layer, v in self.rule_s.items()})
        return out

    def dump(self) -> list[dict]:
        return [
            {"name": name, "start": start, "end": end, "parent": parent}
            for name, start, end, parent in self.spans
        ]


class _TimedRule:
    """A backward rule that charges its run time to the layer that registered it.

    One slotted object per op, rather than a closure and its cells, keeps
    the extra allocations (and the garbage collections they trigger) low.
    """

    __slots__ = ("tracer", "layer", "rule")

    def __init__(self, tracer: Tracer, layer: str, rule):
        self.tracer, self.layer, self.rule = tracer, layer, rule

    def __call__(self, g):
        start = _now()
        try:
            return self.rule(g)
        finally:
            seconds = _now() - start
            tracer = self.tracer
            tracer.rule_s[self.layer] += seconds
            tracer.rule_calls += 1
            if tracer._open:
                tracer._open[-1][3] += seconds


LAYER_PARTS = (
    "embedding",
    "bilstm.0.fwd",
    "bilstm.0.bwd",
    "bilstm.1.fwd",
    "bilstm.1.bwd",
    "batch_norm",
    "gcn",
    "pool",
)


def per_layer(setup: Tracer, run: Tracer, ops: int, tokens: int) -> dict[str, float]:
    """Per-layer metrics from one traced set-up and one traced timed region.

    Times in the timed region are self seconds per operation (a step, a
    predicted record or an epoch); set-up and per-call figures say so in
    their names' documentation in README.md.
    """
    s, c = defaultdict(float, run.self_times()), run.counts
    steps = max(c["adam"], 1)

    def per_call(name: str) -> float:
        total = setup.counts[name] + c[name]
        return (setup.self_s[name] + s[name]) / total if total else 0.0

    out = {
        "corpus.load_s": setup.self_s["load_corpus"],
        "corpus.build_graph_s": per_call("build_graph"),
        "corpus.encode_calls": setup.counts["encode"] + c["encode"] / ops,
        "tensor.backward_s": s["backward"] / ops,
        "tensor.tape_nodes_per_step": (run.rule_calls + c["tape_leaves"]) / steps,
        "tensor.apply_op_calls_per_token": run.apply_op_calls / tokens,
    }
    for part in LAYER_PARTS:
        out[f"layers.{part}.forward_s"] = s[part] / ops
        out[f"layers.{part}.backward_s"] = s[part + ".backward"] / ops
    out.update(
        {
            "training.glue.forward_s": s["glue"] / ops,
            "training.glue.backward_s": s["glue.backward"] / ops,
            "training.loss.forward_s": s["loss"] / ops,
            "training.loss.backward_s": s["loss.backward"] / ops,
            "training.adam.step_s": s["adam"] / ops,
            "training.adam.floats_per_step": c["adam_floats_changed"] / steps,
            "training.predict_s": sum(end - start for name, start, end, _ in run.spans if name == "predict") / ops,
            "training.checkpoint_save_s": per_call("checkpoint_save"),
            "training.checkpoint_load_s": per_call("checkpoint_load"),
            "metrics.evaluate_s": s["evaluate"] / ops,
        }
    )
    return out


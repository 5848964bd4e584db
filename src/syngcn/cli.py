"""Command-line interface: train, eval, predict, inspect-graph, sweep.

train and sweep take their config from --config (a JSON file) and repeatable
--set key=value overrides of any TrainConfig field, applied in order.
inspect-graph ignores labels.
Exit code 0 means success, 2 a usage error, 1 any runtime failure;
runtime failures carry a module-qualified message on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .corpus import ADJACENCY_MODES, MAX_TOKENS, CorpusError, build_graph, load_corpus
from .files import write_lines
from .metrics import evaluate
from .tensor import GraphError, ShapeError
from .training import (
    CheckpointError,
    ConfigError,
    Model,
    OptimizationError,
    ScoreError,
    TrainConfig,
    load_checkpoint,
    load_config,
    predictions_to_lines,
    save_checkpoint,
    save_history,
    train,
)

_ERROR_PREFIX = {
    CorpusError: "corpus",
    ConfigError: "config",
    CheckpointError: "checkpoint",
    OptimizationError: "training",
    ShapeError: "tensor",
    GraphError: "tensor",
}


def _fail(sub: str, exc: Exception) -> int:
    prefix = next((p for t, p in _ERROR_PREFIX.items() if isinstance(exc, t)), "error")
    print(f"syngcn {sub}: {prefix}: {exc}", file=sys.stderr)
    return 1


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file mirroring TrainConfig fields")
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        dest="overrides",
        help="override any TrainConfig field (repeatable)",
    )


def _resolve_config(args) -> TrainConfig:
    config = load_config(args.config) if args.config else TrainConfig()
    overrides: dict[str, str] = {}
    for item in args.overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        overrides[key] = value
    return config.with_overrides(overrides)


def _load(path, max_len: int, classes: int | None = None, what: str | None = None):
    """Records of a corpus, noting truncation; unlabeled without ``classes``, labeled and non-empty with ``what``."""
    records, report = load_corpus(path, schema="train" if what else "eval", classes=classes, max_len=max_len)
    if what and not records:
        raise CorpusError(f"{what} corpus {path} is empty")
    if report.truncated:
        print(f"note: truncated {report.truncated} over-long record(s) in {path}", file=sys.stderr)
    return records


def _run_training(config: TrainConfig, args, verbose: bool):
    train_records = _load(args.train, config.max_len, config.classes, "training")
    dev_records = _load(args.dev, config.max_len, config.classes, "dev") if args.dev else train_records
    log = (lambda e: print(f"epoch {e['epoch']}: loss={e['train_loss']:.4f} "
                           f"dev_macro_f={e['dev_macro_f']:.4f}", file=sys.stderr)) if verbose else None
    return train(config, train_records, dev_records, log=log)


def _check_output(flag: str, path: str) -> None:
    """Fail before any training when ``path`` cannot become a file: it is a directory, or its parent is missing."""
    if os.path.isdir(path):
        raise ConfigError(f"{flag} {path} is a directory")
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        raise ConfigError(f"{flag} {path}: directory {parent} does not exist")


def _cmd_train(args) -> int:
    config = _resolve_config(args)
    history_path = args.out or (args.checkpoint + ".history")
    _check_output("--checkpoint", args.checkpoint)
    _check_output("--out", history_path)
    result = _run_training(config, args, args.verbose)
    save_checkpoint(result.model, args.checkpoint)
    save_history(result.history, history_path)
    print(f"best epoch {result.best_epoch}: "
          f"dev macro F = {result.best_dev.macro_f:.4f}, micro F = {result.best_dev.micro_f:.4f}")
    print(f"checkpoint: {args.checkpoint}")
    print(f"history: {history_path}")
    return 0


def _score(args, score, what: str | None = None):
    """The checkpoint's model, the --test records read with its max_len and classes, and score(model, records)."""
    model = load_checkpoint(args.checkpoint)
    records = _load(args.test, model.config.max_len, model.config.classes, what)
    try:
        return model, records, score(model, records)
    except ScoreError as exc:  # the checkpoint's weights give a record non-finite class scores
        raise CheckpointError(f"{args.checkpoint}: {exc}") from None


def _cmd_eval(args) -> int:
    model, records, (pred, _) = _score(args, Model.predict, "evaluation")
    report = evaluate(pred, [rec.label for rec in records], model.config.classes)
    print(report.format_table())
    if args.out:
        write_lines(args.out, [report.to_json()])
        print(f"report: {args.out}")
    return 0


def _cmd_predict(args) -> int:
    *_, lines = _score(args, predictions_to_lines)
    if args.out:
        write_lines(args.out, lines)
    else:
        for line in lines:
            print(line)
    return 0


def _format_matrix(matrix: np.ndarray) -> str:
    return "\n".join("  ".join(f"{v:6.3f}" for v in row) for row in matrix)


def _cmd_inspect_graph(args) -> int:
    records = _load(args.corpus, args.max_len)
    if not 0 <= args.index < len(records):
        raise CorpusError(f"record index {args.index} out of range (corpus has {len(records)})")
    record = records[args.index]
    normalized = build_graph(record, mode=args.mode or ADJACENCY_MODES[0])
    print(f"record {args.index}: {len(record)} token(s), {len(record.sent_bounds)} sentence(s)")
    print("tokens:", " ".join(record.tokens))
    print("adjacency:")
    print(_format_matrix((normalized > 0) * 1.0))  # A is the support of D^-1/2 A D^-1/2
    print("normalized adjacency:")
    print(_format_matrix(normalized))
    return 0


def _cmd_sweep(args) -> int:
    values = [v for v in (args.values or "").split(",") if v.strip()]
    if not values:
        raise ConfigError("sweep needs --values with at least one value")
    base = _resolve_config(args)
    configs = [base.with_overrides({args.param: value}) for value in values]  # every value parses before a run
    if args.out:
        _check_output("--out", args.out)
    rows = []
    for value, config in zip(values, configs):
        result = _run_training(config, args, verbose=False)
        rows.append((value, result.best_dev.macro_f, result.best_dev.micro_f))
        print(f"{args.param}={value}: dev macro F = {rows[-1][1]:.4f}, micro F = {rows[-1][2]:.4f}",
              file=sys.stderr)
    width = max(len(f"{args.param}={v}") for v, *_ in rows)
    print(f"{'setting':{width}}  macro_F  micro_F")
    for value, macro, micro in rows:
        print(f"{f'{args.param}={value}':{width}}  {macro:7.4f}  {micro:7.4f}")
    if args.out:
        write_lines(args.out, (json.dumps({args.param: value, "dev_macro_f": macro, "dev_micro_f": micro},
                                          sort_keys=True) for value, macro, micro in rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="syngcn",
        description="Syntax-based GCN emotion classifier for dependency-parsed microblogs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model and write checkpoint + history")
    p_train.add_argument("--train", required=True, help="training corpus (JSON lines)")
    p_train.add_argument("--dev", help="dev corpus (defaults to the training corpus)")
    p_train.add_argument("--checkpoint", required=True, help="output checkpoint path")
    p_train.add_argument("--out", help="history file path (default CHECKPOINT.history)")
    p_train.add_argument("--verbose", action="store_true", help="log one line per epoch")
    _add_config_flags(p_train)
    p_train.set_defaults(func=_cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a labeled corpus")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--test", required=True, help="labeled corpus to score")
    p_eval.add_argument("--out", help="write the report as JSON")
    p_eval.set_defaults(func=_cmd_eval)

    p_pred = sub.add_parser("predict", help="emit one prediction per input record")
    p_pred.add_argument("--checkpoint", required=True)
    p_pred.add_argument("--test", required=True, help="input records (labels optional)")
    p_pred.add_argument("--out", help="output file (default stdout)")
    p_pred.set_defaults(func=_cmd_predict)

    p_graph = sub.add_parser("inspect-graph", help="print a record's adjacency matrices")
    p_graph.add_argument("--corpus", required=True)
    p_graph.add_argument("--index", type=int, default=0, help="record index (default 0)")
    p_graph.add_argument("--mode", choices=ADJACENCY_MODES)
    p_graph.add_argument("--max-len", type=_positive_int, default=MAX_TOKENS)
    p_graph.set_defaults(func=_cmd_inspect_graph)

    p_sweep = sub.add_parser("sweep", help="train+eval over a grid of one config field")
    p_sweep.add_argument("--train", required=True)
    p_sweep.add_argument("--dev")
    p_sweep.add_argument("--param", required=True, help="config field to sweep (e.g. pooling_p)")
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.add_argument("--out", help="write rows as JSON lines")
    _add_config_flags(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (*_ERROR_PREFIX, OSError, ValueError) as exc:
        return _fail(args.command, exc)


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: train, eval, predict, inspect-graph, sweep.

Every subcommand takes --seed (default 42) so runs are reproducible,
and --set key=value for ad-hoc config overrides.  Exit code 0 means
success, 2 a usage error, 1 any runtime failure; runtime failures carry
a module-qualified message on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .corpus import MAX_TOKENS, CorpusError, build_graph, load_corpus
from .metrics import evaluate
from .tensor import GraphError, ShapeError
from .training import (
    CheckpointError,
    ConfigError,
    OptimizationError,
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


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file mirroring TrainConfig fields")
    parser.add_argument("--seed", type=int, help="RNG seed (default 42)")
    parser.add_argument("--mode", choices=["syntax", "all_ones"], help="adjacency mode")
    parser.add_argument("--pooling", help="percentile:P, average, or fc")
    parser.add_argument("--classes", type=int, choices=[7, 2], help="output classes")
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
    if args.seed is not None:
        overrides["seed"] = str(args.seed)
    if args.mode:
        overrides["adjacency_mode"] = args.mode
    if args.classes:
        overrides["classes"] = str(args.classes)
    if args.pooling:
        if args.pooling.startswith("percentile:"):
            overrides["pooling"] = "percentile"
            overrides["pooling_p"] = args.pooling.split(":", 1)[1]
        elif args.pooling in ("average", "fc"):
            overrides["pooling"] = args.pooling
        else:
            raise ConfigError(f"--pooling expects percentile:P, average, or fc, got {args.pooling!r}")
    for item in args.overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        overrides[key] = value
    return config.with_overrides(overrides)


def _load_labeled(path, config: TrainConfig, what: str):
    records, report = load_corpus(path, schema="train", classes=config.classes, max_len=config.max_len)
    if not records:
        raise CorpusError(f"{what} corpus {path} is empty")
    if report.truncated:
        print(f"note: truncated {report.truncated} over-long record(s) in {path}", file=sys.stderr)
    return records


def _run_training(config: TrainConfig, args, verbose: bool):
    train_records = _load_labeled(args.train, config, "training")
    dev_records = _load_labeled(args.dev, config, "dev") if args.dev else train_records
    log = (lambda e: print(f"epoch {e['epoch']}: loss={e['train_loss']:.4f} "
                           f"dev_macro_f={e['dev_macro_f']:.4f}", file=sys.stderr)) if verbose else None
    return train(config, train_records, dev_records, log=log)


def _cmd_train(args) -> int:
    config = _resolve_config(args)
    result = _run_training(config, args, args.verbose)
    save_checkpoint(result.model, args.checkpoint)
    history_path = args.out or (args.checkpoint + ".history")
    save_history(result.history, history_path)
    print(f"best epoch {result.best_epoch}: "
          f"dev macro F = {result.best_dev.macro_f:.4f}, micro F = {result.best_dev.micro_f:.4f}")
    print(f"checkpoint: {args.checkpoint}")
    print(f"history: {history_path}")
    return 0


def _cmd_eval(args) -> int:
    model = load_checkpoint(args.checkpoint)
    records, _ = load_corpus(
        args.test, schema="train", classes=model.config.classes, max_len=model.config.max_len
    )
    if not records:
        raise CorpusError(f"evaluation corpus {args.test} is empty")
    pred, _ = model.predict(records)
    report = evaluate(pred, [rec.label for rec in records], model.config.classes)
    print(report.format_table())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report.to_json() + "\n")
        print(f"report: {args.out}")
    return 0


def _cmd_predict(args) -> int:
    model = load_checkpoint(args.checkpoint)
    records, _ = load_corpus(
        args.test, schema="eval", classes=model.config.classes, max_len=model.config.max_len
    )
    lines = predictions_to_lines(model, records)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.writelines(line + "\n" for line in lines)
    else:
        for line in lines:
            print(line)
    return 0


def _format_matrix(matrix: np.ndarray) -> str:
    return "\n".join("  ".join(f"{v:6.3f}" for v in row) for row in matrix)


def _cmd_inspect_graph(args) -> int:
    records, _ = load_corpus(args.corpus, schema="eval", max_len=args.max_len)
    if not 0 <= args.index < len(records):
        raise CorpusError(f"record index {args.index} out of range (corpus has {len(records)})")
    record = records[args.index]
    graph = build_graph(record, mode=args.mode or "syntax", max_len=args.max_len)
    print(f"record {args.index}: {len(record)} token(s), {len(record.sent_bounds)} sentence(s)")
    print("tokens:", " ".join(record.tokens))
    print("adjacency (real-token block):")
    print(_format_matrix(graph.adjacency))
    print("normalized adjacency:")
    print(_format_matrix(graph.normalized))
    return 0


def _cmd_sweep(args) -> int:
    values = [v for v in (args.values or "").split(",") if v.strip()]
    if not values:
        raise ConfigError("sweep needs --values with at least one value")
    base = _resolve_config(args)
    rows = []
    for value in values:
        config = base.with_overrides({args.param: value})
        result = _run_training(config, args, verbose=False)
        rows.append((value, result.best_dev.macro_f, result.best_dev.micro_f))
        print(f"{args.param}={value}: dev macro F = {rows[-1][1]:.4f}, micro F = {rows[-1][2]:.4f}",
              file=sys.stderr)
    width = max(len(f"{args.param}={v}") for v, *_ in rows)
    print(f"{'setting':{width}}  macro_F  micro_F")
    for value, macro, micro in rows:
        print(f"{f'{args.param}={value}':{width}}  {macro:7.4f}  {micro:7.4f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            for value, macro, micro in rows:
                fh.write(json.dumps({args.param: value, "dev_macro_f": macro, "dev_micro_f": micro},
                                    sort_keys=True) + "\n")
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
    p_graph.add_argument("--mode", choices=["syntax", "all_ones"])
    p_graph.add_argument("--max-len", type=int, default=MAX_TOKENS)
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

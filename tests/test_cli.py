"""End-to-end CLI tests driving main() with temp corpora and checkpoints."""

import builtins
import errno
import json
import math
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syngcn import cli
from syngcn.cli import main
from syngcn.corpus import EMOTION_NAMES, save_corpus
from syngcn.synthetic import class_word_corpus
from syngcn.training import TrainConfig, load_checkpoint, load_history, save_checkpoint

from helpers import CORPUS_ROWS, WRONG_TYPES

ROOT = Path(__file__).resolve().parent.parent

# 100 000 nested arrays: more than the JSON decoder's recursion limit allows.
DEEP_JSON = "[" * 100_000 + "]" * 100_000

TINY = [
    "--set", "embedding_size=6",
    "--set", "hidden_neurons=5",
    "--set", "lstm_layers=1",
    "--set", "dropout=0.0",
    "--set", "batch_size=4",
    "--set", "epochs=2",
    "--set", "max_len=20",
]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus.jsonl"
    save_corpus(class_word_corpus(8, classes=7, rng=np.random.default_rng(3)), corpus)
    checkpoint = root / "model.sgcn"
    code = main(["train", "--train", str(corpus), "--checkpoint", str(checkpoint), *TINY])
    assert code == 0
    return {
        "root": root,
        "corpus": corpus,
        "corpus_bytes": corpus.read_bytes(),
        "checkpoint": checkpoint,
        "history": root / "model.sgcn.history",
    }


class TestTrain:
    def test_missing_required_flag_is_usage_error(self, capsys):
        assert main(["train", "--checkpoint", "x.sgcn"]) == 2
        assert "--train" in capsys.readouterr().err

    def test_smoke_outputs(self, workspace, capsys):
        capsys.readouterr()
        assert workspace["checkpoint"].exists()
        history = load_history(workspace["history"])
        assert len(history) == 2
        assert all(math.isfinite(e["train_loss"]) for e in history)

    def test_corpus_never_mutated(self, workspace):
        assert workspace["corpus"].read_bytes() == workspace["corpus_bytes"]

    def test_pooling_flag_reaches_config(self, workspace, tmp_path, capsys):
        ckpt = tmp_path / "max.sgcn"
        code = main(
            ["train", "--train", str(workspace["corpus"]), "--checkpoint", str(ckpt),
             "--set", "pooling=percentile", "--set", "pooling_p=100", *TINY]
        )
        capsys.readouterr()
        assert code == 0
        model = load_checkpoint(ckpt)
        assert model.config.pooling == "percentile"
        assert model.config.pooling_p == 100.0
        assert load_history(str(ckpt) + ".history")

    def test_bad_override_fails_with_config_message(self, workspace, tmp_path, capsys):
        code = main(
            ["train", "--train", str(workspace["corpus"]),
             "--checkpoint", str(tmp_path / "x.sgcn"), "--set", "nonsense=1"]
        )
        assert code == 1
        assert "config" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "options,field",
        [
            (["--config", "{tmp}/cfg.json"], "epochs"),
            (["--set", "epochs=abc"], "epochs"),
            (["--set", "dropout=0.5x"], "dropout"),
            (["--set", "hidden_neurons=0"], "hidden_neurons"),
            (["--set", "weight_decay=-1"], "weight_decay"),
        ],
        ids=["config-file", "set-int", "set-float", "set-zero-size", "set-negative-rate"],
    )
    def test_mistyped_config_value_fails_with_config_message(self, workspace, tmp_path, capsys, options, field):
        (tmp_path / "cfg.json").write_text(json.dumps({"epochs": "3"}))
        code = main(
            ["train", "--train", str(workspace["corpus"]), "--checkpoint", str(tmp_path / "x.sgcn"),
             *(option.format(tmp=tmp_path) for option in options)]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert "config:" in err and field in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "options,message",
        [
            (["--set", "epochs"], "--set expects KEY=VALUE, got 'epochs'"),
            (["--config", "{tmp}/cfg.json"], "{tmp}/cfg.json: config must be a JSON object"),
        ],
        ids=["set-without-equals", "config-not-an-object"],
    )
    def test_malformed_config_input_fails_with_one_config_line(self, workspace, tmp_path, capsys, options, message):
        (tmp_path / "cfg.json").write_text("[1, 2]")
        code = main(
            ["train", "--train", str(workspace["corpus"]), "--checkpoint", str(tmp_path / "x.sgcn"), *TINY,
             *(option.format(tmp=tmp_path) for option in options)]
        )
        assert code == 1
        assert capsys.readouterr().err == f"syngcn train: config: {message.format(tmp=tmp_path)}\n"
        assert not (tmp_path / "x.sgcn").exists()

    def test_verbose_logs_each_epoch_of_the_history(self, workspace, tmp_path, capsys):
        ckpt = tmp_path / "v.sgcn"
        code = main(["train", "--train", str(workspace["corpus"]), "--checkpoint", str(ckpt), *TINY, "--verbose"])
        err = capsys.readouterr().err
        assert code == 0
        history = load_history(str(ckpt) + ".history")
        lines = err.splitlines()
        assert len(history) == len(lines) == 2
        for entry, line in zip(history, lines):
            match = re.fullmatch(r"epoch (\d+): loss=(\S+) dev_macro_f=(\S+)", line)
            assert match, line
            assert int(match[1]) == entry["epoch"]
            assert match[2] == f"{entry['train_loss']:.4f}" and match[3] == f"{entry['dev_macro_f']:.4f}"

    @pytest.mark.parametrize("flag", ["--checkpoint", "--out"])
    @pytest.mark.parametrize("fault", ["directory", "missing-parent"])
    def test_unwritable_output_path_fails_before_training(self, workspace, tmp_path, capsys, monkeypatch, flag, fault):
        monkeypatch.setattr(cli, "train", lambda *args, **kwargs: pytest.fail("train() ran"))
        (tmp_path / "taken").mkdir()
        bad = tmp_path / "taken" if fault == "directory" else tmp_path / "absent" / "file"
        paths = {"--checkpoint": tmp_path / "x.sgcn", "--out": tmp_path / "x.history", flag: bad}
        code = main(["train", "--train", str(workspace["corpus"]), "--checkpoint", str(paths["--checkpoint"]),
                     "--out", str(paths["--out"]), *TINY])
        reason = f"{bad} is a directory" if fault == "directory" else f"{bad}: directory {bad.parent} does not exist"
        assert capsys.readouterr().err == f"syngcn train: config: {flag} {reason}\n"
        assert code == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]  # no checkpoint and no history
        assert not any((tmp_path / "taken").iterdir())

    def test_negative_seed_fails_with_config_message(self, workspace, tmp_path, capsys):
        code = main(
            ["train", "--train", str(workspace["corpus"]), "--checkpoint", str(tmp_path / "x.sgcn"),
             *TINY, "--set", "seed=-1"]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("syngcn train: config: seed "), err
        assert not (tmp_path / "x.sgcn").exists()

    def test_deeply_nested_config_fails_with_config_message(self, workspace, tmp_path, capsys):
        (tmp_path / "cfg.json").write_text(DEEP_JSON)
        code = main(
            ["train", "--train", str(workspace["corpus"]), "--checkpoint", str(tmp_path / "x.sgcn"),
             "--config", str(tmp_path / "cfg.json")]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert "config:" in err and "cfg.json" in err and "Traceback" not in err

    def test_non_utf8_config_fails_with_config_message(self, workspace, tmp_path, capsys):
        (tmp_path / "cfg.json").write_bytes('{"pooling": "\u00e9"}'.encode("latin-1"))
        code = main(
            ["train", "--train", str(workspace["corpus"]), "--checkpoint", str(tmp_path / "x.sgcn"),
             "--config", str(tmp_path / "cfg.json")]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert "config:" in err and "cfg.json: not UTF-8" in err and "Traceback" not in err

    def test_missing_corpus_file_fails(self, tmp_path, capsys):
        code = main(
            ["train", "--train", str(tmp_path / "absent.jsonl"),
             "--checkpoint", str(tmp_path / "x.sgcn"), *TINY]
        )
        assert code == 1
        assert capsys.readouterr().err

    def test_label_name_outside_class_set_fails_with_corpus_message(self, workspace, tmp_path, capsys):
        corpus = tmp_path / "named.jsonl"
        rows = [json.loads(line) for line in workspace["corpus_bytes"].decode("utf-8").splitlines()]
        corpus.write_text("".join(json.dumps({**row, "label": EMOTION_NAMES[row["label"]]}) + "\n" for row in rows))
        code = main(
            ["train", "--train", str(corpus), "--checkpoint", str(tmp_path / "x.sgcn"), *TINY, "--set", "classes=2"]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert re.fullmatch(f"syngcn train: corpus: {re.escape(str(corpus))}: line 1: .*\n", err), err
        assert not (tmp_path / "x.sgcn").exists()

    def test_diverging_run_fails_with_training_message(self, workspace, tmp_path):
        # In a child process, so that NumPy warnings would reach stderr as a user sees them.
        proc = subprocess.run(
            [sys.executable, "-m", "syngcn", "train", "--train", str(workspace["corpus"]),
             "--checkpoint", str(tmp_path / "x.sgcn"), *TINY, "--set", "learning_rate=1e300"],
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("syngcn train: training: epoch "), proc.stderr
        assert "RuntimeWarning" not in proc.stderr and "Traceback" not in proc.stderr
        assert not (tmp_path / "x.sgcn").exists()

    @pytest.mark.parametrize(
        "sizes",
        [["embedding_size=1000000000"], ["pooling=fc", "max_len=1000000000"], ["hidden_neurons=1000000000"],
         ["lstm_layers=1000000000"]],
        ids=["embedding", "fc_head", "hidden", "layers"],
    )
    def test_oversized_model_fails_with_config_message(self, workspace, tmp_path, sizes):
        # main() in a child whose address space is capped at 2 GiB: the weights cannot be allocated,
        # and nothing the test does can take memory from the rest of the machine.
        script = (
            "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)); "
            "from syngcn.cli import main; sys.exit(main(sys.argv[1:]))"
        )
        sets = [arg for size in sizes for arg in ("--set", size)]
        proc = subprocess.run(
            [sys.executable, "-c", script, "train", "--train", str(workspace["corpus"]),
             "--checkpoint", str(tmp_path / "x.sgcn"), *TINY, *sets],
            env={**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"},
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("syngcn train: config: cannot allocate the model: "), proc.stderr
        assert sizes[-1] in proc.stderr and " bytes of weights" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "x.sgcn").exists()


class TestEval:
    def test_table_rows_and_regression_vs_history(self, workspace, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = main(
            ["eval", "--checkpoint", str(workspace["checkpoint"]),
             "--test", str(workspace["corpus"]), "--out", str(report_path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        table_lines = [line for line in out.splitlines() if line and not line.startswith("report:")]
        assert len(table_lines) == 1 + 7 + 2  # header + per-class + micro/macro
        assert "Micro Average" in out and "Macro Average" in out

        # the checkpoint holds the best-dev epoch; scoring its own training
        # set must reproduce that epoch's recorded training metrics
        history = load_history(workspace["history"])
        dev_f = [e["dev_macro_f"] for e in history]
        best = history[dev_f.index(max(dev_f))]
        report = json.loads(report_path.read_text())
        assert report["micro"]["f"] == pytest.approx(best["train_micro_f"], abs=1e-12)
        assert report["accuracy"] == pytest.approx(best["train_accuracy"], abs=1e-12)

    def test_corrupt_checkpoint_fails(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.sgcn"
        bad.write_bytes(workspace["checkpoint"].read_bytes()[:40])
        code = main(["eval", "--checkpoint", str(bad), "--test", str(workspace["corpus"])])
        assert code == 1
        assert "checkpoint" in capsys.readouterr().err

    def test_checkpoint_directory_fails_with_one_checkpoint_line(self, workspace, tmp_path, capsys):
        code = main(["eval", "--checkpoint", str(tmp_path), "--test", str(workspace["corpus"])])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        prefix = f"syngcn eval: checkpoint: cannot read checkpoint {tmp_path}: "
        assert captured.err.startswith(prefix) and captured.err.count("\n") == 1, captured.err

    def test_manifest_without_shape_fails_cleanly(self, workspace, tmp_path, capsys):
        import struct

        blob = workspace["checkpoint"].read_bytes()
        header_len = struct.unpack("<Q", blob[8:16])[0]
        header = json.loads(blob[16 : 16 + header_len])
        del header["arrays"][0]["shape"]
        raw = json.dumps(header, sort_keys=True).encode("utf-8")
        bad = tmp_path / "noshape.sgcn"
        bad.write_bytes(blob[:8] + struct.pack("<Q", len(raw)) + raw + blob[16 + header_len :])
        code = main(["predict", "--checkpoint", str(bad), "--test", str(workspace["corpus"])])
        assert code == 1
        err = capsys.readouterr().err
        assert "checkpoint:" in err and "shape" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "corruption, named",
        [("nan_weight", "gcn.weight"), ("null_word", "vocab_words"), ("huge_embedding", "embedding.table")],
    )
    def test_unusable_checkpoint_fails_cleanly(self, workspace, tmp_path, capsys, corruption, named):
        import struct

        bad = tmp_path / "unusable.sgcn"
        if corruption == "nan_weight":
            model = load_checkpoint(workspace["checkpoint"])
            model.gcn.weight.data[0, 0] = float("nan")
            save_checkpoint(model, bad)
        else:
            blob = workspace["checkpoint"].read_bytes()
            header_len = struct.unpack("<Q", blob[8:16])[0]
            header = json.loads(blob[16 : 16 + header_len])
            if corruption == "null_word":
                header["vocab_words"][0] = None
            else:  # 10**9 dimensions: a model of this config could not be allocated
                header["config"]["embedding_size"] = 10**9
            raw = json.dumps(header, sort_keys=True).encode("utf-8")
            bad.write_bytes(blob[:8] + struct.pack("<Q", len(raw)) + raw + blob[16 + header_len :])
        code = main(["predict", "--checkpoint", str(bad), "--test", str(workspace["corpus"])])
        assert code == 1
        captured = capsys.readouterr()
        assert "checkpoint:" in captured.err and named in captured.err and "Traceback" not in captured.err
        assert "NaN" not in captured.out

    @pytest.mark.parametrize("command", ["eval", "predict"])
    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out-file"])
    def test_overflowing_scores_fail_as_checkpoint_error(self, workspace, tmp_path, capsys, command, to_file):
        # Every array is finite, so the file loads; the GCN product overflows and softmax gives NaN rows.
        model = load_checkpoint(workspace["checkpoint"])
        model.batch_norm.beta.data[...] = 1e308
        model.gcn.weight.data[...] = np.abs(model.gcn.weight.data) + 1
        bad = tmp_path / "overflow.sgcn"
        save_checkpoint(model, bad)
        out = tmp_path / "out"
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([command, "--checkpoint", str(bad), "--test", str(workspace["corpus"]),
                         *(["--out", str(out)] if to_file else [])])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == f"syngcn {command}: checkpoint: {bad}: record 0: non-finite class scores\n"
        assert captured.out == "" and not out.exists()
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_header_config_without_a_field_fails_cleanly(self, workspace, tmp_path, capsys, command):
        import struct

        blob = workspace["checkpoint"].read_bytes()
        header_len = struct.unpack("<Q", blob[8:16])[0]
        header = json.loads(blob[16 : 16 + header_len])
        del header["config"]["seed"]
        raw = json.dumps(header, sort_keys=True).encode("utf-8")
        bad = tmp_path / "noseed.sgcn"
        bad.write_bytes(blob[:8] + struct.pack("<Q", len(raw)) + raw + blob[16 + header_len :])
        capsys.readouterr()
        code = main([command, "--checkpoint", str(bad), "--test", str(workspace["corpus"])])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == f"syngcn {command}: checkpoint: {bad} has a corrupt header: config lacks seed\n"

    def test_deeply_nested_header_fails_cleanly(self, workspace, tmp_path, capsys):
        import struct

        raw = DEEP_JSON.encode("utf-8")
        bad = tmp_path / "deep.sgcn"
        bad.write_bytes(b"SGCN" + struct.pack("<IQ", 1, len(raw)) + raw)
        code = main(["predict", "--checkpoint", str(bad), "--test", str(workspace["corpus"])])
        assert code == 1
        err = capsys.readouterr().err
        assert "checkpoint:" in err and "deep.sgcn" in err and "Traceback" not in err


class TestPredict:
    def test_empty_input_empty_output(self, workspace, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        out_path = tmp_path / "pred.jsonl"
        code = main(
            ["predict", "--checkpoint", str(workspace["checkpoint"]),
             "--test", str(empty), "--out", str(out_path)]
        )
        assert code == 0
        assert out_path.read_text() == ""

    def test_probabilities_sum_to_one(self, workspace, capsys):
        code = main(
            ["predict", "--checkpoint", str(workspace["checkpoint"]), "--test", str(workspace["corpus"])]
        )
        out = capsys.readouterr().out
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert len(rows) == 8
        for row in rows:
            assert abs(sum(row["probabilities"]) - 1.0) < 1e-9
            assert isinstance(row["label"], str) and isinstance(row["label_id"], int)

    def test_unlabeled_records_accepted(self, workspace, tmp_path, capsys):
        stripped = tmp_path / "unlabeled.jsonl"
        with open(workspace["corpus"], encoding="utf-8") as fh:
            rows = [json.loads(line) for line in fh]
        with open(stripped, "w", encoding="utf-8") as fh:
            for row in rows:
                del row["label"]
                fh.write(json.dumps(row) + "\n")
        code = main(["predict", "--checkpoint", str(workspace["checkpoint"]), "--test", str(stripped)])
        capsys.readouterr()
        assert code == 0

    def test_deterministic_output(self, workspace, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for path in (a, b):
            code = main(
                ["predict", "--checkpoint", str(workspace["checkpoint"]),
                 "--test", str(workspace["corpus"]), "--out", str(path)]
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()


# inspect-graph's full stdout for a record of two 2-token sentences.
TWO_SENTENCE_DISPLAY = {
    "syntax": """\
record 0: 4 token(s), 2 sentence(s)
tokens: a b c d
adjacency:
 1.000   1.000   0.000   0.000
 1.000   1.000   0.000   0.000
 0.000   0.000   1.000   1.000
 0.000   0.000   1.000   1.000
normalized adjacency:
 0.500   0.500   0.000   0.000
 0.500   0.500   0.000   0.000
 0.000   0.000   0.500   0.500
 0.000   0.000   0.500   0.500
""",
    "all_ones": """\
record 0: 4 token(s), 2 sentence(s)
tokens: a b c d
adjacency:
 1.000   1.000   1.000   1.000
 1.000   1.000   1.000   1.000
 1.000   1.000   1.000   1.000
 1.000   1.000   1.000   1.000
normalized adjacency:
 0.250   0.250   0.250   0.250
 0.250   0.250   0.250   0.250
 0.250   0.250   0.250   0.250
 0.250   0.250   0.250   0.250
""",
}


class TestInspectGraph:
    def write_corpus(self, path, rows):
        with open(path, "w", encoding="utf-8") as fh:
            for row in rows:
                fh.write(json.dumps(row) + "\n")

    def test_single_token(self, tmp_path, capsys):
        corpus = tmp_path / "one.jsonl"
        self.write_corpus(corpus, [{"tokens": ["hi"], "heads": [0]}])
        assert main(["inspect-graph", "--corpus", str(corpus)]) == 0
        out = capsys.readouterr().out
        assert "1 token(s)" in out
        assert " 1.000" in out

    def test_three_token_chain_normalization(self, tmp_path, capsys):
        corpus = tmp_path / "chain.jsonl"
        self.write_corpus(corpus, [{"tokens": ["a", "b", "c"], "heads": [2, 0, 2]}])
        assert main(["inspect-graph", "--corpus", str(corpus)]) == 0
        out = capsys.readouterr().out
        assert f"{1.0 / math.sqrt(6.0):6.3f}" in out  # 0.408
        assert f"{1.0 / 3.0:6.3f}" in out

    def test_all_ones_uniform_block(self, tmp_path, capsys):
        corpus = tmp_path / "two.jsonl"
        self.write_corpus(corpus, [{"tokens": ["a", "b"], "heads": [0, 1]}])
        assert main(["inspect-graph", "--corpus", str(corpus), "--mode", "all_ones"]) == 0
        out = capsys.readouterr().out
        assert out.count(" 0.500") == 4

    @pytest.mark.parametrize("mode", ["syntax", "all_ones"])
    def test_two_sentence_display(self, tmp_path, capsys, mode):
        corpus = tmp_path / "two.jsonl"
        self.write_corpus(corpus, [{"tokens": ["a", "b", "c", "d"], "sent_bounds": [[0, 2], [2, 4]],
                                    "heads": [0, 1, 2, 0]}])
        assert main(["inspect-graph", "--corpus", str(corpus), "--mode", mode]) == 0
        assert capsys.readouterr().out == TWO_SENTENCE_DISPLAY[mode]

    @pytest.mark.parametrize("label", ["positive", "happiness", 9, None], ids=["polarity", "emotion", "9", "none"])
    def test_labels_are_ignored(self, tmp_path, capsys, label):
        corpus = tmp_path / "labeled.jsonl"
        row = {"tokens": ["a", "b"], "heads": [0, 1]}
        self.write_corpus(corpus, [row if label is None else {**row, "label": label}])
        assert main(["inspect-graph", "--corpus", str(corpus)]) == 0
        out = capsys.readouterr().out
        assert "normalized adjacency:" in out and out.count(" 0.500") == 4

    @pytest.mark.parametrize("row", [{"tokens": ["a"], "heads": 3}, {"tokens": ["a"], "heads": ["x"]}])
    def test_mistyped_corpus_line_fails_cleanly(self, tmp_path, capsys, row):
        corpus = tmp_path / "bad.jsonl"
        self.write_corpus(corpus, [row])
        assert main(["inspect-graph", "--corpus", str(corpus)]) == 1
        err = capsys.readouterr().err
        assert "corpus:" in err and "line 1: heads" in err and "Traceback" not in err

    def test_deeply_nested_corpus_line_fails_cleanly(self, tmp_path, capsys):
        corpus = tmp_path / "deep.jsonl"
        corpus.write_text(json.dumps({"tokens": ["a"], "heads": [0]}) + "\n" + DEEP_JSON + "\n")
        assert main(["inspect-graph", "--corpus", str(corpus)]) == 1
        err = capsys.readouterr().err
        assert "corpus:" in err and "line 2" in err and "Traceback" not in err

    @pytest.mark.parametrize("max_len", ["0", "-1", "x"])
    def test_non_positive_max_len_is_usage_error(self, tmp_path, capsys, max_len):
        corpus = tmp_path / "two.jsonl"
        self.write_corpus(corpus, [{"tokens": ["a", "b"], "heads": [0, 1]}])
        assert main(["inspect-graph", "--corpus", str(corpus), "--max-len", max_len]) == 2
        err = capsys.readouterr().err
        assert f"--max-len: expected a positive integer, got '{max_len}'" in err and "Traceback" not in err

    def test_bad_index(self, tmp_path, capsys):
        corpus = tmp_path / "one.jsonl"
        self.write_corpus(corpus, [{"tokens": ["hi"], "heads": [0]}])
        assert main(["inspect-graph", "--corpus", str(corpus), "--index", "5"]) == 1
        assert "corpus" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "eval", "predict", "inspect-graph"])
def test_every_corpus_reader_notes_truncated_records(workspace, tmp_path, capsys, command):
    # 25 tokens, a chain to the root at the end: over TINY's max_len of 20, which the checkpoint carries.
    corpus = tmp_path / "long.jsonl"
    corpus.write_text(json.dumps({"tokens": [f"w{i}" for i in range(25)], "heads": [*range(2, 26), 0], "label": 0}))
    checkpoint = ["--checkpoint", str(workspace["checkpoint"]), "--test", str(corpus)]
    args = {
        "train": ["--train", str(corpus), "--checkpoint", str(tmp_path / "x.sgcn"), *TINY],
        "eval": checkpoint,
        "predict": checkpoint,
        "inspect-graph": ["--corpus", str(corpus), "--max-len", "20"],
    }[command]
    assert main([command, *args]) == 0
    assert f"note: truncated 1 over-long record(s) in {corpus}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "eval", "predict", "inspect-graph"])
@pytest.mark.parametrize(
    "row, token",
    [
        ({"tokens": list("abc"), "heads": [0, 3, 2], "label": 0}, 1),
        ({"tokens": list("abcde"), "sent_bounds": [[0, 2], [2, 5]], "heads": [0, 1, 0, 3, 2], "label": 0}, 3),
    ],
    ids=["alone", "after-a-valid-sentence"],
)
def test_every_corpus_reader_rejects_a_head_cycle(workspace, tmp_path, capsys, command, row, token):
    corpus = tmp_path / "cycle.jsonl"
    corpus.write_text(json.dumps({"tokens": ["a"], "heads": [0], "label": 0}) + "\n" + json.dumps(row) + "\n")
    checkpoint = ["--checkpoint", str(workspace["checkpoint"]), "--test", str(corpus)]
    args = {
        "train": ["--train", str(corpus), "--checkpoint", str(tmp_path / "x.sgcn"), *TINY],
        "eval": checkpoint,
        "predict": checkpoint,
        "inspect-graph": ["--corpus", str(corpus)],
    }[command]
    assert main([command, *args]) == 1
    err = capsys.readouterr().err
    assert err == f"syngcn {command}: corpus: {corpus}: line 2: heads form a cycle through token {token}\n"
    assert not (tmp_path / "x.sgcn").exists()


class TestSweep:
    def test_two_value_grid_and_equivalence(self, workspace, tmp_path, capsys):
        rows_path = tmp_path / "sweep.jsonl"
        code = main(
            ["sweep", "--train", str(workspace["corpus"]), "--param", "pooling_p",
             "--values", "50,100", "--out", str(rows_path), *TINY]
        )
        out = capsys.readouterr().out
        assert code == 0
        data_lines = [line for line in out.splitlines() if line.startswith("pooling_p=")]
        assert len(data_lines) == 2

        rows = [json.loads(line) for line in rows_path.read_text().splitlines()]
        assert [r["pooling_p"] for r in rows] == ["50", "100"]

        # a standalone run with the same config and seed must agree
        ckpt = tmp_path / "alone.sgcn"
        code = main(
            ["train", "--train", str(workspace["corpus"]), "--checkpoint", str(ckpt),
             "--set", "pooling_p=100", *TINY]
        )
        capsys.readouterr()
        assert code == 0
        history = load_history(str(ckpt) + ".history")
        assert rows[1]["dev_macro_f"] == pytest.approx(max(e["dev_macro_f"] for e in history), abs=1e-12)

    def test_every_value_parses_before_the_first_run(self, workspace, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "train", lambda *args, **kwargs: pytest.fail("train() ran"))
        code = main(["sweep", "--train", str(workspace["corpus"]), "--param", "pooling_p", "--values", "10,abc",
                     "--out", str(tmp_path / "rows.jsonl"), *TINY])
        captured = capsys.readouterr()
        assert captured.err == "syngcn sweep: config: pooling_p expects float, got 'abc'\n"
        assert code == 1 and captured.out == ""
        assert not any(tmp_path.iterdir())

    def test_out_directory_fails_before_the_first_run(self, workspace, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "train", lambda *args, **kwargs: pytest.fail("train() ran"))
        code = main(["sweep", "--train", str(workspace["corpus"]), "--param", "pooling_p", "--values", "10,50",
                     "--out", str(tmp_path), *TINY])
        assert capsys.readouterr().err == f"syngcn sweep: config: --out {tmp_path} is a directory\n"
        assert code == 1 and not any(tmp_path.iterdir())

    def test_empty_grid_is_error(self, workspace, capsys):
        code = main(
            ["sweep", "--train", str(workspace["corpus"]), "--param", "pooling_p", "--values", ""]
        )
        assert code == 1
        assert "at least one value" in capsys.readouterr().err

    def test_unknown_param_is_error(self, workspace, capsys):
        code = main(
            ["sweep", "--train", str(workspace["corpus"]), "--param", "bogus", "--values", "1,2"]
        )
        assert code == 1
        assert "bogus" in capsys.readouterr().err


class _DiskFullAfterFirstLine:
    """A file handle whose disk fills up once the first line is written."""

    def __init__(self, fh):
        self._fh, self._full = fh, False

    def write(self, data):
        if self._full:
            raise OSError(errno.ENOSPC, "No space left on device")
        cut = data.find(b"\n" if isinstance(data, bytes) else "\n") + 1
        self._fh.write(data[:cut] if cut else data)
        self._full = bool(cut)
        if 0 < cut < len(data):
            raise OSError(errno.ENOSPC, "No space left on device")
        return len(data)

    def writelines(self, lines):
        for line in lines:
            self.write(line)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


class TestAtomicOutputs:
    @pytest.mark.parametrize("writer", ["eval", "predict", "sweep", "save_corpus"])
    def test_failed_write_leaves_existing_target(self, workspace, tmp_path, capsys, monkeypatch, writer):
        target = tmp_path / "out.jsonl"
        target.write_bytes(b"old contents\n")
        corpus, checkpoint = str(workspace["corpus"]), str(workspace["checkpoint"])
        argv = {
            "eval": ["eval", "--checkpoint", checkpoint, "--test", corpus],
            "predict": ["predict", "--checkpoint", checkpoint, "--test", corpus],
            "sweep": ["sweep", "--train", corpus, "--param", "pooling_p", "--values", "50,100", *TINY],
        }
        records = class_word_corpus(3, classes=7, rng=np.random.default_rng(0))
        real_open = builtins.open

        def open_on_full_disk(file, mode="r", *args, **kwargs):
            fh = real_open(file, mode, *args, **kwargs)
            return _DiskFullAfterFirstLine(fh) if "w" in mode else fh

        monkeypatch.setattr(builtins, "open", open_on_full_disk)
        if writer == "save_corpus":
            with pytest.raises(OSError, match="No space left"):
                save_corpus(records, target)
        else:
            assert main([*argv[writer], "--out", str(target)]) == 1
            assert "No space left" in capsys.readouterr().err
        monkeypatch.undo()
        assert target.read_bytes() == b"old contents\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.jsonl"]


# Every field a --set pair, a config file or a sweep may name, plus one that does not exist.
FIELDS = [*TrainConfig.__dataclass_fields__, "no_such_field"]
# Fields whose size costs time or memory stay small here; the allocation
# failures are tested in a child process under RLIMIT_AS (TestTrain).
SIZE_FIELDS = ("embedding_size", "hidden_neurons", "lstm_layers", "epochs", "max_len")
SMALL_TEXT = st.sampled_from(["-1", "0", "1", "2", "3", "1.5", "nan", "", "x", "true"])
EXTREME_TEXT = (
    st.sampled_from(["0", "-1", "1e308", "-1e308", "1e-320", "nan", "inf", "-inf", "true", "", "x", str(2**64)])
    | st.integers().map(str)
    | st.floats().map(repr)
    | st.text(max_size=4)
)
# Integer options: the boundary values first, so hypothesis's simplest example uses them.
INT_TEXT = st.sampled_from(["0", "-1", "1", "2"]) | EXTREME_TEXT
ERROR_LINE = r"^syngcn {}: (corpus|config|checkpoint|training|tensor|error): "


def _values(field):
    return SMALL_TEXT if field in SIZE_FIELDS else EXTREME_TEXT


@st.composite
def _config_file(draw):
    fields = draw(st.lists(st.sampled_from(FIELDS), max_size=3, unique=True))
    small = st.integers(-1, 3) | WRONG_TYPES
    return {f: draw(small if f in SIZE_FIELDS else st.integers() | WRONG_TYPES) for f in fields}


class TestFuzz:
    @settings(max_examples=100)
    @given(data=st.data())
    def test_any_argv_exits_cleanly(self, workspace, tmp_path, capsys, data):
        cmd = data.draw(st.sampled_from(["inspect-graph", "predict", "eval", "train", "sweep"]))
        lines = workspace["corpus_bytes"].decode("utf-8").splitlines()
        corpus = tmp_path / "corpus.jsonl"
        kind = data.draw(st.sampled_from(["valid", "fuzzed line", "empty", "missing"]))
        if kind == "fuzzed line":
            lines[data.draw(st.integers(0, len(lines) - 1))] = json.dumps(data.draw(CORPUS_ROWS))
        corpus.unlink(missing_ok=True)
        if kind != "missing":
            corpus.write_text("" if kind == "empty" else "\n".join(lines) + "\n", encoding="utf-8")
        if cmd in ("eval", "predict"):
            blob = workspace["checkpoint"].read_bytes()
            cut = data.draw(st.sampled_from([len(blob), 0, 16, len(blob) - 8]))
            flip = data.draw(st.none() | st.integers(0, 8 * cut - 1)) if cut else None
            blob = bytearray(blob[:cut])
            if flip is not None:
                blob[flip // 8] ^= 1 << flip % 8
            checkpoint = tmp_path / "model.sgcn"
            checkpoint.write_bytes(bytes(blob))
            argv = [cmd, "--checkpoint", str(checkpoint), "--test", str(corpus)]
            argv += data.draw(st.sampled_from([[], ["--out", str(tmp_path / "out")], ["--out", str(tmp_path)]]))
        elif cmd == "inspect-graph":
            argv = [cmd, "--corpus", str(corpus)]
            for flag, values in (
                ("--max-len", INT_TEXT | st.none()),
                ("--index", st.none() | INT_TEXT),
                ("--mode", st.none() | st.sampled_from(["syntax", "all_ones", "tree"])),
            ):
                value = data.draw(values)
                argv += [] if value is None else [flag, value]
        else:
            argv = [cmd, "--train", str(corpus), *TINY]
            if cmd == "train":
                argv += ["--checkpoint", str(tmp_path / "model.sgcn")]
            else:
                param = data.draw(st.sampled_from(FIELDS))
                values = data.draw(st.lists(_values(param), min_size=1, max_size=2))
                argv += ["--param", param, "--values", ",".join(values)]
            for field in data.draw(st.lists(st.sampled_from(FIELDS), max_size=3)):
                argv += ["--set", f"{field}={data.draw(_values(field))}"]
            if data.draw(st.booleans()):
                config = tmp_path / "config.json"
                config.write_text(json.dumps(data.draw(_config_file())))
                argv += ["--config", str(config)]
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
        err = capsys.readouterr().err
        assert code in (0, 1, 2)
        assert "Traceback" not in err and "RuntimeWarning" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        if code:
            assert re.search(ERROR_LINE.format(cmd), err, re.MULTILINE), err


class TestEntryPoint:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_console_script_installed(self):
        exe = shutil.which("syngcn")
        assert exe, "console script should be on PATH after install"
        proc = subprocess.run([exe, "--help"], capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        for sub in ("train", "eval", "predict", "inspect-graph", "sweep"):
            assert sub in proc.stdout

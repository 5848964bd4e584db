"""End-to-end CLI tests driving main() with temp corpora and checkpoints."""

import json
import math
import shutil
import subprocess

import numpy as np
import pytest

from syngcn.cli import main
from syngcn.corpus import save_corpus
from syngcn.synthetic import class_word_corpus
from syngcn.training import load_checkpoint, load_history

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
             "--pooling", "percentile:100", *TINY]
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
        ],
        ids=["config-file", "set-int", "set-float"],
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

    def test_missing_corpus_file_fails(self, tmp_path, capsys):
        code = main(
            ["train", "--train", str(tmp_path / "absent.jsonl"),
             "--checkpoint", str(tmp_path / "x.sgcn"), *TINY]
        )
        assert code == 1
        assert capsys.readouterr().err


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

    @pytest.mark.parametrize("row", [{"tokens": ["a"], "heads": 3}, {"tokens": ["a"], "heads": ["x"]}])
    def test_mistyped_corpus_line_fails_cleanly(self, tmp_path, capsys, row):
        corpus = tmp_path / "bad.jsonl"
        self.write_corpus(corpus, [row])
        assert main(["inspect-graph", "--corpus", str(corpus)]) == 1
        err = capsys.readouterr().err
        assert "corpus:" in err and "line 1: heads" in err and "Traceback" not in err

    def test_bad_index(self, tmp_path, capsys):
        corpus = tmp_path / "one.jsonl"
        self.write_corpus(corpus, [{"tokens": ["hi"], "heads": [0]}])
        assert main(["inspect-graph", "--corpus", str(corpus), "--index", "5"]) == 1
        assert "corpus" in capsys.readouterr().err


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

"""Corpus ingestion, vocabulary, and dependency-graph tests."""

import ast
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syngcn.corpus import (
    EMOTION_NAMES,
    LABEL_SETS,
    MAX_TOKENS,
    POLARITY_NAMES,
    CorpusError,
    Record,
    Vocabulary,
    binarize_records,
    build_graph,
    build_vocab,
    check_records,
    label_names,
    load_corpus,
    save_corpus,
)

from helpers import CORPUS_ROWS


def make_record(tokens, heads, bounds=None, label=0):
    bounds = bounds if bounds is not None else [(0, len(tokens))]
    rec = Record(tuple(tokens), tuple(tuple(b) for b in bounds), tuple(heads), label)
    rec.validate(classes=7)
    return rec


def write_lines(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(row if isinstance(row, str) else json.dumps(row))
            fh.write("\n")


class TestLoadCorpus:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        records, report = load_corpus(path)
        assert records == []
        assert report.records == 0

    def test_three_token_record(self, tmp_path):
        path = tmp_path / "one.jsonl"
        write_lines(path, [{"tokens": ["a", "b", "c"], "heads": [2, 0, 2], "label": 0}])
        records, report = load_corpus(path)
        assert len(records) == 1
        rec = records[0]
        assert rec.tokens == ("a", "b", "c")
        assert rec.sent_bounds == ((0, 3),)
        assert rec.heads == (2, 0, 2)
        assert report.truncated == 0

    def test_long_record_truncated(self, tmp_path):
        n = 150
        # chain: token i headed by token i+1, last token is root
        heads = [i + 2 for i in range(n - 1)] + [0]
        path = tmp_path / "long.jsonl"
        write_lines(path, [{"tokens": [f"w{i}" for i in range(n)], "heads": heads, "label": 3}])
        records, report = load_corpus(path)
        assert report.truncated == 1
        rec = records[0]
        assert len(rec) == 140
        assert rec.sent_bounds == ((0, 140),)
        # the cut token's head pointed past the boundary; it became a root
        assert rec.heads[139] == 0
        assert rec.heads[:139] == tuple(i + 2 for i in range(139))

    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        write_lines(path, [{"tokens": ["a"], "heads": [0], "label": 0}, "{not json"])
        with pytest.raises(CorpusError, match="line 2"):
            load_corpus(path)

    def test_invalid_head_names_line(self, tmp_path):
        path = tmp_path / "badhead.jsonl"
        for row, problem in (
            ({"tokens": ["a", "b"], "heads": [3, 0], "label": 0}, "head 3 of token 0 outside"),
            ({"tokens": ["a", "b", "c"], "heads": [2, 2, 2], "label": 0}, "token 1 is its own head"),
            ({"tokens": ["a", "b"], "heads": [2, 1], "label": 0}, "sentence [0, 2) has no root"),
            (
                {"tokens": list("abcd"), "sent_bounds": [[0, 2], [2, 4]], "heads": [0, 1, 2, 1], "label": 0},
                "sentence [2, 4) has no root",
            ),
            ({"tokens": ["a", "b", "c"], "heads": [0, 3, 2], "label": 0}, "heads form a cycle through token 1"),
            (
                {"tokens": list("abcde"), "sent_bounds": [[0, 2], [2, 5]], "heads": [0, 1, 0, 3, 2], "label": 0},
                "heads form a cycle through token 3",
            ),
        ):
            write_lines(path, [row])
            with pytest.raises(CorpusError, match=f"line 1: {re.escape(problem)}"):
                load_corpus(path)

    def test_head_cycle_past_the_cut_rejected(self, tmp_path):
        # Truncation would break this cycle; the line is still rejected, as every other check runs before the cut.
        path = tmp_path / "long.jsonl"
        write_lines(path, [{"tokens": [f"w{i}" for i in range(8)], "heads": [0] * 6 + [8, 7], "label": 0}])
        with pytest.raises(CorpusError, match="line 1: heads form a cycle through token 6$"):
            load_corpus(path, max_len=5)

    @pytest.mark.parametrize(
        "classes,name,label",
        [(7, "like", 2), (2, "positive", 1), (2, "happiness", None), (7, "positive", None)],
        ids=["emotion-at-7", "polarity-at-2", "emotion-at-2", "polarity-at-7"],
    )
    def test_label_by_name(self, tmp_path, classes, name, label):
        # A name resolves only within the configured class set; one from the other set names the line.
        path = tmp_path / "named.jsonl"
        write_lines(path, [{"tokens": ["a"], "heads": [0], "label": name}])
        if label is None:
            allowed = ", ".join(label_names(classes))
            with pytest.raises(CorpusError, match=f"line 1: label '{name}' is not one of {allowed}$"):
                load_corpus(path, classes=classes)
        else:
            records, _ = load_corpus(path, classes=classes)
            assert records[0].label == label

    def test_label_required_for_training(self, tmp_path):
        path = tmp_path / "nolabel.jsonl"
        write_lines(path, [{"tokens": ["a"], "heads": [0]}])
        with pytest.raises(CorpusError, match="label"):
            load_corpus(path, schema="train")
        records, _ = load_corpus(path, schema="eval")
        assert records[0].label is None

    def test_no_classes_reads_no_labels(self, tmp_path):
        path = tmp_path / "any.jsonl"
        write_lines(path, [{"tokens": ["a"], "heads": [0], "label": value} for value in ("positive", "x", 9, [1])]
                    + [{"tokens": ["a"], "heads": [0]}])
        for schema in ("train", "eval"):
            records, _ = load_corpus(path, schema=schema, classes=None)
            assert [rec.label for rec in records] == [None] * 5

    def test_label_out_of_range(self, tmp_path):
        path = tmp_path / "range.jsonl"
        write_lines(path, [{"tokens": ["a"], "heads": [0], "label": 7}])
        with pytest.raises(CorpusError):
            load_corpus(path, classes=7)

    def test_multi_sentence_bounds(self, tmp_path):
        path = tmp_path / "multi.jsonl"
        write_lines(
            path,
            [{"tokens": list("abcde"), "sent_bounds": [[0, 2], [2, 5]], "heads": [0, 1, 2, 0, 2], "label": 1}],
        )
        records, _ = load_corpus(path)
        assert records[0].sent_bounds == ((0, 2), (2, 5))

    def test_gap_in_bounds_rejected(self, tmp_path):
        path = tmp_path / "gap.jsonl"
        write_lines(path, [{"tokens": list("abc"), "sent_bounds": [[0, 1], [2, 3]], "heads": [0, 0, 0], "label": 0}])
        with pytest.raises(CorpusError):
            load_corpus(path)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"heads": ["x", 0]}, "heads must be a list of integers"),
            ({"heads": 3}, "heads must be a list of integers"),
            ({"sent_bounds": [[0]]}, "sent_bounds span must be a list of 2 integers"),
            ({"sent_bounds": 5}, "sent_bounds must be a list"),
            ({"tokens": "ab"}, "tokens must be a list"),
            ({"tokens": [None, [1, 2], {"a": 1}], "heads": [0, 1, 1]}, "tokens must be a list of strings"),
            ({"heads": [0]}, "1 heads for 2 tokens"),
            ({"sent_bounds": [[0, 1]]}, "sentence spans cover 1 of 2 tokens"),
        ],
    )
    def test_mistyped_field_names_line_and_field(self, tmp_path, fields, message):
        path = tmp_path / "typed.jsonl"
        row = {"tokens": ["a", "b"], "heads": [0, 1], "label": 0, **fields}
        write_lines(path, [{"tokens": ["a"], "heads": [0], "label": 0}, row])
        with pytest.raises(CorpusError, match=f"typed.jsonl: line 2: .*{message}"):
            load_corpus(path)

    def test_ideographic_spaces_are_blank(self, tmp_path):
        path = tmp_path / "spaces.jsonl"
        row = json.dumps({"tokens": ["b"], "heads": [0], "label": 1})
        write_lines(path, [{"tokens": ["a"], "heads": [0], "label": 0}, "\u3000\u3000", f"\u3000{row}\u3000"])
        records, _ = load_corpus(path)
        assert [rec.tokens for rec in records] == [("a",), ("b",)]

    def test_non_utf8_names_line(self, tmp_path):
        path = tmp_path / "latin1.jsonl"
        path.write_bytes(b'{"tokens": ["a"], "heads": [0], "label": 0}\n{"tokens": ["\xe9"]}\n')
        with pytest.raises(CorpusError, match="line 2: not UTF-8"):
            load_corpus(path)

    @pytest.mark.parametrize("max_len", [0, -1])
    def test_non_positive_max_len_rejected(self, tmp_path, max_len):
        path = tmp_path / "two.jsonl"
        write_lines(path, [{"tokens": ["a", "b"], "heads": [0, 1], "label": 0}])
        with pytest.raises(ValueError, match=f"max_len must be positive, got {max_len}"):
            load_corpus(path, max_len=max_len)

    def test_invalid_head_past_the_cut_rejected(self, tmp_path):
        path = tmp_path / "long.jsonl"
        heads = [0] * 9 + [99]
        write_lines(path, [{"tokens": [f"w{i}" for i in range(10)], "heads": heads, "label": 0}])
        with pytest.raises(CorpusError, match="line 1: head 99 of token 9"):
            load_corpus(path, max_len=5)

    @settings(max_examples=300)
    @given(CORPUS_ROWS, st.sampled_from([*LABEL_SETS, None]))
    def test_any_json_record_loads_or_raises_corpus_error(self, tmp_path, raw, classes):
        path = tmp_path / "fuzz.jsonl"
        write_lines(path, [raw])
        try:
            records, _ = load_corpus(path, schema="eval", classes=classes, max_len=4)
        except CorpusError as exc:
            assert "line 1" in str(exc)
        else:
            for rec in records:
                rec.validate(classes=classes)
                assert reaches_roots(rec)
                assert len(rec) <= 4
                if classes is None:
                    assert rec.label is None
                elif isinstance(raw.get("label"), str):
                    assert label_names(classes)[rec.label] == raw["label"]

    def test_round_trip(self, tmp_path):
        recs = [
            make_record(["a", "b", "c"], [2, 0, 2], label=4),
            make_record(list("abcde"), [0, 1, 2, 0, 2], bounds=[(0, 2), (2, 5)], label=6),
        ]
        path = tmp_path / "rt.jsonl"
        save_corpus(recs, path)
        loaded, _ = load_corpus(path)
        assert loaded == recs


class TestLabels:
    def test_emotion_name_order(self):
        assert EMOTION_NAMES == ("happiness", "sadness", "like", "anger", "disgust", "fear", "surprise")
        assert label_names(7) == EMOTION_NAMES
        assert label_names(2) == POLARITY_NAMES

    def test_binarize_drops_surprise_and_maps_polarity(self):
        recs = [make_record(["x"], [0], label=i) for i in range(7)]
        out = binarize_records(recs)
        assert len(out) == 6
        by_label = [r.label for r in out]
        # happiness, like -> positive(1); sadness, anger, disgust, fear -> negative(0)
        assert by_label == [1, 0, 1, 0, 0, 0]


class TestVocabulary:
    def test_min_count_two(self):
        recs = [make_record(["a", "a", "b"], [0, 1, 1])]
        vocab = build_vocab(recs, min_count=2)
        assert vocab.lookup("a") >= 2
        assert vocab.lookup("b") == Vocabulary.UNK

    def test_min_count_one_keeps_all(self):
        recs = [make_record(["a", "b", "c"], [0, 1, 1])]
        vocab = build_vocab(recs, min_count=1)
        assert sorted(vocab.words) == ["a", "b", "c"]

    def test_reserved_ids(self):
        vocab = build_vocab([make_record(["a"], [0])])
        assert Vocabulary.PAD == 0 and Vocabulary.UNK == 1
        assert vocab.lookup("a") not in (Vocabulary.PAD, Vocabulary.UNK)

    def test_deterministic_ids(self):
        rng = np.random.default_rng(5)
        words = [f"w{i}" for i in range(30)]
        recs = [
            make_record([words[j] for j in rng.integers(0, 30, size=6)], [0, 1, 1, 1, 1, 1])
            for _ in range(20)
        ]
        first = build_vocab(recs, min_count=1)
        second = build_vocab(list(recs), min_count=1)
        assert first.word_to_id == second.word_to_id

    def test_encode(self):
        vocab = Vocabulary.from_words(["a", "b"])
        np.testing.assert_array_equal(vocab.encode(["b", "a", "zzz"]), [3, 2, 1])

    def test_ids_dense(self):
        vocab = build_vocab([make_record(list("edcba"), [0, 1, 1, 1, 1])])
        ids = sorted(vocab.word_to_id.values())
        assert ids == list(range(2, 2 + len(ids)))

    def test_empty_corpus_rejected(self):
        with pytest.raises(CorpusError):
            build_vocab([])


def normalize_oracle(a):
    """Dense D^{-1/2} A D^{-1/2} with zero-degree rows zeroed."""
    d = a.sum(axis=1)
    inv = np.zeros_like(d)
    inv[d > 0] = d[d > 0] ** -0.5
    return np.diag(inv) @ a @ np.diag(inv)


def arc_oracle(rec):
    """The 0/1 adjacency from a record's heads, one arc at a time: self-loops plus both directions of each arc."""
    a = np.eye(len(rec))
    for start, stop in rec.sent_bounds:
        for t in range(start, stop):
            if rec.heads[t]:
                a[t, start + rec.heads[t] - 1] = a[start + rec.heads[t] - 1, t] = 1.0
    return a


def reaches_roots(rec):
    """Whether following heads from every token reaches a root, one step at a time."""
    for start, stop in rec.sent_bounds:
        for t in range(start, stop):
            for _ in range(stop - start):
                if rec.heads[t] == 0:
                    break
                t = start + rec.heads[t] - 1
            else:
                return False
    return True


def on_cycle(rec, token, start):
    """Whether following heads from ``token`` (in the sentence starting at ``start``) comes back to it."""
    t = token
    for _ in range(len(rec)):
        if rec.heads[t] == 0:
            return False
        t = start + rec.heads[t] - 1
        if t == token:
            return True
    return False


def random_tree_heads(rng, n):
    """Heads (1-based, 0=root) of a uniformly shuffled random tree."""
    order = rng.permutation(n)
    heads = [0] * n
    for k in range(1, n):
        parent = order[rng.integers(0, k)]
        heads[order[k]] = int(parent) + 1
    return heads


def connected(block):
    """BFS connectivity of an undirected 0/1 adjacency block."""
    n = block.shape[0]
    seen = {0}
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for j in np.flatnonzero(block[i]):
            if int(j) not in seen:
                seen.add(int(j))
                frontier.append(int(j))
    return len(seen) == n


class TestCheckRecords:
    def test_empty_corpus_passes(self):
        check_records([])

    def test_matches_walk_oracle(self):
        # Random heads in range, with no self-heads and a root per sentence: some trees, many cycles.
        rng = np.random.default_rng(37)
        for _ in range(300):
            records = []
            for _ in range(int(rng.integers(1, 5))):
                bounds, heads, pos = [], [], 0
                for size in rng.integers(1, 9, size=int(rng.integers(1, 4))).tolist():
                    sentence = [int(rng.choice([h for h in range(size + 1) if h != t + 1])) for t in range(size)]
                    sentence[int(rng.integers(0, size))] = 0
                    bounds.append((pos, pos + size))
                    heads.extend(sentence)
                    pos += size
                records.append(make_record([f"w{i}" for i in range(pos)], heads, bounds=bounds))
            bad = [i for i, rec in enumerate(records) if not reaches_roots(rec)]
            if not bad:
                check_records(records)
                continue
            with pytest.raises(CorpusError, match=rf"^at {bad[0]}: heads form a cycle through token (\d+)$") as exc:
                check_records(records, lambda i: f"at {i}")
            token, rec = int(exc.value.args[0].rsplit(" ", 1)[1]), records[bad[0]]
            start = max(a for a, _ in rec.sent_bounds if a <= token)
            assert on_cycle(rec, token, start)

    def test_random_trees_pass(self):
        rng = np.random.default_rng(41)
        records = [make_record([f"w{i}" for i in range(n)], random_tree_heads(rng, n))
                   for n in rng.integers(1, 60, size=200).tolist()]
        check_records(records)

    @pytest.mark.parametrize(
        "heads, message",
        [
            ((5,), "head 5 of token 0 outside its 1-token sentence"),
            ((0, -1), "head -1 of token 1 outside its 2-token sentence"),
        ],
        ids=["past-the-end", "negative"],
    )
    def test_bad_head_names_the_record(self, heads, message):
        good = make_record(["a", "b"], [0, 1])
        bad = Record(tuple("ab"[: len(heads)]), ((0, len(heads)),), heads, 0)
        with pytest.raises(CorpusError, match=f"^at 1: {re.escape(message)}$"):
            check_records([good, bad, good], lambda i: f"at {i}")

    def test_label_outside_classes_names_the_record(self):
        records = [make_record(["a"], [0]), make_record(["a", "b", "c"], [2, 0, 2], label=6)]
        check_records(records, classes=7)
        with pytest.raises(CorpusError, match=r"^record 1: label 6 not in \[0, 2\)$"):
            check_records(records, classes=2)

    def test_longer_than_max_len_rejected(self):
        records = [make_record(["a"], [0]), make_record(["a", "b", "c"], [2, 0, 2])]
        check_records(records, max_len=3)
        with pytest.raises(CorpusError, match="^record 1: 3 tokens exceed max_len 2$"):
            check_records(records, max_len=2)

    @pytest.mark.parametrize(
        "record, message",
        [
            (Record(("a",), ((0, 1),), (1.0,), 0), "heads must be integers, got (1.0,)"),
            (Record(("a",), ((0, 1),), (False,), 0), "heads must be integers, got (False,)"),
            (Record(("a",), ((0, 1),), ("0",), 0), "heads must be integers, got ('0',)"),
            (Record(("a",), ((0,),), (0,), 0), "sentence spans must be integer pairs, got ((0,),)"),
            (Record(("a",), ((0, 1.0),), (0,), 0), "sentence spans must be integer pairs, got ((0, 1.0),)"),
            (Record(("a",), ([0, 1],), (0,), 0), "sentence spans must be integer pairs, got ([0, 1],)"),
            (Record(("a",), ((0, 1),), (0,), 1.0), "label must be an integer, got 1.0"),
            (Record(("a",), ((0, 1),), (0,), True), "label must be an integer, got True"),
        ],
        ids=["float-head", "bool-head", "str-head", "one-element-span", "float-bound", "list-span", "float-label",
             "bool-label"],
    )
    def test_mistyped_in_memory_field_names_the_record(self, record, message):
        with pytest.raises(CorpusError, match=f"^record 0: {re.escape(message)}$"):
            check_records([record], classes=7)


def validate_calls(source: str) -> list[int]:
    """Lines of ``source`` that call a ``.validate`` method."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "validate"]


def test_only_corpus_calls_validate():
    # A new entry point reuses check_records (or build_graph) instead of growing its own validation loop.
    assert validate_calls("x.validate()\nf(validate)\ny.validate\nfor r in rs:\n    r.validate(where=w)\n") == [1, 5]
    src = Path(__file__).resolve().parent.parent / "src" / "syngcn"
    found = {path.name: validate_calls(path.read_text(encoding="utf-8")) for path in sorted(src.glob("*.py"))}
    assert {name for name, lines in found.items() if lines} == {"corpus.py"}, found


class TestBuildGraph:
    def test_single_token_self_loop(self):
        g = build_graph(make_record(["w"], [0]))
        a = (g > 0) * 1.0
        assert a[0, 0] == 1.0
        assert g[0, 0] == 1.0
        assert a.sum() == 1.0

    def test_three_token_chain(self):
        g = build_graph(make_record(["a", "b", "c"], [2, 0, 2]))
        a = (g > 0) * 1.0
        np.testing.assert_array_equal(a, [[1, 1, 0], [1, 1, 1], [0, 1, 1]])
        np.testing.assert_array_equal(a.sum(axis=1), [2, 3, 2])
        assert g[0, 1] == pytest.approx(1.0 / math.sqrt(6.0), abs=1e-15)
        assert g[0, 0] == pytest.approx(0.5)
        assert g[1, 1] == pytest.approx(1.0 / 3.0)

    def test_two_token_all_ones(self):
        g = build_graph(make_record(["a", "b"], [0, 1]), mode="all_ones")
        np.testing.assert_array_equal((g > 0) * 1.0, np.ones((2, 2)))
        np.testing.assert_allclose(g, np.full((2, 2), 0.5))

    def test_shape_is_n_by_n(self):
        for n in (1, 3, 17, MAX_TOKENS):
            rec = make_record([f"w{i}" for i in range(n)], [i + 2 for i in range(n - 1)] + [0])
            for mode in ("syntax", "all_ones"):
                g = build_graph(rec, mode=mode)
                assert isinstance(g, np.ndarray) and g.shape == (n, n)

    @pytest.mark.parametrize(
        "record, message",
        [
            (Record(("a",), ((0, 1),), (5,), None), "head 5 of token 0 outside its 1-token sentence"),
            (Record(("a", "b"), ((0, 2),), (0, -1), None), "head -1 of token 1 outside its 2-token sentence"),
        ],
        ids=["past-the-end", "negative"],
    )
    @pytest.mark.parametrize("mode", ["syntax", "all_ones"])
    def test_bad_head_rejected(self, record, message, mode):
        with pytest.raises(CorpusError, match=f"^record: {re.escape(message)}$"):
            build_graph(record, mode)

    def test_head_cycle_is_left_to_check_records(self):
        record = Record(("a", "b", "c"), ((0, 3),), (0, 3, 2), None)
        assert build_graph(record).shape == (3, 3)
        with pytest.raises(CorpusError, match="heads form a cycle"):
            check_records([record])

    def test_no_edge_crosses_sentences(self):
        rec = make_record(list("abcde"), [0, 1, 2, 0, 2], bounds=[(0, 2), (2, 5)])
        a = (build_graph(rec) > 0) * 1.0
        assert a[:2, 2:].sum() == 0.0
        assert a[2:, :2].sum() == 0.0
        # second sentence wires locally: token 2 -> head 3, token 4 -> head 3
        assert a[2, 3] == 1.0 and a[4, 3] == 1.0

    def test_symmetric_bounded_entries(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            n = int(rng.integers(1, 30))
            rec = make_record([f"w{i}" for i in range(n)], random_tree_heads(rng, n))
            g = build_graph(rec)
            np.testing.assert_array_equal(g, g.T)
            assert g.min() >= 0.0 and g.max() <= 1.0

    def test_matches_dense_normalization_oracle(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            rec = make_record([f"w{i}" for i in range(n)], random_tree_heads(rng, n))
            g = build_graph(rec)
            np.testing.assert_array_equal((g > 0) * 1.0, arc_oracle(rec))
            np.testing.assert_allclose(g, normalize_oracle(arc_oracle(rec)), atol=1e-12)

    def test_tree_blocks_are_connected(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            sizes = [int(rng.integers(1, 12)) for _ in range(int(rng.integers(1, 4)))]
            bounds, heads, pos = [], [], 0
            for size in sizes:
                bounds.append((pos, pos + size))
                heads.extend(random_tree_heads(rng, size))
                pos += size
            rec = make_record([f"w{i}" for i in range(pos)], heads, bounds=bounds)
            a = (build_graph(rec) > 0) * 1.0
            for start, stop in bounds:
                assert connected(a[start:stop, start:stop])

    def test_pure_function(self):
        rec = make_record(["a", "b", "c"], [2, 0, 2])
        g1, g2 = build_graph(rec), build_graph(rec)
        assert np.array_equal(g1, g2)

    def test_matrices_read_only(self):
        g = build_graph(make_record(["a"], [0]))
        with pytest.raises(ValueError):
            g[0, 0] = 5.0

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            build_graph(make_record(["a"], [0]), mode="dense")

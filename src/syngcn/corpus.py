"""Microblog records, corpus files, vocabularies, and dependency graphs.

A corpus file is UTF-8 JSON lines, one record per line:

    {"tokens": ["w1", ...], "sent_bounds": [[0, 3], [3, 7]],
     "heads": [2, 0, 2, ...], "label": 0}

``tokens``       flat word list for the whole microblog.
``sent_bounds``  [start, stop) spans partitioning the tokens into
                 sentences (may be omitted for single-sentence records).
``heads``        one entry per token: the 1-based position of its head
                 *within its own sentence* (never the token itself), or 0
                 for a sentence root; every sentence has at least one root
                 and its heads form a tree, with no cycle (check_records).
``label``        class id, or a name from the configured class set (see
                 LABEL_SETS); a name from the other set is a CorpusError
                 naming the line.  Optional under "eval"; unread with classes=None.

Records longer than ``max_len`` tokens are truncated (counted in the
load report); a head pointing past the cut becomes a root.

The dependency graph of an n-token record is a symmetric n x n 0/1
adjacency A: one self-loop per token plus both directions of every head
arc, assembled block-diagonally per sentence so no edge crosses a
sentence boundary.  build_graph validates a record (all but cycles, which
check_records finds in a list) and returns only its symmetric normalization
D^-1/2 A D^-1/2, which divides each entry by the square roots of both
endpoint degrees (never zero, thanks to the self-loops); A is the
support of that matrix.
"""

from __future__ import annotations

import json
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .files import parse_json, write_lines

MAX_TOKENS = 140

EMOTION_NAMES = ("happiness", "sadness", "like", "anger", "disgust", "fear", "surprise")
# Binary polarity mode: happiness/like are positive, surprise is dropped.
POLARITY_NAMES = ("negative", "positive")
POSITIVE_EMOTIONS = frozenset({"happiness", "like"})
LABEL_SETS = {7: EMOTION_NAMES, 2: POLARITY_NAMES}

ADJACENCY_MODES = ("syntax", "all_ones")


class CorpusError(ValueError):
    """Malformed corpus file or record."""


def label_names(classes: int) -> tuple[str, ...]:
    """The names of a class set in id order; ``class_i`` for a class count outside LABEL_SETS."""
    return LABEL_SETS.get(classes) or tuple(f"class_{i}" for i in range(classes))


@dataclass(frozen=True)
class Record:
    """One microblog: tokens, per-sentence head arcs, and a label."""

    tokens: tuple[str, ...]
    sent_bounds: tuple[tuple[int, int], ...]
    heads: tuple[int, ...]
    label: int | None

    def __len__(self) -> int:
        return len(self.tokens)

    def validate(self, classes: int | None = None, where: str = "record") -> None:
        tokens, heads, bounds = self.tokens, self.heads, self.sent_bounds
        if not _sequence(tokens) or not all(isinstance(t, str) for t in tokens):
            raise CorpusError(f"{where}: tokens must be a sequence of strings, got {tokens!r:.60}")
        n = len(tokens)
        if n < 1:
            raise CorpusError(f"{where}: empty token list")
        if not _sequence(heads) or not set(map(type, heads)) <= {int}:  # exact ints: a bool or float is rejected
            raise CorpusError(f"{where}: heads must be a sequence of integers, got {heads!r:.60}")
        if len(heads) != n:
            raise CorpusError(f"{where}: {len(heads)} heads for {n} tokens")
        if not _sequence(bounds) or not all(isinstance(s, tuple) and len(s) == 2 and set(map(type, s)) <= {int}
                                            for s in bounds):
            raise CorpusError(f"{where}: sent_bounds must be a sequence of integer pairs, got {bounds!r:.60}")
        pos = 0
        for start, stop in bounds:
            if start != pos or stop <= start:
                raise CorpusError(f"{where}: sentence spans must be contiguous and non-empty")
            pos = stop
        if pos != n:
            raise CorpusError(f"{where}: sentence spans cover {pos} of {n} tokens")
        for start, stop in bounds:
            for t in range(start, stop):
                if not 0 <= heads[t] <= stop - start:
                    raise CorpusError(
                        f"{where}: head {heads[t]} of token {t} outside its {stop - start}-token sentence"
                    )
                if heads[t] == t - start + 1:
                    raise CorpusError(f"{where}: token {t} is its own head")
            if 0 not in heads[start:stop]:
                raise CorpusError(f"{where}: sentence [{start}, {stop}) has no root")
        if self.label is not None and type(self.label) is not int:
            raise CorpusError(f"{where}: label must be an integer, got {self.label!r:.60}")
        if classes is not None and self.label is not None and not 0 <= self.label < classes:
            raise CorpusError(f"{where}: label {self.label} not in [0, {classes})")


@dataclass
class LoadReport:
    """Bookkeeping from one load_corpus call."""

    truncated: int = 0


def _sequence(value) -> bool:
    """Whether a record field holds a sequence; a str never counts, though Python calls it one.

    Tuples and lists skip the abstract-class check, whose three calls would add about a third to
    validate's time on a 6-token record.
    """
    return isinstance(value, (tuple, list)) or isinstance(value, Sequence) and not isinstance(value, str)


def _tuple(value):
    """A JSON array as a tuple; any other value as it is, for Record.validate to judge."""
    return tuple(value) if isinstance(value, list) else value


def _truncate(record: Record, max_len: int) -> Record:
    """The first max_len tokens of a valid record; heads past the cut become roots."""
    bounds = tuple((a, min(b, max_len)) for a, b in record.sent_bounds if a < max_len)
    heads = list(record.heads[:max_len])
    for start, stop in bounds:
        for t in range(start, stop):
            if heads[t] > stop - start:
                heads[t] = 0
    return Record(record.tokens[:max_len], bounds, tuple(heads), record.label)


def load_corpus(
    path,
    schema: str = "train",
    classes: int | None = len(EMOTION_NAMES),
    max_len: int = MAX_TOKENS,
) -> tuple[list[Record], LoadReport]:
    """Read and validate a JSON-lines corpus file.

    ``schema`` is "train" (label required) or "eval" (label optional,
    e.g. for prediction inputs); ``classes=None`` reads no labels at all.
    Each line's JSON and label name are checked as it is read; its fields,
    with JSON arrays as tuples, are checked by check_records once every
    line has parsed, so a field's error reads as it would for a Record.
    Returns the records in file order plus a LoadReport counting truncations.
    """
    if schema not in ("train", "eval"):
        raise ValueError(f"unknown schema {schema!r}")
    if max_len < 1:
        raise ValueError(f"max_len must be positive, got {max_len}")
    records: list[Record] = []
    line_nos: list[int] = []
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh, start=1):
            where = f"{path}: line {line_no}"
            if not line.decode("utf-8", "replace").strip():  # decoded, so U+3000 spaces count as blank
                continue
            raw = parse_json(line, CorpusError, where)
            if not isinstance(raw, dict) or "tokens" not in raw or "heads" not in raw:
                raise CorpusError(f"{where}: record needs tokens and heads fields")
            tokens, spans = _tuple(raw["tokens"]), raw.get("sent_bounds", [])
            bounds = tuple(map(_tuple, spans)) if isinstance(spans, list) else spans
            if bounds == () and isinstance(tokens, tuple):
                bounds = ((0, len(tokens)),)
            label = None if classes is None else raw.get("label")
            if isinstance(label, str):
                names = label_names(classes)
                if label not in names:
                    raise CorpusError(f"{where}: label {label!r} is not one of {', '.join(names)}")
                label = names.index(label)
            elif label is None and schema == "train" and classes is not None:
                raise CorpusError(f"{where}: label required under train schema")
            records.append(Record(tokens, bounds, _tuple(raw["heads"]), label))
            line_nos.append(line_no)
    check_records(records, lambda i: f"{path}: line {line_nos[i]}", classes)
    report = LoadReport(truncated=sum(len(rec) > max_len for rec in records))
    return [_truncate(rec, max_len) if len(rec) > max_len else rec for rec in records], report


def check_records(records, where=lambda i: f"record {i}", classes=None, max_len=None) -> None:
    """Raise a CorpusError naming ``where(i)`` for the first entry that is not a Record, fails
    ``validate(classes)``, has over ``max_len`` tokens, or has a head cycle.

    Cycles take one NumPy pass over all records: every token points to its head's index in the
    flattened corpus, and every root to a sentinel that points to itself.  Each ``p = p[p]`` doubles
    how far the pointers reach, so after bit_length(longest sentence) rounds every token of a tree
    points to the sentinel; one that does not lies on or under a cycle, and points to a token on it.
    """
    for i, rec in enumerate(records):
        if not isinstance(rec, Record):
            raise CorpusError(f"{where(i)}: expected a Record, got {type(rec).__name__}")
        rec.validate(classes, where(i))
        if max_len is not None and len(rec) > max_len:
            raise CorpusError(f"{where(i)}: {len(rec)} tokens exceed max_len {max_len}")
    if not records:
        return
    sizes = [stop - start for rec in records for start, stop in rec.sent_bounds]
    heads = np.fromiter(chain.from_iterable(rec.heads for rec in records), np.intp, sum(sizes))
    sentinel = len(heads)
    p = np.append(np.repeat(np.cumsum(sizes) - sizes - 1, sizes) + heads, sentinel)  # a head's flattened index
    p[:-1][heads == 0] = sentinel
    del heads
    for _ in range(max(sizes).bit_length()):
        p = p[p]
    bad = np.flatnonzero(p[:-1] != sentinel)
    if bad.size:
        offsets = np.cumsum([0] + [len(rec) for rec in records])
        i = int(np.searchsorted(offsets, bad[0], side="right")) - 1
        raise CorpusError(f"{where(i)}: heads form a cycle through token {p[bad[0]] - offsets[i]}")


def save_corpus(records, path) -> None:
    """Inverse of load_corpus (used by fixtures and the demo scripts)."""
    lines = []
    for rec in records:
        row = {
            "tokens": list(rec.tokens),
            "sent_bounds": [list(span) for span in rec.sent_bounds],
            "heads": list(rec.heads),
        }
        if rec.label is not None:
            row["label"] = rec.label
        lines.append(json.dumps(row, ensure_ascii=False))
    write_lines(path, lines)


def binarize_records(records) -> list[Record]:
    """Map 7-class records to polarity labels, dropping 'surprise'."""
    out = []
    for rec in records:
        if rec.label is None or EMOTION_NAMES[rec.label] == "surprise":
            continue
        positive = EMOTION_NAMES[rec.label] in POSITIVE_EMOTIONS
        out.append(Record(rec.tokens, rec.sent_bounds, rec.heads, int(positive)))
    return out


# ---------------------------------------------------------------------------
# vocabulary
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Vocabulary:
    """Word-to-id map with reserved padding and unknown ids."""

    word_to_id: dict[str, int] = field(default_factory=dict)

    PAD = 0
    UNK = 1

    def __len__(self) -> int:
        return len(self.word_to_id) + 2

    def lookup(self, word: str) -> int:
        return self.word_to_id.get(word, self.UNK)

    def encode(self, tokens) -> np.ndarray:
        return np.array([self.lookup(t) for t in tokens], dtype=np.intp)

    @property
    def words(self) -> list[str]:
        """Vocabulary words in id order (excluding pad/unk)."""
        return sorted(self.word_to_id, key=self.word_to_id.get)

    @classmethod
    def from_words(cls, words) -> Vocabulary:
        return cls({w: i + 2 for i, w in enumerate(words)})


def build_vocab(records, min_count: int = 1) -> Vocabulary:
    """Vocabulary of words with frequency >= min_count.

    Ids are assigned by descending frequency (ties alphabetical), so two
    builds over the same corpus are identical.
    """
    if not records:
        raise CorpusError("build_vocab needs a non-empty corpus")
    counts = Counter(t for rec in records for t in rec.tokens)
    kept = sorted((w for w, c in counts.items() if c >= min_count), key=lambda w: (-counts[w], w))
    return Vocabulary.from_words(kept)


# ---------------------------------------------------------------------------
# dependency graphs
# ---------------------------------------------------------------------------


def build_graph(record: Record, mode: str = "syntax") -> np.ndarray:
    """The read-only n x n normalized adjacency D^-1/2 A D^-1/2 of one n-token record.

    "syntax" wires the dependency arcs (plus self-loops, both
    directions); "all_ones" is the no-syntax ablation where every token
    links to every other.  The record is validated first, so a bad head
    is a CorpusError; a head cycle is left to check_records.
    """
    if mode not in ADJACENCY_MODES:
        raise ValueError(f"unknown adjacency mode {mode!r}")
    record.validate()
    n = len(record)
    if mode == "all_ones":
        a = np.ones((n, n))
    else:
        # token t's head sits at (start of t's sentence) + heads[t] - 1
        heads = np.asarray(record.heads)
        starts = np.array([start for start, stop in record.sent_bounds for _ in range(start, stop)])
        t = np.flatnonzero(heads)
        g = starts[t] + heads[t] - 1
        a = np.eye(n)
        a[t, g] = a[g, t] = 1.0
    inv_sqrt = 1.0 / np.sqrt(a.sum(axis=1))
    normalized = a * inv_sqrt[:, None] * inv_sqrt[None, :]
    normalized.setflags(write=False)
    return normalized

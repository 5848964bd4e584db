"""Seeded input generator for the benchmark.

Writes corpora in the program's JSON-lines format (see the corpus module
docstring) and shares nothing else with the program: records are plain
dicts here, and every tree, span and truncation is built by this file.

Three corpora, one per workload:

``paper_corpus``    parsed microblogs at paper scale: 34-46 tokens (mean
                    40) in 2-6 sentences, one random dependency tree per
                    sentence, tokens drawn from a Zipf law over a 16k-word
                    dictionary (about 10k distinct words in 2000 records).
``predict_corpus``  unlabelled microblogs from the same word law, in
                    chunks of 16 whose lengths are stratified over
                    [1, 180], so every chunk holds short records and
                    records past the 140-token cut.
``twin_corpus``     3-6-token twins: one token sequence, two trees rooted
                    on different class words, labelled by the root.
"""

from __future__ import annotations

import json

import numpy as np

CLASSES = 7
MAX_TOKENS = 140
DICTIONARY = 16000
ZIPF_S = 1.0
CHUNK = 16
PREDICT_MAX_LEN = 180


def _word_law() -> np.ndarray:
    p = 1.0 / np.arange(1, DICTIONARY + 1) ** ZIPF_S
    return p / p.sum()


def _words(rng: np.random.Generator, n: int, law: np.ndarray) -> list[str]:
    return [f"w{k}" for k in rng.choice(DICTIONARY, size=n, p=law)]


def random_tree(rng: np.random.Generator, n: int) -> list[int]:
    """1-based heads of a uniform random recursive tree over n positions."""
    order = rng.permutation(n)
    heads = [0] * n
    for k in range(1, n):
        heads[order[k]] = int(order[rng.integers(0, k)]) + 1
    return heads


def _sentences(rng: np.random.Generator, n: int) -> list[tuple[int, int]]:
    # Two to six sentences, each at least one token long.
    count = min(n, int(rng.integers(2, 7)))
    cuts = sorted(rng.choice(np.arange(1, n), size=count - 1, replace=False).tolist()) if count > 1 else []
    bounds, start = [], 0
    for stop in cuts + [n]:
        bounds.append((start, stop))
        start = stop
    return bounds


def microblog(rng: np.random.Generator, n: int, law: np.ndarray, label: int | None) -> dict:
    bounds = _sentences(rng, n)
    heads: list[int] = []
    for start, stop in bounds:
        heads.extend(random_tree(rng, stop - start))
    rec = {"tokens": _words(rng, n, law), "sent_bounds": [list(b) for b in bounds], "heads": heads}
    if label is not None:
        rec["label"] = label
    return rec


def paper_corpus(rng: np.random.Generator, n_records: int = 2000) -> list[dict]:
    law = _word_law()
    return [
        microblog(rng, int(rng.integers(34, 47)), law, int(rng.integers(CLASSES)))
        for _ in range(n_records)
    ]


def predict_lengths(rng: np.random.Generator) -> list[int]:
    """One chunk's lengths: one draw from each of 16 equal strata of [1, 180]."""
    lengths = [1 + int((k + rng.random()) * PREDICT_MAX_LEN / CHUNK) for k in range(CHUNK)]
    return [lengths[i] for i in rng.permutation(CHUNK)]


def predict_corpus(rng: np.random.Generator, chunks: int) -> list[dict]:
    law = _word_law()
    return [microblog(rng, n, law, None) for _ in range(chunks) for n in predict_lengths(rng)]


def twin_corpus(rng: np.random.Generator, n_pairs: int = 250, n_fillers: int = 8) -> list[dict]:
    """Twin star-tree records whose label is the root's class word."""
    fillers = [f"filler{i}" for i in range(n_fillers)]
    records = []
    for _ in range(n_pairs):
        a, b = (int(c) for c in rng.choice(CLASSES, size=2, replace=False))
        extra = [fillers[i] for i in rng.choice(n_fillers, size=int(rng.integers(1, 5)), replace=False)]
        tokens = [f"classword{a}", f"classword{b}"] + extra
        order = rng.permutation(len(tokens))
        tokens = [tokens[j] for j in order]
        for cls, source in ((a, 0), (b, 1)):
            root = int(np.flatnonzero(order == source)[0])
            heads = [root + 1] * len(tokens)
            heads[root] = 0
            records.append({"tokens": tokens, "sent_bounds": [[0, len(tokens)]], "heads": heads, "label": cls})
    return records


def split(rng: np.random.Generator, records: list[dict], dev_fraction: float = 0.2):
    order = rng.permutation(len(records))
    n_dev = int(len(records) * dev_fraction)
    dev = set(order[:n_dev].tolist())
    return (
        [r for i, r in enumerate(records) if i not in dev],
        [r for i, r in enumerate(records) if i in dev],
    )


def truncate(rec: dict, max_len: int = MAX_TOKENS) -> dict:
    """The first max_len tokens, spans clipped, heads past the cut made roots."""
    out = {"tokens": rec["tokens"][:max_len], "sent_bounds": [], "heads": []}
    for start, stop in rec["sent_bounds"]:
        if start >= max_len:
            break
        stop = min(stop, max_len)
        out["sent_bounds"].append([start, stop])
        out["heads"].extend(h if h <= stop - start else 0 for h in rec["heads"][start:stop])
    if "label" in rec:
        out["label"] = rec["label"]
    return out


def write_jsonl(records: list[dict], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")

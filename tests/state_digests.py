"""Print SHA-256 digests of 14 fixed-seed training runs and of 2 of their models' predictions.

A change that should keep results bit-identical is checked by running this
script at the parent revision and at the change, on the same host with the
same BLAS thread count, and comparing the two outputs with ``diff``:

    OPENBLAS_NUM_THREADS=1 python tests/state_digests.py > digests.txt

It imports ``syngcn`` from the ``src/`` of the checkout it lies in, ahead of
``PYTHONPATH`` and of any installed copy, so each checkout digests its own
code; it exits with an error when ``syngcn`` loads from anywhere else.

Each run trains 2 epochs (seed 7, dropout 0.5) on a 300-record root-label
corpus split 80/20, at 16/16 and 300/180 embedding/hidden dimensions: with
every pooling mode, with and without weight decay, and once with percentile
pooling and both penalty weights (``lambda_orth``, ``lambda_l2``) at 0.  A
line holds the digests of the run's checkpoint and history.  At each size,
the first run's model then predicts 48 ragged records of 1-180 tokens, and a
line holds the digest of ``Model.predict``'s probability rows: training
reaches the history through its no_grad scoring only by argmax metrics.  The
Bi-LSTM runs one direction after the other at 16/16 and both at once at
300/180.  pytest does not collect this file.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import sys
import tempfile
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))  # before the imports below, so they load this checkout's syngcn

import syngcn
from syngcn.corpus import Record
from syngcn.synthetic import root_label_corpus, split_records
from syngcn.training import POOLING_MODES, Model, TrainConfig, save_checkpoint, save_history, train

if not Path(syngcn.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"state_digests: syngcn was imported from {syngcn.__file__}, not from {SRC}")

SIZES = ((16, 16), (300, 180))
# (label, TrainConfig overrides) of each run at each size.
RUNS = [(f"{pooling} weight_decay={decay}", dict(pooling=pooling, weight_decay=decay))
        for pooling, decay in itertools.product(POOLING_MODES, (1e-8, 0.0))]
RUNS.append(("percentile lambda_orth=lambda_l2=0", dict(pooling="percentile", lambda_orth=0.0, lambda_l2=0.0)))
PREDICT_MAX_LEN = 180


def prediction_records(words: list[str], rng: np.random.Generator) -> list[Record]:
    """48 records of 1-180 tokens (both ends included) from words, each over a random dependency tree."""
    lengths = [1, PREDICT_MAX_LEN, *rng.integers(1, PREDICT_MAX_LEN + 1, size=46).tolist()]
    records = []
    for n in rng.permutation(lengths).tolist():
        heads = [0] + [int(rng.integers(1, j + 1)) for j in range(1, n)]  # each token below an earlier one
        records.append(Record(tuple(rng.choice(words, size=n).tolist()), ((0, n),), tuple(heads), None))
    return records


def prediction_digest(model: Model, records: list[Record]) -> str:
    """Digest of the probability rows a copy of model that accepts PREDICT_MAX_LEN tokens gives records."""
    wide = Model(dataclasses.replace(model.config, max_len=PREDICT_MAX_LEN), model.vocab)
    wide.load_snapshot(model.snapshot())
    return hashlib.sha256(wide.predict(records)[1].tobytes()).hexdigest()


def main() -> None:
    train_records, dev_records = split_records(root_label_corpus(150, rng=np.random.default_rng(7)), 0.2,
                                               np.random.default_rng(7))
    words = sorted({token for record in train_records for token in record.tokens}) + ["unseen"]
    records = prediction_records(words, np.random.default_rng(7))
    with tempfile.TemporaryDirectory() as tmp:
        checkpoint, history = Path(tmp) / "model.sgcn", Path(tmp) / "model.history"
        for (embedding, hidden), (label, overrides) in itertools.product(SIZES, RUNS):
            config = TrainConfig(embedding_size=embedding, hidden_neurons=hidden, epochs=2, seed=7, dropout=0.5,
                                 **overrides)
            result = train(config, train_records, dev_records)
            save_checkpoint(result.model, checkpoint)
            save_history(result.history, history)
            digests = (hashlib.sha256(path.read_bytes()).hexdigest() for path in (checkpoint, history))
            print(f"{embedding}/{hidden} {label}", *digests)
            if label == RUNS[0][0]:
                print(f"{embedding}/{hidden} {label} predict", prediction_digest(result.model, records))


if __name__ == "__main__":
    main()

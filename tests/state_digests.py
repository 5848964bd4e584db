"""Print SHA-256 digests of the checkpoint and history of 12 fixed-seed training runs.

A change that should keep results bit-identical is checked by running this
script at the parent revision and at the change, on the same host with the
same BLAS thread count, and comparing the two outputs with ``diff``:

    PYTHONPATH=src python tests/state_digests.py > digests.txt

Each run trains 2 epochs (seed 7, dropout 0.5) on a 300-record root-label
corpus split 80/20, at 16/16 and 300/180 embedding/hidden dimensions, with
every pooling mode, and with and without weight decay.  pytest does not
collect this file.
"""

from __future__ import annotations

import hashlib
import itertools
import tempfile
from pathlib import Path

import numpy as np

from syngcn.synthetic import root_label_corpus, split_records
from syngcn.training import POOLING_MODES, TrainConfig, save_checkpoint, save_history, train

SIZES = ((16, 16), (300, 180))
WEIGHT_DECAYS = (1e-8, 0.0)


def main() -> None:
    train_records, dev_records = split_records(root_label_corpus(150, rng=np.random.default_rng(7)), 0.2,
                                               np.random.default_rng(7))
    with tempfile.TemporaryDirectory() as tmp:
        checkpoint, history = Path(tmp) / "model.sgcn", Path(tmp) / "model.history"
        for (embedding, hidden), pooling, decay in itertools.product(SIZES, POOLING_MODES, WEIGHT_DECAYS):
            config = TrainConfig(embedding_size=embedding, hidden_neurons=hidden, pooling=pooling,
                                 weight_decay=decay, epochs=2, seed=7, dropout=0.5)
            result = train(config, train_records, dev_records)
            save_checkpoint(result.model, checkpoint)
            save_history(result.history, history)
            digests = (hashlib.sha256(path.read_bytes()).hexdigest() for path in (checkpoint, history))
            print(f"{embedding}/{hidden} {pooling} weight_decay={decay}", *digests)


if __name__ == "__main__":
    main()

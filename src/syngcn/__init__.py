"""Syntax-based graph convolution network for microblog emotion classification.

The pipeline: word embeddings feed a stacked Bi-LSTM; its per-token
features are convolved over the microblog's dependency-parse graph; a
pooling head (nearest-rank percentile by default) reduces the token
axis to class logits.  Training applies an orthogonality penalty on the
recurrent and convolution weights.  Everything runs on a small built-in
reverse-mode autodiff engine over float64 numpy arrays.
"""

from .corpus import (
    EMOTION_NAMES,
    POLARITY_NAMES,
    Record,
    Vocabulary,
    build_graph,
    build_vocab,
    load_corpus,
    save_corpus,
)
from .layers import average_pool, orthogonal_init, percentile_pool
from .metrics import EvalReport, confusion, evaluate
from .tensor import Tensor, backward
from .training import (
    Model,
    TrainConfig,
    load_checkpoint,
    save_checkpoint,
    total_loss,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "EMOTION_NAMES",
    "POLARITY_NAMES",
    "EvalReport",
    "Model",
    "Record",
    "Tensor",
    "TrainConfig",
    "Vocabulary",
    "average_pool",
    "backward",
    "build_graph",
    "build_vocab",
    "confusion",
    "evaluate",
    "load_checkpoint",
    "load_corpus",
    "orthogonal_init",
    "percentile_pool",
    "save_checkpoint",
    "save_corpus",
    "total_loss",
    "train",
    "__version__",
]

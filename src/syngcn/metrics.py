"""Shared-task style evaluation: per-class and macro/micro P/R/F.

Macro scores average the per-class ratios (a class nobody predicted
contributes precision 0; a class absent from the gold contributes
recall 0), then combine as F = 2PR/(P+R).  Micro scores pool the counts
across classes first.  With exactly one predicted and one gold label
per record, micro precision, recall, and F all equal plain accuracy.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .corpus import label_names


def _ratio(num: int, den: int) -> float:
    return num / den if den > 0 else 0.0


def _f_measure(p: float, r: float) -> float:
    return 2.0 * p * r / (p + r) if p + r > 0 else 0.0


@dataclass(frozen=True)
class ClassScore:
    name: str
    gold: int
    proposed: int
    correct: int
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class EvalReport:
    classes: tuple[ClassScore, ...]
    macro_precision: float
    macro_recall: float
    macro_f: float
    micro_precision: float
    micro_recall: float
    micro_f: float

    @property
    def accuracy(self) -> float:
        """Correct over all records: the micro recall, whose sums are the same."""
        return self.micro_recall

    def to_dict(self) -> dict:
        return {
            "classes": [vars(c) for c in self.classes],
            "macro": {"precision": self.macro_precision, "recall": self.macro_recall, "f": self.macro_f},
            "micro": {"precision": self.micro_precision, "recall": self.micro_recall, "f": self.micro_f},
            "accuracy": self.accuracy,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def format_table(self) -> str:
        """Aligned per-class table with micro/macro summary rows."""
        rows = [(c.name, c.precision, c.recall, c.f1) for c in self.classes]
        rows.append(("Micro Average", self.micro_precision, self.micro_recall, self.micro_f))
        rows.append(("Macro Average", self.macro_precision, self.macro_recall, self.macro_f))
        width = max(len(name) for name, *_ in rows)
        lines = [f"{'':{width}}  Precision  Recall  F1-score"]
        for name, p, r, f in rows:
            lines.append(f"{name:{width}}  {p:9.4f}  {r:6.4f}  {f:8.4f}")
        return "\n".join(lines)


def evaluate(pred, gold, classes: int) -> EvalReport:
    """Score predicted class ids against gold ids."""
    matrix = confusion(pred, gold, classes)
    scores = []
    for name, n_gold, n_prop, n_corr in zip(label_names(classes), matrix.sum(axis=1).tolist(),
                                            matrix.sum(axis=0).tolist(), matrix.diagonal().tolist()):
        p, r = _ratio(n_corr, n_prop), _ratio(n_corr, n_gold)
        scores.append(ClassScore(name, n_gold, n_prop, n_corr, p, r, _f_measure(p, r)))

    macro_p = sum(c.precision for c in scores) / classes
    macro_r = sum(c.recall for c in scores) / classes
    micro_p = _ratio(sum(c.correct for c in scores), sum(c.proposed for c in scores))
    micro_r = _ratio(sum(c.correct for c in scores), sum(c.gold for c in scores))
    return EvalReport(
        classes=tuple(scores),
        macro_precision=macro_p,
        macro_recall=macro_r,
        macro_f=_f_measure(macro_p, macro_r),
        micro_precision=micro_p,
        micro_recall=micro_r,
        micro_f=_f_measure(micro_p, micro_r),
    )


def confusion(pred, gold, classes: int) -> np.ndarray:
    """Count matrix with gold classes as rows and predictions as columns."""
    pred = list(pred)
    gold = list(gold)
    if len(pred) != len(gold):
        raise ValueError(f"{len(pred)} predictions vs {len(gold)} gold labels")
    matrix = np.zeros((classes, classes), dtype=np.int64)
    for p, g in zip(pred, gold):
        if not (0 <= p < classes and 0 <= g < classes):
            raise ValueError(f"class pair ({p}, {g}) not in [0, {classes})")
        matrix[g, p] += 1
    return matrix

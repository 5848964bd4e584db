"""Correctness checks on the program's outputs.

Each check compares an output with something computed here, apart from
the program, or with a property the method must have; none compares with
a stored copy of earlier output.  Each returns (ok, detail) and never
raises on a wrong output, so a failure is counted, not fatal.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

PROB_TOL = 1e-12
FD_RTOL = 1e-5
# Rounding in a float64 loss near 2 is ~1e-15; over a 2e-6 step that is
# ~5e-10 in the difference quotient, so 1e-8 absolute keeps a check on a
# direction nearly orthogonal to the gradient from failing on rounding.
FD_ATOL = 1e-8


def normalized_adjacency(rec: dict) -> np.ndarray:
    """D^-1/2 A D^-1/2 of self-loops plus both directions of every head arc."""
    n = len(rec["tokens"])
    a = np.eye(n)
    for start, stop in rec["sent_bounds"]:
        for t in range(start, stop):
            h = rec["heads"][t]
            if h:
                a[t, start + h - 1] = a[start + h - 1, t] = 1.0
    d = np.diag(a.sum(axis=1) ** -0.5)
    return d @ a @ d


def adjacency(rec: dict, encoded: np.ndarray) -> tuple[bool, str]:
    oracle = normalized_adjacency(rec)
    if encoded.shape != oracle.shape:
        return False, f"adjacency shape {encoded.shape} != {oracle.shape}"
    err = float(np.abs(encoded - oracle).max())
    return err <= 1e-12, f"max |A_hat - oracle| = {err:.1e}"


def directional_derivative(f_plus: float, f_minus: float, eps: float, grad_dot_v: float) -> tuple[bool, str]:
    """Central difference along v against <grad, v>."""
    fd = (f_plus - f_minus) / (2.0 * eps)
    err = abs(fd - grad_dot_v)
    ok = err <= FD_RTOL * max(abs(fd), abs(grad_dot_v)) + FD_ATOL
    return ok, f"central difference {fd:.10e} vs <grad, v> {grad_dot_v:.10e}, abs err {err:.1e}"


def finite_loss(loss: float) -> tuple[bool, str]:
    return math.isfinite(loss), f"loss {loss!r}"


def padding_row(table: np.ndarray) -> tuple[bool, str]:
    moved = int(np.count_nonzero(table[0]))
    return moved == 0, f"{moved} non-zero entries in the padding row"


def prediction_lines(lines: list[str], names: tuple[str, ...]) -> tuple[bool, str]:
    """Rows are distributions; label_id is their first argmax and label its name."""
    for i, line in enumerate(lines):
        row = json.loads(line)
        p = np.asarray(row["probabilities"], dtype=np.float64)
        if p.shape != (len(names),) or p.min() < 0.0:
            return False, f"line {i}: probabilities {p.tolist()} are not a {len(names)}-class distribution"
        if abs(p.sum() - 1.0) > PROB_TOL:
            return False, f"line {i}: probabilities sum to 1 {p.sum() - 1.0:+.1e}"
        best = int(np.argmax(p))
        if row["label_id"] != best or row["label"] != names[best]:
            return False, f"line {i}: label {row['label']!r}/{row['label_id']} but argmax {best}"
    return True, f"{len(lines)} rows"


def probabilities(lines: list[str]) -> np.ndarray:
    return np.array([json.loads(line)["probabilities"] for line in lines], dtype=np.float64)


def same_rows(a: np.ndarray, b: np.ndarray, what: str) -> tuple[bool, str]:
    if a.shape != b.shape:
        return False, f"{what}: shapes {a.shape} and {b.shape}"
    err = float(np.abs(a - b).max()) if a.size else 0.0
    return err <= PROB_TOL, f"{what}: max difference {err:.1e}"


def rows_differ(probs: np.ndarray) -> tuple[bool, str]:
    """At least half the rows are distinct, so no check passes on one repeated row."""
    distinct = len(np.unique(probs, axis=0))
    return 2 * distinct >= len(probs) > 1, f"{distinct} distinct rows of {len(probs)}"


def macro_micro(pred: list[int], gold: list[int], classes: int) -> dict[str, Fraction]:
    """Counting oracle: macro P and R average per-class ratios, F = 2PR/(P+R)."""
    precision, recall = [], []
    for c in range(classes):
        proposed = sum(1 for p in pred if p == c)
        in_gold = sum(1 for g in gold if g == c)
        hit = sum(1 for p, g in zip(pred, gold) if p == g == c)
        precision.append(Fraction(hit, proposed) if proposed else Fraction(0))
        recall.append(Fraction(hit, in_gold) if in_gold else Fraction(0))
    p, r = sum(precision) / classes, sum(recall) / classes
    micro = Fraction(sum(1 for x, y in zip(pred, gold) if x == y), len(gold))
    return {
        "macro_precision": p,
        "macro_recall": r,
        "macro_f": 2 * p * r / (p + r) if p + r else Fraction(0),
        "micro_f": micro,
    }


def best_dev(pred: list[int], gold: list[int], classes: int, report) -> tuple[bool, str]:
    oracle = macro_micro(pred, gold, classes)
    worst = max(abs(getattr(report, key) - float(value)) for key, value in oracle.items())
    return worst <= 1e-12, f"oracle macro F {float(oracle['macro_f']):.6f} vs best_dev {report.macro_f:.6f}"


def best_epoch(history: list[dict], epoch: int) -> tuple[bool, str]:
    scores = [h["dev_macro_f"] for h in history]
    first = history[scores.index(max(scores))]["epoch"]
    return epoch == first, f"best_epoch {epoch}, first argmax of dev_macro_f {first}"


def loss_decreased(history: list[dict]) -> tuple[bool, str]:
    first, last = history[0]["train_loss"], history[-1]["train_loss"]
    return last < first, f"train loss {first:.4f} -> {last:.4f}"

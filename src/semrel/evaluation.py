"""Scoring, confusion matrices, and lexical train/validation splits."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ._io import excerpt, np
from ._random import Generator
from .errors import DataError
from .pairs import PairRecord

AVERAGES = ("weighted", "macro")


@dataclass(frozen=True)
class LabelScores:
    label: str
    precision: float
    recall: float
    f1: float
    support: int


@dataclass(frozen=True)
class ScoreReport:
    per_label: tuple[LabelScores, ...]
    precision: float
    recall: float
    f1: float
    average: str


@dataclass(frozen=True)
class ConfusionMatrix:
    """Rows are gold labels, columns are predictions, both in ``labels`` order."""

    labels: tuple[str, ...]
    counts: np.ndarray


def confusion(gold: Sequence[str], pred: Sequence[str], labels: Sequence[str] | None = None) -> ConfusionMatrix:
    if len(gold) != len(pred):
        raise ValueError(f"gold has {len(gold)} items but predictions have {len(pred)}")
    if labels is None:
        labels = sorted(set(gold) | set(pred))
    labels = tuple(labels)
    index = {label: i for i, label in enumerate(labels)}
    stray = sorted((set(gold) | set(pred)) - set(index))
    if stray:
        raise DataError(f"labels outside the given label list: {', '.join(stray)}")
    counts = np.zeros((len(labels), len(labels)), dtype=int)
    for g, p in zip(gold, pred):
        counts[index[g], index[p]] += 1
    return ConfusionMatrix(labels=labels, counts=counts)


def _prf(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def scores(
    gold: Sequence[str],
    pred: Sequence[str],
    labels: Sequence[str] | None = None,
    average: str = AVERAGES[0],
    exclude: Sequence[str] = (),
) -> ScoreReport:
    """Per-label precision/recall/F1 plus a weighted or macro average.

    Degenerate ratios (0/0) score 0. ``exclude`` drops labels (typically the
    negative class) from both the per-label rows and the average; weights for
    the weighted average are gold supports among the included labels only.
    """
    if average not in AVERAGES:
        raise ValueError(f"average must be one of {AVERAGES}")
    matrix = confusion(gold, pred, labels)
    included = [label for label in matrix.labels if label not in set(exclude)]
    if not included:
        raise DataError(f"all labels were excluded from scoring: {excerpt(', '.join(matrix.labels))}")
    rows = []
    for label in included:
        i = matrix.labels.index(label)
        tp = int(matrix.counts[i, i])
        fp = int(matrix.counts[:, i].sum()) - tp
        fn = int(matrix.counts[i].sum()) - tp
        precision, recall, f1 = _prf(tp, fp, fn)
        rows.append(LabelScores(label, precision, recall, f1, support=tp + fn))
    if average == "macro":
        weights = np.ones(len(rows))
    else:
        weights = np.array([row.support for row in rows], dtype=float)
    total = weights.sum()
    if total == 0.0:
        avg_p = avg_r = avg_f = 0.0
    else:
        weights = weights / total
        avg_p = float(weights @ np.array([row.precision for row in rows]))
        avg_r = float(weights @ np.array([row.recall for row in rows]))
        avg_f = float(weights @ np.array([row.f1 for row in rows]))
    return ScoreReport(
        per_label=tuple(rows), precision=avg_p, recall=avg_r, f1=avg_f, average=average
    )


def binary_f1(gold: Sequence, pred: Sequence, positive) -> float:
    """F1 of a single positive class: a label, or True for boolean flags."""
    g = np.asarray(gold) == positive
    p = np.asarray(pred) == positive
    tp = int(np.count_nonzero(g & p))
    fp = int(np.count_nonzero(~g & p))
    fn = int(np.count_nonzero(g & ~p))
    _, _, f1 = _prf(tp, fp, fn)
    return f1


def lexical_split(
    records: Sequence[PairRecord], val_fraction: float = 0.3, seed: int = 13
) -> tuple[list[PairRecord], list[PairRecord]]:
    """Split so that no x word, folded to lowercase, appears on both sides.

    The distinct x words are shuffled with the given seed and a fraction of
    them (at least one, never all) becomes the validation vocabulary; records
    follow their x word. Guards against silently re-tuning on training terms.
    """
    if not records:
        raise DataError("nothing to split")
    if not 0.0 < val_fraction < 1.0:
        raise ValueError("val_fraction must lie strictly between 0 and 1")
    words = sorted({r.x.lower() for r in records})
    if len(words) < 2:
        raise DataError("need at least two distinct x words for a lexical split")
    order = Generator(seed).permutation(len(words))
    n_val = int(round(val_fraction * len(words)))
    n_val = min(max(n_val, 1), len(words) - 1)
    val_words = {words[int(i)] for i in order[:n_val]}
    train = [r for r in records if r.x.lower() not in val_words]
    val = [r for r in records if r.x.lower() in val_words]
    return train, val


def report_tsv(report: ScoreReport) -> str:
    """One row per label plus the average, tab-separated."""
    lines = ["label\tprecision\trecall\tf1\tsupport"]
    for row in report.per_label:
        lines.append(f"{row.label}\t{row.precision:.6f}\t{row.recall:.6f}\t{row.f1:.6f}\t{row.support}")
    total = sum(row.support for row in report.per_label)
    lines.append(f"{report.average}\t{report.precision:.6f}\t{report.recall:.6f}\t{report.f1:.6f}\t{total}")
    return "\n".join(lines) + "\n"
